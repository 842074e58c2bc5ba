"""One `cylspec run` in a fresh interpreter, with its cost recorded.

    python3 child.py OUT.json TRACE [cylspec run arguments...]

Imports `cylspec.cli`, notes the monotonic clock (the parent subtracts
its spawn time to get the set-up time), then calls the CLI entry point
and writes wall time, process CPU and peak RSS over that call to
OUT.json.  TRACE = 1 installs the span tracer first and adds its
summary.  With no run arguments it only measures the import.
"""

import json
import resource
import sys
import time


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    out, trace, args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import cylspec.cli

    rec = {"ready": time.monotonic()}
    rc = 0
    if args:
        tracer = None
        if trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        c0 = _cpu()
        t0 = time.monotonic()
        rc = cylspec.cli.main(args)
        rec["run_s"] = time.monotonic() - t0
        rec["cpu_s"] = _cpu() - c0
        rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rec["layers"] = tracer.summary() if tracer else None
    rec["rc"] = rc
    with open(out, "w") as fh:
        json.dump(rec, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
