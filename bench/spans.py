"""Span tracer for the traced benchmark run.

Wraps public functions of the `cylspec` modules where their callers look
them up, so nothing in the package changes.  Each thread keeps its own
span stack, so mode solves on `--jobs 2` pool threads nest under their
own parents.  A span records wall time (perf_counter) and the calling
thread's CPU time (thread_time); busy time is the CPU, wait time is wall
minus CPU, and self time is wall minus the wall of direct child spans.
Spans stay in memory and are summarised once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

import numpy as np


def _size(args, kwargs):
    return int(np.size(args[1]))


def _rows(args, kwargs):
    return len(args[0])


# (span name, owner of the name the caller looks up, attribute, work count)
TARGETS = (
    ("cross_section.build_spectrum", "cylspec.cli", "build_spectrum", None),
    ("profiles.essential_bounds", "cylspec.cli", "essential_bounds", None),
    ("profiles.essential_bounds", "cylspec.assembly", "essential_bounds", None),
    ("profiles.essential_bounds", "cylspec.liouville", "essential_bounds", None),
    ("liouville.build_transform", "cylspec.cli", "build_transform", None),
    ("liouville.build_transform", "cylspec.assembly", "build_transform", None),
    ("liouville.inverse", "cylspec.liouville:LiouvilleData", "inverse", _size),
    ("liouville.values", "cylspec.liouville:ModePotential", "values", _size),
    ("liouville.values", "cylspec.liouville:ModePotential", "__call__", _size),
    ("schrodinger.bound_states", "cylspec.assembly", "bound_states", None),
    ("schrodinger.count_below", "cylspec.schrodinger", "count_below", None),
    ("schrodinger.eigh_tridiagonal", "cylspec.schrodinger", "eigh_tridiagonal", _rows),
    ("schrodinger.band_structure", "cylspec.assembly", "band_structure", None),
    ("schrodinger.discriminant", "cylspec.schrodinger", "discriminant", _size),
    ("schrodinger.solve_ivp", "cylspec.schrodinger", "solve_ivp", None),
    ("weighted_operator.weighted_eigenvalues", "cylspec.cli", "weighted_eigenvalues", None),
    ("assembly.run_analysis", "cylspec.cli", "run_stabilizing_analysis", None),
    ("assembly.run_analysis", "cylspec.cli", "run_periodic_analysis", None),
    ("assembly.finite_gap_certificate", "cylspec.cli", "finite_gap_certificate", None),
    ("cli.dumps_canonical", "cylspec.cli", "dumps_canonical", None),
)

# spans whose thread CPU is the per-mode solve work of the assembly pool
MODE_SOLVES = ("schrodinger.bound_states", "schrodinger.band_structure")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, wall, cpu, child_wall, items)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, items=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]  # wall time of direct children
            stack.append(frame)
            w0 = time.perf_counter()
            c0 = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu = time.thread_time() - c0
                wall = time.perf_counter() - w0
                stack.pop()
                if stack:
                    stack[-1][0] += wall
                n = items(args, kwargs) if items else 0
                self.spans.append((name, wall, cpu, frame[0], n))

        return traced

    def install(self):
        for name, owner, attr, items in TARGETS:
            mod, _, cls = owner.partition(":")
            target = importlib.import_module(mod)
            if cls:
                target = getattr(target, cls)
            setattr(target, attr, self.wrap(name, getattr(target, attr), items))

    def summary(self) -> dict:
        """Per span name: calls, wall, cpu, self, items, single-item calls."""
        out: dict[str, dict] = {}
        for name, wall, cpu, child, n in self.spans:
            s = out.setdefault(
                name, {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0, "self_s": 0.0, "items": 0, "single_calls": 0}
            )
            s["calls"] += 1
            s["wall_s"] += wall
            s["cpu_s"] += cpu
            s["self_s"] += wall - child
            s["items"] += n
            s["single_calls"] += n == 1
        return out
