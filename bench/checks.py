"""Independent checks of `cylspec run` outputs.

Uses numpy and scipy only and never imports cylspec, so a fault in the
package cannot hide itself here.  Each check raises CheckError with the
first disagreement found.

- Budget: rectangle levels pi^2 (m^2 + n^2) are enumerated here and
  compared with the report's budget, mode groups and thresholds.
- Stabilizing modes: -(p'/a)' + (c/a) p = E w p is solved in the
  original axial variable z by a flux-form finite-difference scheme
  (a = eps, w = mu for electric modes, swapped for magnetic ones) on
  grids n and 2n with Richardson extrapolation.
- Periodic modes: the one-period transfer matrix of p' = a q,
  q' = (c/a - E w) p is integrated in z; its trace is the discriminant
  Delta(E) of the transformed equation because the gauge is periodic.
- Properties the method must have: exact Maxwell negation symmetry,
  energies in [lower_bound, threshold), `embedded` and
  `outside_support` flags, route deviations within the program's own
  tolerances, the free band-edge pattern and the gap certificate.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.linalg import eigh_tridiagonal

PI2 = math.pi**2

# Relative agreement required between the finite-difference route and
# the reported bound states.
FD_REL_TOL = 1e-3
# The package's own tolerances: oracle deviation (acceptance test) and
# band-edge cross-validation (`band_structure` cross_tol).
ORACLE_REL_TOL = 1e-3
EDGE_CROSS_TOL = 1e-6
# Transfer-matrix integration tolerance, and the resulting bound on the
# error of Delta(E): the steps' local errors add up over one period and
# the transfer matrix is O(1) at the energies checked.
IVP_RTOL = 1e-12
DELTA_TOL = 1e-9


class CheckError(Exception):
    """An output of the program disagrees with an independent check."""


def _require(cond, msg: str):
    if not cond:
        raise CheckError(msg)


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# coefficient profiles, evaluated from the config
# ---------------------------------------------------------------------------


class Family:
    """f(z), f'(z) and sup f of one profile family from its config."""

    def __init__(self, doc: dict):
        self.doc = doc
        kind = doc["family"]
        if kind not in ("constant", "sech2_bump", "cosine_periodic"):
            raise CheckError(f"no independent model of family {kind!r}")
        self.kind = kind

    def __call__(self, z):
        d = self.doc
        if self.kind == "constant":
            return d["value"] + 0.0 * np.asarray(z, dtype=float)
        if self.kind == "sech2_bump":
            u = (np.asarray(z, dtype=float) - d["center"]) / d["width"]
            return d["base"] + d["amplitude"] / np.cosh(u) ** 2
        return d["mean"] + d["amplitude"] * np.cos(2.0 * math.pi * np.asarray(z, dtype=float) / d["period"])

    def deriv(self, z):
        d = self.doc
        if self.kind == "constant":
            return 0.0 * np.asarray(z, dtype=float)
        if self.kind == "sech2_bump":
            u = (np.asarray(z, dtype=float) - d["center"]) / d["width"]
            return -2.0 * d["amplitude"] * np.tanh(u) / np.cosh(u) ** 2 / d["width"]
        k = 2.0 * math.pi / d["period"]
        return -d["amplitude"] * k * np.sin(k * np.asarray(z, dtype=float))

    def sup(self) -> float:
        d = self.doc
        if self.kind == "constant":
            return d["value"]
        if self.kind == "sech2_bump":
            return d["base"] + max(0.0, d["amplitude"])
        return d["mean"] + abs(d["amplitude"])

    def limit(self) -> float:
        return self.doc["value"] if self.kind == "constant" else self.doc["base"]


def _coefficients(config: dict, flavor: str):
    """(a, w) of the axial problem: flux coefficient and weight."""
    eps = Family(config["profile"]["epsilon"])
    mu = Family(config["profile"]["mu"])
    return (mu, eps) if flavor == "m" else (eps, mu)


# ---------------------------------------------------------------------------
# budget and mode groups
# ---------------------------------------------------------------------------


def _rectangle_levels(section: dict, count: int, lowest: int) -> list[float]:
    # the `count` lowest levels all have m, n <= count
    w, h = section["width"], section["height"]
    levels = [
        PI2 * (m * m / w**2 + n * n / h**2)
        for m in range(lowest, count + 1)
        for n in range(lowest, count + 1)
    ]
    return sorted(levels)[:count]


def _transverse(section: dict) -> tuple[list[float], list[float]]:
    if section["kind"] == "rectangle":
        return (
            _rectangle_levels(section, section["dirichlet_count"], 1),
            _rectangle_levels(section, section["neumann_count"], 0),
        )
    if section["kind"] == "synthetic":
        return list(section["dirichlet"]), list(section["neumann"])
    raise CheckError(f"no independent model of cross-section {section['kind']!r}")


def product_sup(config: dict) -> float:
    eps = Family(config["profile"]["epsilon"])
    mu = Family(config["profile"]["mu"])
    if "constant" not in (eps.kind, mu.kind):
        raise CheckError("product bound needs one constant coefficient")
    return eps.sup() * mu.sup()


def expected_groups(config: dict) -> list[tuple[str, float, tuple[int, ...]]]:
    """(flavor, mode constant, 1-based transverse indices), report order."""
    cut = config["numerics"]["e_max"] * product_sup(config)
    dirichlet, neumann = _transverse(config["cross_section"])
    _require(dirichlet[-1] > cut and neumann[-1] > cut, "budget cut reaches the last level")
    # equal levels come out of identical arithmetic, so they group exactly
    groups: dict[tuple[str, float], list[int]] = {}
    for flavor, levels, first in (("el", dirichlet, 0), ("m", neumann, 1)):
        for i, v in enumerate(levels[first:], start=first + 1):
            if v <= cut:
                groups.setdefault((flavor, v), []).append(i)
    out = [(f, v, tuple(ix)) for (f, v), ix in groups.items()]
    out.sort(key=lambda g: (g[1], g[0]))
    return out


def check_budget(config: dict, report: dict):
    psup = product_sup(config)
    budget = report["budget"]
    _require(_close(budget["product_sup"], psup), f"product_sup {budget['product_sup']} != {psup}")
    groups = expected_groups(config)
    modes = report["modes"]
    _require(len(modes) == len(groups), f"{len(modes)} mode groups reported, {len(groups)} expected")
    el = [v for f, v, ix in groups for _ in ix if f == "el"]
    mag = [v for f, v, ix in groups for _ in ix if f == "m"]
    for got, want, label in (
        (budget["electric_constants"], el, "electric"),
        (budget["magnetic_constants"], mag, "magnetic"),
    ):
        _require(
            len(got) == len(want) and all(_close(a, b) for a, b in zip(got, want)),
            f"{label} constants in budget differ from the enumerated levels",
        )
    prof = config["profile"]
    for m, (flavor, c, ix) in zip(modes, groups):
        tag = f"mode {flavor}/{c:.6g}"
        _require(m["flavor"] == flavor and _close(m["mode_constant"], c), f"{tag}: reported as "
                 f"{m['flavor']}/{m['mode_constant']:.6g}")
        _require(m["multiplicity"] == len(ix) and tuple(m["indices"]) == ix, f"{tag}: wrong indices")
        _require(_close(m["lower_bound"], c / psup), f"{tag}: lower_bound {m['lower_bound']}")
        if "threshold" in m:
            limit = Family(prof["epsilon"]).limit() * Family(prof["mu"]).limit()
            _require(_close(m["threshold"], c / limit), f"{tag}: threshold {m['threshold']}")


# ---------------------------------------------------------------------------
# stabilizing route: finite differences in z
# ---------------------------------------------------------------------------


def _fd_eigs(a, w, c: float, half: float, n: int, count: int) -> np.ndarray:
    z = np.linspace(-half, half, n + 1)
    h = 2.0 * half / n
    flux = 1.0 / a(0.5 * (z[:-1] + z[1:]))
    zi = z[1:-1]
    diag = (flux[:-1] + flux[1:]) / (h * h) + c / a(zi)
    off = -flux[1:-1] / (h * h)
    s = 1.0 / np.sqrt(w(zi))
    return eigh_tridiagonal(
        diag * s * s, off * s[:-1] * s[1:], eigvals_only=True, select="i", select_range=(0, count - 1)
    )


def fd_eigenvalues(config: dict, flavor: str, c: float, half: float, count: int, n: int = 8000):
    """Lowest `count` eigenvalues, Richardson-extrapolated from n and 2n."""
    a, w = _coefficients(config, flavor)
    coarse = _fd_eigs(a, w, c, half, n, count)
    fine = _fd_eigs(a, w, c, half, 2 * n, count)
    return fine + (fine - coarse) / 3.0


def check_bound_states(config: dict, report: dict):
    """Lowest <= 3 energies of the lowest electric, the lowest magnetic and
    the highest-constant binding mode against finite differences."""
    modes = report["modes"]
    picked = []
    for flavor in ("el", "m"):
        of = [m for m in modes if m["flavor"] == flavor]
        if of:
            picked.append(min(of, key=lambda m: m["mode_constant"]))
    binding = [m for m in modes if m["eigenvalues"]]
    if binding:
        picked.append(max(binding, key=lambda m: m["mode_constant"]))
    for m in picked:
        got = m["eigenvalues"][:3]
        thr = m["threshold"]
        fd = fd_eigenvalues(config, m["flavor"], m["mode_constant"], m["window_halfwidth"], len(got) + 1)
        tag = f"mode {m['flavor']}/{m['mode_constant']:.6g}"
        for i, (e, ref) in enumerate(zip(got, fd)):
            rel = abs(e - ref) / abs(ref)
            _require(rel <= FD_REL_TOL, f"{tag}: state {i + 1} at {e:.10g}, finite differences "
                     f"give {ref:.10g} (rel {rel:.2e})")
        if len(got) < 3:
            # no state the report left out: the next one sits at the edge
            nxt = fd[len(got)]
            _require(nxt >= thr * (1.0 - FD_REL_TOL), f"{tag}: finite differences find a state "
                     f"at {nxt:.10g} below the threshold {thr:.10g} that the report lacks")


def check_stabilizing_properties(report: dict):
    e_max = report["e_max"]
    modes = report["modes"]
    thresholds = [m["threshold"] for m in modes]
    expected_points = []
    for k, m in enumerate(modes):
        tag = f"mode {m['flavor']}/{m['mode_constant']:.6g}"
        min_other = min((t for j, t in enumerate(thresholds) if j != k), default=math.inf)
        for e in m["eigenvalues"]:
            _require(m["lower_bound"] <= e < m["threshold"], f"{tag}: energy {e} outside "
                     f"[{m['lower_bound']}, {m['threshold']})")
            if e <= e_max:
                expected_points.append((e, m["mode_constant"], m["flavor"], e >= min_other,
                                        all(e < t for t in thresholds)))
    expected_points.sort()
    pts = report["squared_points"]
    _require(len(pts) == len(expected_points), f"{len(pts)} squared points, the modes hold "
             f"{len(expected_points)} energies <= e_max")
    for p, (e, c, f, embedded, outside) in zip(pts, expected_points):
        _require((p["energy"], p["mode_constant"], p["flavor"]) == (e, c, f),
                 f"squared point {p['energy']} does not match mode energy {e}")
        _require(p["embedded"] == embedded, f"point {e}: embedded is {p['embedded']}, "
                 f"the smallest other threshold says {embedded}")
        _require(p["outside_support"] == outside, f"point {e}: outside_support is wrong")
    oracle = report.get("oracle")
    if oracle is not None:
        dev = oracle["max_rel_deviation"]
        _require(dev <= ORACLE_REL_TOL, f"oracle deviation {dev:.3e} > {ORACLE_REL_TOL}")


def check_maxwell(report: dict):
    """First-order spectrum: exact negation symmetry and sqrt of the squared one."""
    sup = [tuple(iv) for iv in report["maxwell_support"]]
    n = len(sup)
    for i in range(n):
        lo, hi = sup[i]
        _require((lo, hi) == (-sup[n - 1 - i][1], -sup[n - 1 - i][0]),
                 f"maxwell support interval {sup[i]} has no exact mirror")
    squared = report["squared_support"]
    if squared and squared[0][0] > 0:
        half = [iv for iv in sup if iv[0] >= 0]
        roots = [(math.sqrt(a), math.sqrt(b)) for a, b in squared]
        _require(half == roots, "maxwell support is not the square root of the squared support")
    roots = sorted(math.sqrt(max(p["energy"], 0.0)) for p in report["squared_points"])
    _require(report["maxwell_points"] == sorted([-r for r in roots] + roots),
             "maxwell points are not the exact +- square roots of the squared points")


# ---------------------------------------------------------------------------
# periodic route: transfer matrix in z
# ---------------------------------------------------------------------------


def _period(config: dict) -> float:
    prof = config["profile"]
    return max(prof[k].get("period", 0.0) for k in ("epsilon", "mu"))


def discriminant(config: dict, flavor: str, c: float, energies) -> np.ndarray:
    """Trace of the one-period transfer matrix of p' = a q, q' = (c/a - E w) p."""
    a, w = _coefficients(config, flavor)
    period = _period(config)
    es = np.atleast_1d(np.asarray(energies, dtype=float))
    k = es.size

    def rhs(z, s):
        av = float(a(z))
        g = c / av - es * float(w(z))
        s = s.reshape(4, k)
        return np.concatenate((av * s[1], g * s[0], av * s[3], g * s[2]))

    s0 = np.concatenate((np.ones(k), np.zeros(k), np.zeros(k), np.ones(k)))
    sol = solve_ivp(rhs, (0.0, period), s0, method="DOP853", rtol=IVP_RTOL, atol=IVP_RTOL)
    _require(sol.success, f"transfer-matrix integration failed: {sol.message}")
    p1, q1, p2, q2 = sol.y[:, -1].reshape(4, k)
    det = p1 * q2 - p2 * q1
    _require(float(np.max(np.abs(det - 1.0))) <= DELTA_TOL, "checker transfer matrix lost det = 1")
    return p1 + q2


def _period_and_mean(config: dict, flavor: str, c: float) -> tuple[float, float]:
    """Travel time b of one period and the mean of the transformed potential.

    With eta = (eps'/eps - mu'/mu) / (4 sqrt(eps mu)) the potential is
    eta^2 -+ d eta/dy + c / (eps mu); the derivative term averages to zero
    over a period and dy = sqrt(eps mu) dz.
    """
    eps = Family(config["profile"]["epsilon"])
    mu = Family(config["profile"]["mu"])
    period = _period(config)

    def speed(z):
        return math.sqrt(float(eps(z)) * float(mu(z)))

    def eta2(z):
        eta = 0.25 * (float(eps.deriv(z)) / float(eps(z)) - float(mu.deriv(z)) / float(mu(z))) / speed(z)
        return eta * eta * speed(z)

    opts = {"epsabs": 1e-14, "epsrel": 1e-13, "limit": 200}
    b = quad(speed, 0.0, period, **opts)[0]
    total = quad(eta2, 0.0, period, **opts)[0] + c * quad(lambda z: 1.0 / speed(z), 0.0, period, **opts)[0]
    return b, total / b


def check_periodic_mode(config: dict, mode: dict, e_max: float):
    """Band edges, band and gap midpoints against the checker's Delta."""
    flavor, c = mode["flavor"], mode["mode_constant"]
    tag = f"mode {flavor}/{c:.6g}"
    b, mean = _period_and_mean(config, flavor, c)
    _require(_close(mode["period"], b, 1e-10), f"{tag}: period {mode['period']} != {b}")
    _require(_close(mode["mean_potential"], mean, 1e-8), f"{tag}: mean potential "
             f"{mode['mean_potential']} != {mean}")
    dev = mode["validation_max_dev"]
    _require(dev <= EDGE_CROSS_TOL, f"{tag}: route deviation {dev:.3e} > {EDGE_CROSS_TOL}")
    bands = [tuple(x) for x in mode["bands"]]
    gaps = [tuple(x) for x in mode["gaps"]]
    unresolved = [tuple(x) for x in mode["unresolved_gaps"]]
    if not bands:
        return
    _require(bands[0][0] >= mode["lower_bound"], f"{tag}: band below lower_bound")
    edges = sorted({e for iv in bands for e in iv if e != e_max})
    band_mids = [0.5 * (lo + hi) for lo, hi in bands]
    band_mids = [e for e in band_mids if not any(lo - 1e-6 <= e <= hi + 1e-6 for lo, hi in unresolved)]
    gap_mids = [0.5 * (lo + hi) for lo, hi in gaps]
    closed = mode["closed_gap_points"]
    probe = np.array(edges + band_mids + gap_mids + closed)
    d = np.abs(discriminant(config, flavor, c, probe))
    ne, nb, ng = len(edges), len(band_mids), len(gap_mids)
    for e, x in zip(edges, d[:ne]):
        _require(abs(x - 2.0) <= DELTA_TOL, f"{tag}: |Delta| = {x:.12f} at band edge {e!r}")
    for e, x in zip(band_mids, d[ne : ne + nb]):
        _require(x < 2.0, f"{tag}: |Delta| = {x:.12f} >= 2 at band midpoint {e!r}")
    for e, x in zip(gap_mids, d[ne + nb : ne + nb + ng]):
        _require(x > 2.0, f"{tag}: |Delta| = {x:.12f} <= 2 at gap midpoint {e!r}")
    for e, x in zip(closed, d[ne + nb + ng :]):
        # the program reports a closure where |Delta| peaks within 1e-8 of 2
        _require(abs(x - 2.0) <= 1e-8 + DELTA_TOL, f"{tag}: |Delta| = {x:.12f} at closed gap {e!r}")


def check_free_pattern(mode: dict, min_edges: int = 20):
    """At least `min_edges` eigenvalue band edges, closing in on
    pi^2 (n-1)^2 / b^2 + w (lower) and pi^2 n^2 / b^2 + w (upper)."""
    pairs = mode["eigenvalue_band_edges"]
    _require(2 * len(pairs) >= min_edges, f"{2 * len(pairs)} eigenvalue band edges, "
             f"at least {min_edges} expected")
    b, w = mode["period"], mode["mean_potential"]
    dev = [
        max(abs(lo - (math.pi * (n - 1) / b) ** 2 - w), abs(hi - (math.pi * n / b) ** 2 - w))
        for n, (lo, hi) in enumerate(pairs, start=1)
    ]
    _require(max(dev[-3:]) <= 1e-2 * max(dev[:3]), f"band edges do not approach the free "
             f"pattern: deviation {max(dev[:3]):.3g} on the first bands, {max(dev[-3:]):.3g} on the last")


def check_certificate(config: dict, report: dict):
    cert = report.get("finite_gap_certificate")
    _require(cert is not None and cert["verified"], f"certificate not verified: {cert and cert['reason']}")
    _require(cert["delta"] > cert["max_edge_deviation"], "certificate slack is not positive")
    el = sorted((m for m in report["modes"] if m["flavor"] == "el"), key=lambda m: m["mode_constant"])[:2]
    grid = np.linspace(cert["coverage_start"], cert["e_max"], 241)
    d = np.minimum(*(np.abs(discriminant(config, "el", m["mode_constant"], grid)) for m in el))
    bad = grid[d > 2.0 + DELTA_TOL]
    _require(bad.size == 0, f"energy {bad[0] if bad.size else 0:.6f} in [K, e_max] lies in a gap "
             f"of both lowest electric modes")


def check_periodic(config: dict, report: dict, *, pattern: bool = False, certificate: bool = False):
    e_max = report["e_max"]
    for m in report["modes"]:
        check_periodic_mode(config, m, e_max)
    union = sorted(tuple(iv) for m in report["modes"] for iv in m["bands"])
    _require(all(any(lo >= a and hi <= b for a, b in report["squared_support"]) for lo, hi in union),
             "a band lies outside the reported support")
    if pattern:
        check_free_pattern(report["modes"][0])
    if certificate:
        check_certificate(config, report)


def check_report(kind: str, config: dict, report: dict):
    """All checks for one operation's report.

    kind is "stabilizing", "periodic", "sweep" (periodic plus the free
    band-edge pattern) or "fault" (the reproducer, once it returns a
    report: periodic, and mode el/51 has no bands).
    """
    check_budget(config, report)
    check_maxwell(report)
    if kind == "stabilizing":
        check_stabilizing_properties(report)
        check_bound_states(config, report)
        return
    check_periodic(
        config,
        report,
        pattern=kind == "sweep",
        certificate=bool(config["numerics"].get("finite_gap_certificate")),
    )
    if kind == "fault":
        fault = [m for m in report["modes"] if m["mode_constant"] == 51.0]
        _require(len(fault) == 1 and not fault[0]["bands"], "mode el/51 should have no bands")
