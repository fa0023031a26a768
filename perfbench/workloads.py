"""The three workloads: seeded inputs, the timed operations and their checks.

Each workload's ``prepare(seed, index, workdir, ref)`` runs inside a fresh
child process, after the package import, and returns the list of operations
of one task.  An operation is a thunk that calls the public library API and a
check that judges its result afterwards, outside the timed region.  Inputs
depend only on the seed and the child's index within the run, so children of
one run draw different but equally sized inputs.

Random inputs are stratified: the candidate pool is cut into as many sorted
strata as the task has operations and one member is drawn per stratum.  The
cost of a task then hardly depends on the seed, which keeps run-to-run spread
down to the machine's own noise.
"""

import hashlib
import importlib
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

# importlib, not attribute access: the package attribute circleforge.scan is
# the re-exported function, not the module
arcints = importlib.import_module("circleforge.arcints")
arcs = importlib.import_module("circleforge.arcs")
moments = importlib.import_module("circleforge.moments")
repcount = importlib.import_module("circleforge.repcount")
scanmod = importlib.import_module("circleforge.scan")
sseries = importlib.import_module("circleforge.sseries")

SCAN_X = 10**6
SCAN_W = 1000
SCAN_CHECKS = 16
PREDICT_W = 1000
PREDICT_OPS = 25
ORACLE_MODULI = 20
ORACLE_TARGETS = 8
ORACLE_Q_RANGE = (1000, 6000)
SHIFT_P3 = 2000
SHIFT_COUNT = 500
PRUNED_SAMPLE = 100

# contract tolerances (acceptance criteria 3, 4 and 8)
SERIES_TOL = 1e-8
DIVISOR_SUM_TOL = 1e-8
ARC_REL_CHANGE_TOL = 0.01
PRUNED_REL_CHANGE_TOL = 0.02
SINGULAR_CLOSED_FORM_TOL = 0.10


@dataclass
class Op:
    kind: str                       # ops of the workload's latency kind feed op_p50/op_p90
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    layers: Callable[[Any], dict] | None = None  # per-layer figures read off the result


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _stratified(pool, strata: int, seed: int, index: int) -> list:
    """One member per stratum of the sorted pool; child `index` of run `seed`
    takes the index-th entry of a seeded permutation of each stratum, so the
    children of one run draw distinct members while the pool allows it."""
    items = sorted(pool)
    run_rng = np.random.default_rng(seed)
    picks = []
    for j in range(strata):
        chunk = items[j * len(items) // strata : (j + 1) * len(items) // strata]
        order = run_rng.permutation(len(chunk))
        picks.append(chunk[order[index % len(chunk)]])
    return picks


def _prime_powers(lo: int, hi: int) -> list[tuple[int, int, int]]:
    """(p, h, p**h) for lo <= p**h <= hi, by a sieve independent of the library."""
    sieve = np.ones(hi + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(hi) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    out = []
    for p in np.flatnonzero(sieve).tolist():
        q, h = p, 1
        while q <= hi:
            if q >= lo:
                out.append((p, h, q))
            q, h = q * p, h + 1
    return sorted(out, key=lambda t: t[2])


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def prepare_scan(seed, index, workdir, ref):
    cache_dir = os.path.join(workdir, "spectra")
    os.makedirs(cache_dir, exist_ok=True)
    # fill the spectrum cache the way a first CLI scan leaves it, so the
    # timed scan reads it
    repcount._cached_pair_spectrum(2, math.isqrt(SCAN_X), cache_dir)
    targets = sorted(int(n) for n in _rng(seed, index).integers(6, SCAN_X + 1, SCAN_CHECKS))
    psi = scanmod.PsiSpec.parse("log")

    def run():
        return scanmod.scan(SCAN_X, psi, SCAN_W, cache_dir=cache_dir)

    def check(report):
        # R(n) against the independent meet-in-the-middle path, S_W and its
        # tail against the multiplicative point evaluation
        ok = not report.counts[:6].any()
        for n in targets:
            point = sseries.truncated_singular_series(n, SCAN_W)
            ok &= int(report.counts[n]) == repcount.rep_count_single(n)
            ok &= _close(float(report.series[n]), point.value, SERIES_TOL)
            ok &= _close(float(report.tails[n]), point.tail_estimate, SERIES_TOL)
        return bool(ok)

    return [Op("scan", run, check)] + _oracle_ops(seed, index, ref)


def prepare_predict(seed, index, workdir, ref):
    pool = [tuple(row) for row in ref["predict"]["rows"]]
    rows = _stratified(pool, PREDICT_OPS, seed, index)
    _rng(seed, index).shuffle(rows)
    ops = []
    for n, R, S_W, tail in rows:
        def check(rec, R=R, S_W=S_W, tail=tail):
            return (
                rec.R == R
                and _close(rec.S_W, S_W, SERIES_TOL)
                and _close(rec.tail_estimate, tail, SERIES_TOL)
            )

        ops.append(Op("predict", lambda n=n: scanmod.predict(n, PREDICT_W), check))
    return ops


def _divisor_sum_gap(p: int, h: int, q: int, targets) -> float:
    """Worst |sum_{d|q} A(d; n) - M_n(q) / q^5| over the targets."""
    worst = 0.0
    for n in targets:
        count = sseries.congruence_count(q, n).count
        lhs = sum(sseries.series_term(p**j, n).value for j in range(h + 1))
        worst = max(worst, abs(lhs - count / q**5))
    return worst


def _total_mass(q: int) -> int:
    """sum_n M_n(q): exactly q^6, one per 6-tuple of residues.  The divisor-sum
    gap divides M_n(q) by q^5, so it cannot see a count that is off by a few."""
    return sum(sseries.congruence_count(q, n).count for n in range(q))


def _moment_ops(seed, index, ref):
    expect = ref["moments"]
    shifts = [int(v) for v in _rng(seed, index).choice(10**7, SHIFT_COUNT, replace=False)]

    def multiplicity_digest(ms):
        return [len(ms.members), ms.max_multiplicity,
                hashlib.blake2b(np.asarray(ms.members, dtype="<i8").tobytes()).hexdigest()]

    def shifted_brute():
        # sum over values v of (#{(x, s): x^3 + s = v})^2, by plain counting
        cubes = np.arange(1, SHIFT_P3 + 1, dtype=np.int64) ** 3
        values = (cubes[:, None] + np.asarray(shifts, dtype=np.int64)[None, :]).ravel()
        _, mult = np.unique(values, return_counts=True)
        return int(np.dot(mult, mult))

    return [
        Op("moment", lambda: moments.sixth_power_eighth_moment(100),
           lambda r: r.count == expect["sixth_power_eighth_moment_100"]),
        Op("moment", lambda: moments.cube_multiplicity(3000),
           lambda r: multiplicity_digest(r) == expect["cube_multiplicity_3000"]),
        Op("moment", lambda: moments.count_cube_sixth_correlation(10**8),
           lambda r: [r.count, r.parts] == expect["count_cube_sixth_correlation_1e8"]),
        Op("moment", lambda: moments.shifted_cube_correlation(SHIFT_P3, shifts),
           lambda r: r.count == shifted_brute()),
    ]


def _oracle_ops(seed, index, ref):
    """Criterion-3 congruence oracles on stratified prime powers, then the
    criterion-7 moment counts."""
    moduli = _stratified(_prime_powers(*ORACLE_Q_RANGE), ORACLE_MODULI, seed, index)
    rng = _rng(seed, index)
    rng.shuffle(moduli)
    ops = []
    for p, h, q in moduli:
        targets = [int(n) for n in rng.integers(1, 10**6, ORACLE_TARGETS)]
        ops.append(Op("modulus", lambda p=p, h=h, q=q, t=targets: _divisor_sum_gap(p, h, q, t),
                      lambda gap, q=q: gap <= DIVISOR_SUM_TOL and _total_mass(q) == q**6))
    return ops + _moment_ops(seed, index, ref)


def quadrature_margin(result) -> float:
    """Worst grid-halving rel_change of a quadrature result over its contract tolerance."""
    if isinstance(result, arcints.SingularIntegral):
        return result.rel_change / ARC_REL_CHANGE_TOL
    if isinstance(result, arcints.MajorArcIntegral):
        return max(result.value_rel_change, result.approx_rel_change) / ARC_REL_CHANGE_TOL
    return max(result.raw_rel_change, result.square_majorant_rel_change,
               result.cubic_approx_rel_change) / PRUNED_REL_CHANGE_TOL


_INTEGRALS = {
    arcints.SingularIntegral: "singular_integral",
    arcints.MajorArcIntegral: "major_arc_integral",
    arcints.PrunedDiagnostic: "pruned_integral_diagnostic",
}


def quadrature_layers(results) -> dict:
    """Grid points and contract margin of each quadrature result in the tuple."""
    out = {}
    for result in results:
        key = _INTEGRALS[type(result)]
        out[f"arcints.{key}.grid_points"] = result.grid_points
        out[f"arcints.{key}.rel_change_margin"] = quadrature_margin(result)
    return out


def prepare_quadrature(seed, index, workdir, ref):
    members = _rng(seed, index).choice(np.arange(1, 10**4 + 1), PRUNED_SAMPLE, replace=False)
    sample = arcs.ExceptionalSample(members=tuple(int(v) for v in members))

    # one operation, the three integrals: with one op per integral, the
    # median would jump between integrals as the task count per run varies
    def run():
        return (
            arcints.singular_integral(10**4, 10**4, 50),
            arcints.major_arc_integral(5000, 10**4, 6),
            arcints.pruned_integral_diagnostic(10**4, 16, sample),
        )

    def check(results):
        si = results[0]
        closed_form_gap = abs(si.value - si.reference)
        return (all(quadrature_margin(r) <= 1 for r in results)
                and closed_form_gap <= SINGULAR_CLOSED_FORM_TOL * si.reference)

    return [Op("quadrature", run, check, quadrature_layers)]


# workload -> (prepare, kind whose latencies make op_p50/op_p90, dominant layers)
WORKLOADS = {
    "scan": (prepare_scan, "scan", ("exactconv.exact_convolve", "sseries.series_batch",
                                    "exactconv.cyclic_histogram_convolution")),
    "predict": (prepare_predict, "predict", ("repcount.rep_count_single",)),
    "quadrature": (prepare_quadrature, "quadrature", ("arcs.weyl_integral_batch",)),
}
