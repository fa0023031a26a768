import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from circleforge.arcs import (
    ExceptionalSample,
    _least_peak_arc,
    classify_arc,
    exceptional_sum,
    exceptional_sum_grid,
    major_arc_approx,
    peak_majorant,
    weyl_integral,
    weyl_integral_batch,
    weyl_sum,
)
import circleforge
from circleforge import arcints, arcs
from circleforge.arcints import (
    major_arc_error_survey,
    major_arc_integral,
    peak_majorant_survey,
    pruned_integral_diagnostic,
    singular_integral,
    weyl_sum_grid,
)
from circleforge.errors import BudgetError, PreconditionError
from circleforge.powersums import leading_constant

from oracles import (
    dissect_midpoints,
    exceptional_sum_direct,
    exceptional_sum_exact_phases,
    exceptional_sum_float_phases,
    least_peak_arc_scan,
    quad_nodes_per_segment,
    two_density_two_calls,
    weyl_direct,
    weyl_integral_adaptive,
    weyl_integral_midpoint,
)


def test_weyl_sum_trivial_and_parity():
    assert weyl_sum(2, 137, 0) == 137
    assert abs(weyl_sum(2, 10, Fraction(1, 2))) < 1e-12
    assert weyl_sum(2, 11, Fraction(1, 2)) == pytest.approx(-1, abs=1e-12)
    with pytest.raises(PreconditionError):
        weyl_sum(2, 10, 1.5)
    with pytest.raises(PreconditionError):
        weyl_sum(2, 10, -0.25)


def test_weyl_sum_against_direct():
    assert weyl_sum(6, 10, Fraction(1, 3)) == pytest.approx(
        weyl_direct(6, 10, 1, 3), abs=1e-9
    )
    rng = np.random.default_rng(3)
    for _ in range(12):
        q = int(rng.integers(2, 500))
        a = int(rng.integers(0, q))
        k = int(rng.choice([2, 3, 6]))
        P = int(rng.integers(5, 400))
        assert weyl_sum(k, P, Fraction(a, q)) == pytest.approx(
            weyl_direct(k, P, a, q), abs=1e-8
        )


def test_weyl_sum_float_and_fraction_agree():
    # a float is evaluated at its exact dyadic value; at small P the phase
    # perturbation from the decimal-to-binary step is negligible
    for k, P, a, q in ((2, 50, 3, 7), (3, 40, 5, 11), (6, 8, 2, 9)):
        exact = weyl_sum(k, P, Fraction(a, q))
        dyadic = weyl_sum(k, P, a / q)
        assert abs(exact - dyadic) < 1e-6


def test_weyl_sum_periodicity_in_representation():
    # same rational in reduced and unreduced form
    assert weyl_sum(3, 60, Fraction(25, 100)) == pytest.approx(
        weyl_sum(3, 60, Fraction(1, 4)), abs=1e-12
    )


def test_weyl_sum_huge_denominator_path():
    # subnormal-scale floats route through the big-integer fallback
    tiny = 2.0**-80
    assert weyl_sum(2, 50, tiny) == pytest.approx(50, abs=1e-6)
    assert weyl_sum(6, 20, Fraction(1, 2**70 + 1)) == pytest.approx(20, abs=1e-6)


def test_weyl_integral_basics():
    assert weyl_integral(2, 100, 0.0) == 100
    beta = 7e-3
    v = weyl_integral(2, 100, beta)
    assert abs(v - weyl_integral_midpoint(2, 100, beta)) <= 1e-6 * 100
    assert weyl_integral(2, 100, -beta) == v.conjugate()
    # 10^13 cycles: V(z) = Gamma(7/6) (-i z)^(-1/6) + O(1/z), and 100/(6z) < 3e-13
    z = 2 * math.pi * 10.0 * 100.0**6
    lead = 100 * math.gamma(7 / 6) * complex(-1j * z) ** (-1 / 6)
    assert abs(weyl_integral(6, 100, 10.0) - lead) <= 4e-13 * 100


def test_weyl_integral_batch_matches_scalar():
    # each offset is evaluated alone, so a batch entry is the scalar's bits;
    # the offsets reach both sides of the series/fraction switch at z = 8
    betas = np.array([1e-4, -3e-3, 2e-2, 0.0, 8 / (2 * np.pi * 3600), -0.5, 1e-300])
    got = weyl_integral_batch(2, 60, betas)
    for b, g in zip(betas, got):
        assert g == weyl_integral(2, 60, float(b))


def test_weyl_integral_decay_guard():
    # |v2| <= 1.3 P (1 + |b| P^2)^(-1/2); observed supremum 0.46
    rng = np.random.default_rng(3)
    P = 100
    for b in rng.uniform(-1e-2, 1e-2, 30):
        if b == 0:
            continue
        bound = 1.3 * P * (1 + abs(b) * P * P) ** -0.5
        assert abs(weyl_integral(2, P, float(b))) <= bound


@settings(max_examples=20, deadline=None)
@given(
    k=st.sampled_from((2, 3, 6)),
    cycles=st.floats(1e-3, 300.0),
    size=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_weyl_integral_batch_matches_adaptive_loop(k, cycles, size, seed):
    # against the panel quadrature doubled until two estimates agree within
    # 1e-10 P, at up to 12 offsets of each batch
    P = 10 ** (4 / k)
    rng = np.random.default_rng(seed)
    betas = cycles / P**k * rng.uniform(-1.0, 1.0, size)
    got = weyl_integral_batch(k, P, betas)
    picked = rng.choice(size, min(size, 12), replace=False)
    ref = weyl_integral_adaptive(k, P, np.abs(betas[picked]), 1e-10)
    ref = np.where(betas[picked] < 0, np.conj(ref), ref)
    assert np.abs(got[picked] - ref).max() <= 1e-9 * P


# z = 2 pi |beta| P^k just below, at and just above the switch at z = 8; draws
# reach 10^6 cycles, and two examples 10^9 and 10^12
_SWITCH = 8 / (2 * math.pi)
_TOP = 1e6


@settings(max_examples=60, deadline=None)
@example(k=2, P=100, cycles=[_SWITCH * (1 - 1e-15), _SWITCH, _SWITCH * (1 + 1e-15)])
@example(k=6, P=10.0**(4 / 6), cycles=[0.0, _TOP])
@example(k=2, P=100, cycles=[1e9, 1e12])
@example(k=6, P=7.5, cycles=[1e9, 1e12])
@given(
    k=st.sampled_from((2, 3, 6)),
    P=st.one_of(st.integers(1, 10**4), st.floats(1.0, 1e4)),
    cycles=st.lists(st.one_of(st.floats(0.0, 2 * _SWITCH), st.floats(0.0, 300.0),
                              st.floats(0.0, _TOP)), min_size=1, max_size=5),
)
def test_weyl_integral_batch_within_stated_bound(k, P, cycles):
    # the docstring's bound, 4e-13 P, against the incomplete gamma function:
    # v_k(beta) = P s x^-s gamma(s, x), s = 1/k, x = -2 pi i beta P^k
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    signs = np.where(np.arange(len(cycles)) % 2, -1.0, 1.0)
    betas = signs * np.array(cycles) / float(P) ** k
    got = weyl_integral_batch(k, P, betas)
    s = mpmath.mpf(1) / k
    for beta, value in zip(betas, got):
        x = -2j * mpmath.pi * mpmath.mpf(float(beta)) * mpmath.mpf(P) ** k
        exact = mpmath.mpf(P) * (s * x**-s * mpmath.gammainc(s, 0, x) if x else 1)
        assert abs(value - complex(exact)) <= 4e-13 * P


def test_weyl_integral_batch_repeats_and_conjugates():
    rng = np.random.default_rng(5)
    for size in (5, 400):
        b = rng.uniform(0.0, 5e-3, size)
        got = weyl_integral_batch(2, 100, np.concatenate([b, b, -b, [0.0]]))
        assert np.array_equal(got[:size], got[size : 2 * size])
        assert np.array_equal(got[2 * size : 3 * size], np.conj(got[:size]))
        assert got[-1] == 100


def test_weyl_integral_preconditions():
    for k, P, betas in (
        (5, 10, [0.01]),
        (2, 0, [0.01]),
        (2, 0.5, [0.01]),
        (2, float("nan"), [0.01]),
        (2, 10, [np.nan]),
        (2, 10, [0.0, -np.inf]),
        (6, 10, [1e303]),  # z overflows
        (2, 1e200, [0.0]),  # P^k overflows
        (2, 10**400, [0.0]),  # P has no float
    ):
        with pytest.raises(PreconditionError):
            weyl_integral_batch(k, P, betas)
    with pytest.raises(PreconditionError):
        weyl_integral(2, 10, float("nan"))


def test_weyl_sum_grid_float_guard():
    # accepted up to P^k = 2^26, refused one step beyond
    alphas = np.array([0.0, 0.25])
    for k, P in ((2, 8192), (3, 406), (6, 20)):
        assert weyl_sum_grid(k, P, alphas)[0] == P
        with pytest.raises(BudgetError):
            weyl_sum_grid(k, P + 1, alphas)
    # P^k, or P itself, past the float range
    for k, P in ((6, 10**60), (2, 10**400)):
        with pytest.raises(BudgetError):
            weyl_sum_grid(k, P, alphas)


@pytest.mark.parametrize("k, P", [(2, 8192), (3, 406), (6, 20), (2, 100), (3, 21), (6, 4)])
def test_weyl_sum_grid_recurrence_bound(k, P):
    # the budget extremes and the benchmark's X = 10^4 sizes, against the
    # exact rational weyl_sum, within (pi + 3) (P^k + 1) 2^-53 * P
    rng = np.random.default_rng(k * P)
    alphas = np.concatenate([rng.random(40), [0.5, 1.0 / 3.0, 1.0 - 2.0**-53]])
    got = weyl_sum_grid(k, P, alphas)
    exact = np.array([weyl_sum(k, P, float(alpha)) for alpha in alphas])
    assert np.abs(got - exact).max() <= (math.pi + 3) * (float(P) ** k + 1) * 2.0**-53 * P


def test_weyl_sum_grid_edges():
    alphas = np.array([0.0, 0.125, 0.7])
    assert (weyl_sum_grid(3, 50, np.array([0.0, 0.0])) == 50).all()
    assert weyl_sum_grid(2, 10, np.array([])).shape == (0,)
    single = weyl_sum_grid(6, 1, alphas)
    assert np.abs(single - np.exp(2j * np.pi * alphas)).max() <= 1e-15
    # the empty sum: a recurrence started at x = 1 would give e(alpha)
    assert (weyl_sum_grid(2, 0, alphas) == 0).all()


def test_exceptional_sum_grid_phase_guard():
    # members up to 2^26 keep each float phase within 2^-27 cycles
    alphas = np.array([0.1234567])
    top = ExceptionalSample(members=(2**26,))
    assert exceptional_sum_grid(top, alphas)[0] == pytest.approx(
        exceptional_sum_direct((2**26,), 0.1234567), abs=1e-7
    )
    for member in (2**26 + 1, -(2**26) - 1, 10**20):
        with pytest.raises(BudgetError):
            exceptional_sum_grid(ExceptionalSample(members=(3, member)), alphas)


def _k_bound(members):
    """The stated bound on K's error over these members,
    (10 L (2^w - 1) + 2.3 L + 31 + 1.5 ceil(log2 Z)) u Z for L digit levels of
    w bits over their span, plus 8 u Z for the exact-phase oracle's rounding."""
    bits = max(1, (max(members) - min(members)).bit_length())
    levels = -(-bits // arcs.DIGIT_BITS)
    width = -(-bits // levels)
    size = len(members)
    terms = 10 * levels * (2**width - 1) + 2.3 * levels + 39 + 1.5 * math.ceil(math.log2(size))
    return terms * 2.0**-53 * size


def test_exceptional_sum_grid_phases_at_the_member_limit():
    # a member just below 2^26 over 40,000 float alphas, against e(-alpha n)
    # from the exact rational alpha n mod 1: no product alpha n is rounded, so
    # every value is within the stated bound, where the float-phase formula's
    # rounded products (up to 2^-28 cycles) miss it by far
    n = 2**26 - 3
    rng = np.random.default_rng(26)
    alphas = np.concatenate([rng.random(30000), 1.0 - rng.random(10000) * 2.0**-20])
    scale = 2**53  # every float alpha in [0, 1] is an integer over 2^53
    frac = [(int(a * scale) * n) % scale / scale for a in alphas]
    expect = np.exp(-2j * np.pi * np.array(frac))
    got = exceptional_sum_grid(ExceptionalSample(members=(n,)), alphas)
    assert np.abs(got - expect).max() <= _k_bound((n,))
    assert np.abs(exceptional_sum_float_phases((n,), alphas) - expect).max() > 1e-9


def _edge_samples(rng):
    """Samples at every digit-level edge of the span (0, 2^r - 1, 2^r, ... for
    r = DIGIT_BITS, and 2^7 - 1, 2^7, 2^14, 2^26), of 1, 2, 3 and 100 members
    in shuffled order and anywhere in [-2^26, 2^26], and with members at
    +-(2^26 - 3) and below 0."""
    r = arcs.DIGIT_BITS
    spans = {0, 2**7 - 1, 2**7, 2**14, 2**26}
    spans |= {2 ** (r * k) + e for k in range(1, 26 // r + 1) for e in (-1, 0)}
    member_sets = [(-(2**26 - 3), 2**26 - 3), (-(2**26 - 3), -5, 7, 2**26 - 3),
                   tuple(int(v) for v in rng.choice(np.arange(-(10**4), 0), 100, replace=False))]
    for span in sorted(spans):
        low = int(rng.integers(-(2**26), 2**26 - span + 1))
        for size in (1,) if span == 0 else (2, 3, 100):
            inner = set()
            while len(inner) < min(size, span + 1) - 2:
                inner.add(low + int(rng.integers(1, span)))
            members = [low, *inner, low + span][:size]
            member_sets.append(tuple(int(v) for v in rng.permutation(members)))
    for members in member_sets:
        yield ExceptionalSample(members)
        yield ExceptionalSample(members, tuple(np.exp(2j * np.pi * rng.random(len(members)))))


def test_exceptional_sum_grid_within_its_bound_at_the_digit_edges():
    rng = np.random.default_rng(33)
    alphas = np.concatenate([[0.0, 3 * 2.0**-60, 1e-7, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0],
                             rng.random(60)])
    for sample in _edge_samples(rng):
        expect = exceptional_sum_exact_phases(sample.members, alphas, sample.eta)
        got = exceptional_sum_grid(sample, alphas)
        assert np.abs(got - expect).max() <= _k_bound(sample.members), sample.members


def test_phase_kernels_independent_of_block_size(monkeypatch):
    # blocks down to one phase leave every row's bits as the same reduction
    # over the whole matrix gives them, for samples of 1, 2, 3 and 100 members
    # with and without coefficients; K is within its stated bound of exact
    # rational phases
    rng = np.random.default_rng(10)
    samples = []
    for size in (1, 2, 3, 100):
        members = tuple(int(m) for m in rng.choice(np.arange(1, 10**4 + 1), size, replace=False))
        eta = tuple(np.exp(2j * np.pi * rng.random(size)))
        samples += [ExceptionalSample(members), ExceptionalSample(members, eta)]
    sizes = (1, 7, 2**10, arcs.PHASE_BLOCK, 2**30)
    for n in (1, 2, 3, 700, 3000):
        x = rng.random(n)
        results = []
        for block in sizes:
            monkeypatch.setattr(arcs, "PHASE_BLOCK", block)
            monkeypatch.setattr(arcints, "PHASE_BLOCK", block)
            # offsets of up to 100 cycles, x^3 putting 23% of them below z = 8
            results.append([*(exceptional_sum_grid(s, x).tobytes() for s in samples),
                            weyl_integral_batch(2, 100, x**3 * 1e-2).tobytes(),
                            weyl_sum_grid(3, 21, x).tobytes()])
        assert all(result == results[0] for result in results)
        for sample, got in zip(samples, results[0]):
            expect = exceptional_sum_exact_phases(sample.members, x, sample.eta)
            assert np.abs(np.frombuffer(got, dtype=complex) - expect).max() <= _k_bound(sample.members)


SMALL_INTEGRALS = (
    lambda: singular_integral(1000, 1000, 5),
    lambda: major_arc_integral(500, 1000, 2),
    lambda: pruned_integral_diagnostic(400, 5, ExceptionalSample(members=(700, 951))),
)


def test_one_weyl_integral_call_per_integral_and_k(monkeypatch):
    # both grid densities share one weyl_integral_batch call per k
    calls = []
    monkeypatch.setattr(arcints, "weyl_integral_batch",
                        lambda *args: calls.append(args[0]) or weyl_integral_batch(*args))
    counts = []
    for integral in SMALL_INTEGRALS:
        calls.clear()
        integral()
        counts.append(sorted(calls))
    assert counts == [[2, 3, 6], [2, 3, 6], [3]]


def _close(a, b, tol):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_close(v, b[k], tol) for k, v in a.items())
    if isinstance(a, np.ndarray) and a.dtype.kind in "fc":
        return a.shape == b.shape and bool((np.abs(a - b) <= tol).all())
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (float, complex)):
        return abs(a - b) <= tol
    return a == b


def test_two_density_matches_two_calls(monkeypatch):
    # one integrand call over both node sets against one call per density:
    # every reported number within 1e-12 of the integral's size, and the
    # relative changes within 1e-11
    shared = [integral() for integral in SMALL_INTEGRALS]
    monkeypatch.setattr(arcints, "_two_density", two_density_two_calls)
    for one, integral in zip(shared, SMALL_INTEGRALS):
        two = integral()
        scale = abs(two.value if hasattr(two, "value") else two.raw)
        for field, value in vars(two).items():
            tol = 1e-11 if field.endswith(("rel_change", "residual")) else 1e-12 * scale
            assert _close(getattr(one, field), value, tol), field


def test_major_arc_approx():
    assert major_arc_approx(2, 1, 1, 0.0, 50) == pytest.approx(50)
    assert abs(major_arc_approx(2, 2, 1, 0.0, 50)) < 1e-12
    with pytest.raises(PreconditionError):
        major_arc_approx(2, 4, 2, 0.0, 50)


def test_major_arc_approx_matches_the_grid_arc_model():
    # the scalar model takes the last product in Python's complex arithmetic,
    # the grid model in numpy's: their last bits differ at 2,528 of these
    # 9,288 points, by at most 2.2e-16 relative
    pairs = [(q, a) for q in range(1, 51) for a in range(1, q + 1) if math.gcd(a, q) == 1]
    betas = (0.0, 4e-5, -4e-5, 1.3e-7)
    arc_idx = np.repeat(np.arange(len(pairs)), len(betas))
    for k in (2, 3, 6):
        models = arcints._arc_model(k, 1000, pairs, arc_idx, np.tile(betas, len(pairs)))
        for i, model in enumerate(models):
            (q, a), beta = pairs[arc_idx[i]], betas[i % len(betas)]
            scalar = major_arc_approx(k, q, a, beta, 1000)
            assert abs(scalar - model) <= 4.5e-16 * abs(model), (k, q, a, beta)


def test_major_arc_error_survey():
    # |f_k - q^{-1} S_k v_k| <= 10 sqrt(q); observed suprema 0.80 / 5.01 / 2.17
    for k in (2, 3, 6):
        s = major_arc_error_survey(k, 10**6, 50, 4)
        assert s.sup_scaled_error <= 10.0


def test_rational_point_error_at_beta_zero():
    # at alpha = a/q the model is (P/q) S_k(q, a); error <= 10 sqrt(q)
    rng = np.random.default_rng(14)
    for P in (10**3, 10**4):
        for q in [1, 2, 3, 5, 8, 12, 25, 49, 50]:
            coprime = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
            for a in rng.choice(coprime, size=min(3, len(coprime)), replace=False):
                direct = weyl_sum(2, P, Fraction(int(a) % q, q) if q > 1 else 0)
                model = major_arc_approx(2, q, int(a), 0.0, P)
                assert abs(direct - model) <= 10.0 * math.sqrt(q)


def test_classify_arc_examples():
    label = classify_arc(0.0, 4, 100, 2)
    assert (label.q, label.a) == (1, 0)
    assert label.kind == "major"
    label = classify_arc(Fraction(1, 2), 2, 100, 2)
    assert (label.q, label.a) == (2, 1)
    # non-reduced fractions are never produced: 2/4 reduces to 1/2
    assert math.gcd(label.a if label.a else 1, label.q) == 1


def test_classify_least_denominator_convention():
    # alpha close to 0 qualifies for q = 1 long before any larger q
    label = classify_arc(Fraction(1, 10**4), 10, 10**4, 3)
    assert label.q == 1 and label.a == 0
    # 2/5 lies in both the (2,1) arc (|2a - 1| = 1/5 = Q/X) and the (5,2)
    # arc (offset 0); the least denominator wins
    label = classify_arc(Fraction(2, 5), 20, 100, 3)
    assert (label.q, label.a) == (2, 1)


def test_classify_peak_kind():
    # outside every level-Q arc but inside a peak arc: labelled by the least
    # peak arc, which the scan of every numerator in the window confirms
    label = classify_arc(Fraction(1, 3), 2, 100, 3)
    assert (label.kind, label.q, label.a, label.peak) == ("peak", 3, 1, True)
    rng = np.random.default_rng(41)
    peaks = 0
    for _ in range(300):
        X = int(rng.integers(100, 10**4))
        Q = int(rng.integers(1, 2 * math.isqrt(X) + 1))
        alpha = Fraction(int(rng.integers(0, 10**6)), 10**6)
        W = int(rng.integers(1, 50))
        label = classify_arc(alpha, Q, X, W)
        if label.kind == "peak":
            peaks += 1
            expect = least_peak_arc_scan(alpha, W, X)
            assert (label.q, label.a) == (label.peak_q, label.peak_a) == expect
    assert peaks >= 20


def test_least_peak_arc_matches_window_scan():
    # random rationals, and the tie points j/(2q) midway between two
    # numerators, against the scan of every coprime numerator in the window
    rng = np.random.default_rng(29)
    cases = []
    for _ in range(1500):
        W = int(rng.integers(1, 40))
        den = int(rng.integers(1, 5000))
        cases.append((Fraction(int(rng.integers(0, den)), den), W,
                      int(rng.integers(W, 2 * W**3 + 2))))
    for q in range(1, 30):
        for j in range(1, 2 * q, 2):
            for W, X in ((q, 2 * q * q), (q, 2 * q * q + 1), (q + 3, 2 * q * (q + 3)), (40, 5000)):
                cases.append((Fraction(j, 2 * q), W, X))
    found = 0
    for alpha, W, X in cases:
        expect = least_peak_arc_scan(alpha, W, X)
        assert _least_peak_arc(alpha, W, X) == expect, (alpha, W, X)
        found += expect is not None
    assert 0 < found < len(cases)


def test_classify_partition_against_brute_membership():
    X, Q, W = 10**4, 14, 3
    rng = np.random.default_rng(17)
    points = [Fraction(int(a), 10**5) for a in rng.integers(0, 10**5, 400)]

    def member(alpha, bound, delta_num, delta_den):
        for q in range(1, bound + 1):
            a = round(q * alpha)
            if 0 <= a <= q and math.gcd(a if a else 1, q) == 1:
                if abs(q * alpha - a) * delta_den <= delta_num:
                    return True
        return False

    for alpha in points:
        label = classify_arc(alpha, Q, X, W)
        in_q = member(alpha, Q, Q, X)
        in_half = member(alpha, Q // 2, Q, 2 * X)
        if label.kind == "major":
            assert in_q and in_half
        elif label.kind == "annulus":
            assert in_q and not in_half
        else:
            assert not in_q


def test_classify_labels_are_unique_per_grid_point():
    # each grid point receives exactly one label and satisfies its condition
    X, Q, W = 2500, 10, 2
    for j in range(0, 180):
        alpha = Fraction(j, 180)
        if alpha >= 1:
            continue
        label = classify_arc(alpha, Q, X, W)
        if label.kind in ("major", "annulus"):
            assert abs(label.q * alpha - label.a) <= Fraction(Q, X)
        if label.peak:
            assert abs(alpha - Fraction(label.peak_a, label.peak_q)) <= Fraction(W, X)


def test_peak_majorant():
    assert peak_majorant(Fraction(1, 3), 3, 1, 100) == pytest.approx(100 / math.sqrt(3))
    # monotone decreasing in the arc offset
    vals = [peak_majorant(1 / 3 + off, 3, 1, 100) for off in (0, 1e-6, 1e-5, 1e-4)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_peak_majorant_vectorised():
    rng = np.random.default_rng(21)
    q = rng.integers(1, 40, 50)
    a = np.array([int(rng.integers(0, qi + 1)) for qi in q])
    alpha = a / q + rng.uniform(-1e-3, 1e-3, 50)
    got = peak_majorant(alpha, q, a, 100)
    assert got.shape == (50,)
    for i in range(50):
        assert got[i] == peak_majorant(float(alpha[i]), int(q[i]), int(a[i]), 100)
    with pytest.raises(PreconditionError):
        peak_majorant(alpha[:3], np.array([2, 0, 3]), a[:3], 100)


def test_peak_majorant_survey():
    # sup |f2| / majorant over annulus grids; frozen guard 6, observed <= 2.4
    for Q in (10, 100):
        tracemalloc.start()
        s = peak_majorant_survey(10**4, Q)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert s.sup_ratio <= 6.0
        # the dissection holds O(cuts), not segments x arcs (observed 6.1 MiB at Q = 100)
        assert peak <= 32 * 2**20
    # 109,501 arcs and 12,806 segments (observed 2.01)
    assert peak_majorant_survey(10**5, 600).sup_ratio <= 6.0
    # by Dirichlet with N = 316, every alpha has |q alpha - a| < 1/317 < 316/10^5
    # for some q <= 316, so the half-level arcs cover [0, 1]
    with pytest.raises(PreconditionError, match="annulus .* is empty"):
        peak_majorant_survey(10**5, 632)


def _intervals(pairs, halfwidth, scale=1.0):
    """The clipped float interval of every arc, as the dissection cuts it."""
    return [
        (min(max(a / q - halfwidth(q) * scale, 0.0), 1.0),
         min(max(a / q + halfwidth(q) * scale, 0.0), 1.0))
        for q, a in pairs
    ]


_PAIRS = st.lists(st.integers(1, 40).flatmap(lambda q: st.tuples(st.just(q), st.integers(0, q))),
                  min_size=1, max_size=30)


@settings(max_examples=200, deadline=None)
@given(
    pairs=_PAIRS.map(lambda p: sorted(p, key=lambda pair: pair[0])),
    holes=st.one_of(st.just([]), _PAIRS),
    scale=st.floats(1e-4, 0.5),
    power=st.sampled_from([0, 1, 2]),
)
def test_dissect_against_interval_containment(pairs, holes, scale, power):
    def halfwidth(q):
        return scale / q**power

    segments = arcints._dissect(pairs, halfwidth, holes)
    arcs = _intervals(pairs, halfwidth)
    gaps = _intervals(holes, halfwidth, 0.5)
    for lo, hi, idx in segments:
        assert hi - lo >= 1e-12
        # inside its owner, no lower-index arc covers it, and no hole does
        assert arcs[idx][0] <= lo and hi <= arcs[idx][1]
        assert not any(a <= lo and hi <= b for a, b in arcs[:idx])
        assert not any(a <= lo and hi <= b for a, b in gaps)
    # every elementary segment an arc covers and no hole does is returned
    cuts = sorted({0.0, 1.0, *(end for arc in arcs + gaps for end in arc)})
    returned = {(lo, hi) for lo, hi, _ in segments}
    for lo, hi in zip(cuts, cuts[1:]):
        covered = any(a <= lo and hi <= b for a, b in arcs)
        holed = any(a <= lo and hi <= b for a, b in gaps)
        assert ((lo, hi) in returned) == (covered and not holed and hi - lo >= 1e-12)
    assert len(returned) == len(segments)


@pytest.mark.parametrize("annulus, level, X, kept", [(False, 200, 1000, 18106),
                                                      (True, 100, 10**4, 6822)])
def test_dissect_drops_ulp_segments(annulus, level, X, kept):
    # one rational cut reached along two float paths gave a segment one ulp
    # long: 580 of 18,686 at W = 200, X = 1e3 and 14 of 6,836 in this annulus
    if annulus:
        segments = arcints._annulus(level, X)[1]
    else:
        segments = arcints._dissect(arcints._farey_pairs(level), lambda q: level / X)
    lo, hi, _ = np.array(segments).T
    assert len(segments) == kept
    assert (hi - lo).min() >= 1e-12 and np.all(lo[1:] >= hi[:-1])
    if not annulus:  # arcs of half-width 0.2 cover [0, 1]; only ulps are lost
        assert abs((hi - lo).sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("X, level, annulus", [
    (1000, 2, False), (10**4, 3, False), (10**4, 6, False),
    (400, 5, True), (1000, 8, True), (10**4, 16, True),
])
def test_dissect_matches_midpoint_oracle(X, level, annulus):
    # the golden and benchmark dissections; elsewhere the two can differ on a
    # segment one ulp long, where the oracle's float midpoint test is unreliable
    pairs = arcints._farey_pairs(level)
    if annulus:
        got = arcints._annulus(level, X)[1]
        args = (pairs, lambda q: level / (q * X), arcints._farey_pairs(level // 2))
    else:
        got = arcints._dissect(pairs, lambda q: level / X)
        args = (pairs, lambda q: level / X)
    assert got == dissect_midpoints(*args)


@pytest.mark.parametrize("annulus, level, X, density", [
    (False, 6, 10**4, 10 * 10**4),
    (False, 6, 10**4, 20 * 10**4),
    (True, 16, 10**4, 10 * 10**4),
    (True, 16, 10**4, 20 * 10**4),
    (True, 600, 10**5, arcints.SURVEY_DENSITY * math.sqrt(10**5)),
])
def test_quad_nodes_match_per_segment_layout(annulus, level, X, density):
    # the benchmark's major-arc and pruned integrals at both grid densities,
    # and the survey at (10**5, 600): the panels laid out for all segments at
    # once are, bit for bit, those of one np.linspace per segment
    if annulus:
        segments = arcints._annulus(level, X)[1]
    else:
        segments = arcints._dissect(arcints._farey_pairs(level), lambda q: level / X)
    got = arcints._quad_nodes(segments, density)
    expect = quad_nodes_per_segment(segments, density)
    assert [a.dtype for a in got] == [a.dtype for a in expect]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in expect]


def test_gauss_rule_is_legendre_four_point():
    # the literals of _GL4 are, bit for bit, what leggauss(4) returns
    expect = np.polynomial.legendre.leggauss(4)
    assert all(np.array_equal(got, ref) for got, ref in zip(arcints._GL4, expect))


def test_quadrature_leaves_numpy_ma_unimported():
    # a plain np.unique imports numpy.ma on its first call (numpy 2.4), 5-6 ms
    # inside the timed integrals; the golden-size CLI integrals import none
    script = """
import sys
from circleforge import cli
codes = [cli.main(argv.split()) for argv in (
    "arcs --op major-integral --n 5000 --limit 10000 --trunc 3",
    "arcs --op pruned --limit 1000 --Q 8 --sample 10 --seed 3",
)]
print(codes, "numpy.ma" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(circleforge.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[0, 0] False"


def test_exceptional_sum():
    sample = ExceptionalSample(members=(600, 700, 953))
    assert exceptional_sum(sample, 0.0) == pytest.approx(3)
    single = ExceptionalSample(members=(601,))
    for alpha in (0.1, 0.37, 0.99):
        assert abs(exceptional_sum(single, alpha)) == pytest.approx(1.0)
    rng = np.random.default_rng(8)
    members = tuple(int(v) for v in np.sort(rng.choice(np.arange(501, 1000), 20, replace=False)))
    sample = ExceptionalSample(members=members)
    got = exceptional_sum(sample, 0.5)
    assert got == pytest.approx(exceptional_sum_direct(members, 0.5), abs=1e-9)
    grid = np.array([0.0, 0.25, 0.333])
    for alpha, val in zip(grid, exceptional_sum_grid(sample, grid)):
        assert abs(val) <= len(members) + 1e-9
        assert val == pytest.approx(exceptional_sum_direct(members, float(alpha)), abs=1e-9)


def test_exceptional_sample_validation():
    with pytest.raises(PreconditionError):
        ExceptionalSample(members=(5, 5))
    with pytest.raises(PreconditionError):
        ExceptionalSample(members=(1, 2), eta=(1.0,))
    with pytest.raises(PreconditionError):
        ExceptionalSample(members=(1,), eta=(0.5,))
    # a NaN modulus fails every comparison; exceptional_sum would return nan+nanj
    for bad in (complex("nan"), complex("nan+1j"), float("inf")):
        with pytest.raises(PreconditionError):
            ExceptionalSample(members=(1, 2), eta=(bad, 1.0))
    sample = ExceptionalSample(members=(3, 4), eta=(1j, -1.0))
    assert exceptional_sum(sample, 0.0) == pytest.approx(1j - 1.0)


def test_exceptional_sample_refuses_non_integers():
    # a float member would enter exceptional_sum as the frequency 1.5
    for members in ((1.5, 2), (2.0,), tuple(np.array([1.0, 3.0]))):
        with pytest.raises(PreconditionError):
            ExceptionalSample(members=members)
    assert ExceptionalSample(members=tuple(np.array([1, 3]))).size == 2


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
def test_non_finite_alpha_is_refused(alpha):
    # K returned nan+nanj with RuntimeWarnings; float.as_integer_ratio raised
    # ValueError or OverflowError inside weyl_sum and classify_arc
    sample = ExceptionalSample(members=(1, 2, 3))
    for call in (lambda: exceptional_sum(sample, alpha),
                 lambda: exceptional_sum_grid(sample, np.array([0.25, alpha])),
                 lambda: exceptional_sum_grid(ExceptionalSample(members=()), [alpha])):
        with pytest.raises(PreconditionError, match="alphas must be finite"):
            call()
    for call in (lambda: weyl_sum(2, 10, alpha), lambda: classify_arc(alpha, 10, 100, 10)):
        with pytest.raises(PreconditionError, match=r"outside \[0, 1\)"):
            call()


def test_singular_integral_contracts():
    si = singular_integral(10**4, 10**4, 50)
    # frozen: quadrature within 10% of the closed form (observed 0.99996)
    assert abs(si.value - si.reference) <= 0.10 * si.reference
    assert si.imag_residual <= 1e-8
    assert si.rel_change <= 0.01
    si100 = singular_integral(10**4, 10**4, 100)
    assert abs(si100.value - si.value) <= 0.02 * abs(si.value)


def test_major_arc_integral_single_arc_example():
    # W = 1: the modelled integral reduces to the leading constant times n
    # within desk-scale tolerance (frozen 15%; observed deficit 2.9%)
    n, X = 5000, 10**4
    r = major_arc_integral(n, X, 1, grid=10)
    prediction = leading_constant().value * n
    assert abs(abs(r.approx) - prediction) <= 0.15 * prediction
    assert r.value_rel_change <= 0.01
    assert r.approx_rel_change <= 0.01


def test_major_arc_integral_grid_contract():
    r = major_arc_integral(3000, 5000, 4, grid=10)
    assert r.value_rel_change <= 0.01
    assert r.approx_rel_change <= 0.01
    assert r.grid_points > 0
    assert len(r.arc_columns["q"]) > 0


def test_major_arc_model_difference_trend():
    # |f-integral - model-integral| <= C W^4 X^(5/6), C frozen at 0.05 from
    # the first ladder run (observed 0.028 / 0.0051 / 0.0019)
    for X in (10**3, 10**4, 10**5):
        W = math.ceil(X**0.1)
        r = major_arc_integral(X // 2 + 1, X, W, grid=10)
        assert r.difference <= 0.05 * W**4 * X ** (5 / 6)


def test_pruned_diagnostic_contracts():
    empty = ExceptionalSample(members=())
    d = pruned_integral_diagnostic(1000, 8, empty)
    assert d.raw == 0.0 and d.square_majorant == 0.0 and d.cubic_approx == 0.0

    single = ExceptionalSample(members=(700,))
    d1 = pruned_integral_diagnostic(1000, 8, single)
    assert d1.raw > 0
    assert d1.raw_rel_change <= 0.02
    assert d1.square_majorant_rel_change <= 0.02
    assert d1.cubic_approx_rel_change <= 0.02
    assert d1.bound_X_sqrtZ == 1000.0
    assert d1.bound_X_power_Z == 1000 ** (1 - 0.1**2)
    assert len(d1.arc_columns["q"]) > 0


def test_pruned_singleton_equals_unweighted_integral():
    # |K| = 1 for a singleton sample: the raw integral equals the same
    # integral with the K factor dropped
    X, Q = 1000, 8
    single = ExceptionalSample(members=(987,))
    d = pruned_integral_diagnostic(X, Q, single, grid=12)

    from circleforge.arcints import _annulus, _quad_nodes
    from circleforge.intmath import iroot

    _, segments = _annulus(Q, X)
    alphas, weights, _ = _quad_nodes(segments, 24 * X)
    prod = (
        np.abs(weyl_sum_grid(2, iroot(X, 2), alphas)) ** 2
        * np.abs(weyl_sum_grid(3, iroot(X, 3), alphas)) ** 2
        * np.abs(weyl_sum_grid(6, iroot(X, 6), alphas)) ** 2
    )
    assert d.raw == pytest.approx(float(np.dot(weights, prod)), rel=1e-6)


def test_arc_rows_partition_the_fine_grid():
    # the per-arc columns are built on the reported (fine) grid: their node
    # counts add up to grid_points and their integrals to the total
    r = major_arc_integral(3000, 5000, 4, grid=10)
    rows = r.arc_columns
    assert rows["grid_points"].sum() == r.grid_points
    total = complex(rows["integral_re"].sum(), rows["integral_im"].sum())
    assert abs(total - r.value) <= 1e-12 * abs(r.value)
    assert (rows["abs"] == np.abs(rows["integral_re"] + 1j * rows["integral_im"])).all()
    assert (rows["Q"] == 4).all()

    d = pruned_integral_diagnostic(1000, 8, ExceptionalSample(members=(700, 951)))
    rows = d.arc_columns
    assert rows["grid_points"].sum() == d.grid_points
    assert rows["integral_re"].sum() == pytest.approx(d.raw, rel=1e-12)
    assert (rows["integral_im"] == 0.0).all()
