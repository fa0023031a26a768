import math
import time

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from circleforge import exactconv, sseries
from circleforge.errors import BudgetError, PreconditionError
from circleforge.exactconv import cyclic_histogram_convolution
from circleforge.powersums import gauss_sum_majorant, residue_histogram
from circleforge.sseries import (
    _live_tables,
    _term_table,
    _term_table_complex,
    _vanishes,
    congruence_count,
    local_density,
    series_batch,
    series_blocks,
    series_term,
    truncated_singular_series,
)

from oracles import (
    congruence_brute,
    cyclic_convolution_kronecker,
    live_tables_per_row,
    prime_powers_up_to,
    series_sum_literal,
    series_term_direct,
    term_table_per_row,
)


def test_series_term_examples():
    assert series_term(1, 12345).value == pytest.approx(1.0)
    assert abs(series_term(2, 7).value) < 1e-12
    lhs = series_term(6, 10).value
    rhs = series_term(2, 10).value * series_term(3, 10).value
    assert lhs == pytest.approx(rhs, abs=1e-10)
    with pytest.raises(PreconditionError):
        series_term(0, 5)


def test_series_term_matches_direct_path():
    for q in (3, 4, 8, 9, 12, 25, 49, 90):
        for n in (1, 6, 101):
            assert series_term(q, n).value == pytest.approx(
                series_term_direct(q, n), abs=1e-9
            )


def test_series_term_multiplicativity():
    rng = np.random.default_rng(2024)
    done = 0
    while done < 200:
        q1 = int(rng.integers(2, 100))
        q2 = int(rng.integers(2, 10**4 // q1 + 1))
        if math.gcd(q1, q2) != 1:
            continue
        done += 1
        n = int(rng.integers(1, 10**6))
        lhs = series_term(q1 * q2, n).value
        rhs = series_term(q1, n).value * series_term(q2, n).value
        assert abs(lhs - rhs) <= 1e-8


def test_series_term_realness():
    rng = np.random.default_rng(5)
    for q in [1, 2, 3, 8, 9, 64, 90, 243] + [int(v) for v in rng.integers(2, 5000, 10)]:
        assert np.abs(_term_table_complex(q).imag).max() <= 1e-9


def test_series_term_majorant_bound():
    # |A(q; n)| <= C q^3 w2^2 w3^2 w6^2; C frozen at 1.5 from a first run
    # whose observed supremum was 1.0 (attained at q = 1)
    rng = np.random.default_rng(6)
    for q in [1, 4, 9, 72, 250] + [int(v) for v in rng.integers(2, 10**4, 20)]:
        w = (
            gauss_sum_majorant(2, q).value
            * gauss_sum_majorant(3, q).value
            * gauss_sum_majorant(6, q).value
        )
        for n in rng.integers(1, 10**6, 3):
            assert abs(series_term(q, int(n)).value) <= 1.5 * q**3 * w**2


def test_congruence_count_examples():
    assert congruence_count(1, 0).count == 1
    assert congruence_count(2, 0).count == 32
    assert congruence_count(2, 1).count == 32
    # frozen from a one-off 9**6 brute-force enumeration
    assert congruence_count(9, 4).count == 55404
    with pytest.raises(BudgetError):
        congruence_count(10**4 + 1, 0)


def test_congruence_count_tiny_brute():
    for q in (1, 2, 3, 4, 5):
        for n in range(q):
            assert congruence_count(q, n).count == congruence_brute(q, n)


def test_congruence_counts_are_conserved():
    # the spectrum over all residues must sum to q^6; the largest moduli carry
    # the most limbs below CONGRUENCE_BUDGET
    for q in (7, 12, 16, 81, 6561, 8192, 9973):
        total = sum(congruence_count(q, n).count for n in range(q))
        assert total == q**6


def test_congruence_spectrum_matches_kronecker_oracle():
    for q in (1, 2, 9, 1024, 2187, 3125, 5003, 6561, 8192, 9973):
        hists = [residue_histogram(k, q).tolist() for k in (2, 2, 3, 3, 6, 6)]
        expected = cyclic_convolution_kronecker(hists, q)
        assert [congruence_count(q, n).count for n in range(q)] == expected


@pytest.mark.parametrize("q", [125, 1009])
def test_congruence_spectrum_one_engine_call_per_product(monkeypatch, q):
    # six histograms, five products: every limb of a product goes through one
    # exact_convolve call as one row of a stack
    engine, calls = exactconv.exact_convolve, []

    def counting(a, b):
        calls.append(len(b))
        return engine(a, b)

    monkeypatch.setattr(exactconv, "exact_convolve", counting)
    spectrum = sseries._congruence_spectrum.__wrapped__(q)
    assert calls == [q] * 5
    assert sum(spectrum) == q**6


@settings(max_examples=30, deadline=None)
@given(
    q=st.integers(1, 1500),
    count=st.integers(1, 6),
    bits=st.integers(0, 12),
    density=st.sampled_from([1.0, 0.1, 0.01]),
    seed=st.integers(0, 2**32 - 1),
)
def test_cyclic_convolution_matches_kronecker_oracle(q, count, bits, density, seed):
    rng = np.random.default_rng(seed)
    hists = [
        (rng.integers(0, 2**bits + 1, q) * (rng.random(q) < density)).tolist()
        for _ in range(count)
    ]
    out = cyclic_histogram_convolution(hists, q)
    assert all(type(v) is int for v in out)
    assert out == cyclic_convolution_kronecker(hists, q)


@settings(max_examples=40, deadline=None)
@given(
    q=st.integers(1, 1500),
    count=st.integers(1, 5),
    constant=st.integers(0, 2**12),
    where=st.integers(0, 4),
    bits=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_cyclic_convolution_constant_histogram(q, count, constant, where, bits, seed):
    # a constant histogram (all zeros allowed; every histogram is constant at
    # q = 1) spreads the product of the masses evenly, with no engine call
    rng = np.random.default_rng(seed)
    hists = [rng.integers(0, 2**bits + 1, q).tolist() for _ in range(count)]
    hists.insert(where % (count + 1), [constant] * q)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactconv, "exact_convolve", None)
        out = cyclic_histogram_convolution(hists, q)
    assert all(type(v) is int for v in out)
    assert out == cyclic_convolution_kronecker(hists, q)


def test_cyclic_convolution_keeps_narrow_histograms():
    # the histograms are read in their own integer types: the same values in
    # uint8, int16, uint32 and int64 give the same list, through the engine
    # and through the constant shortcut (q = 1, and the last case)
    rng = np.random.default_rng(42)
    cases = [[rng.integers(0, 256, q) for _ in range(count)]
             for q, count in ((1, 2), (7, 3), (101, 2), (1009, 3))]
    cases.append([rng.integers(0, 256, 31), np.full(31, 255)])
    for hists in cases:
        q = len(hists[0])
        expect = cyclic_convolution_kronecker([h.tolist() for h in hists], q)
        for dtype in (np.uint8, np.int16, np.uint32, np.int64):
            out = cyclic_histogram_convolution([h.astype(dtype) for h in hists], q)
            assert all(type(v) is int for v in out)
            assert out == expect, (q, dtype)


def test_divisor_sum_identity_sample():
    rng = np.random.default_rng(9)
    for q in (2, 3, 4, 8, 9, 16, 25, 27, 49, 121, 243, 625):
        for n in rng.integers(1, 10**6, 3):
            n = int(n)
            lhs = sum(series_term(d, n).value for d in _divisors(q))
            rhs = congruence_count(q, n).count / q**5
            assert abs(lhs - rhs) <= 1e-8


def _divisors(q):
    return [d for d in range(1, q + 1) if q % d == 0]


def test_local_density_examples():
    assert local_density(2, 1, 1) == pytest.approx(1.0)
    with pytest.raises(PreconditionError):
        local_density(1000, 1, 1)  # not prime
    with pytest.raises(BudgetError):
        local_density(1009, 1, 2)  # beyond cost bound


def test_local_density_refuses_before_any_primality_work():
    # a Mersenne prime far beyond the budget is refused at once, not trial-divided
    start = time.perf_counter()
    with pytest.raises(BudgetError):
        local_density(2**61 - 1, 1, 1)
    with pytest.raises(BudgetError):
        local_density(3, 1, 10**18)  # 3**h is never formed
    assert time.perf_counter() - start < 1.0
    for p in (1, 4, 91, 9999):  # 91 = 7 * 13, 9999 = 3^2 * 11 * 101
        with pytest.raises(PreconditionError):
            local_density(p, 1, 1)
    with pytest.raises(PreconditionError):
        local_density(3, 1, 0)
    with pytest.raises(PreconditionError, match="integer"):
        local_density(5.0, 3, 1)  # ended in numpy's TypeError


def test_local_density_stabilisation():
    # densities stabilise once lifting obstructions clear; observed exact
    # stabilisation at h >= 8 (p = 2) and h >= 4 (p = 3) for ordinary targets
    rng = np.random.default_rng(12)
    for n in [1, 6, 1000] + [int(v) for v in rng.integers(1, 10**6, 5)]:
        assert abs(local_density(2, n, 13) - local_density(2, n, 12)) <= 1e-6
        assert abs(local_density(3, n, 8) - local_density(3, n, 7)) <= 1e-6


def test_truncated_series_examples():
    assert truncated_singular_series(100, 1).value == pytest.approx(1.0)
    assert truncated_singular_series(100, 2).value == pytest.approx(1.0)
    with pytest.raises(PreconditionError):
        truncated_singular_series(100, 0)
    with pytest.raises(PreconditionError):
        truncated_singular_series(0, 10)
    v1 = truncated_singular_series(6, 1000)
    v2 = truncated_singular_series(6, 2000)
    assert v1.value > 0
    assert abs(v1.value - v2.value) < 5e-4  # stable to 3 decimals
    assert math.isfinite(v1.tail_estimate)


def test_literal_summation_cross_check():
    for n in (6, 100, 54321):
        for W in (50, 200, 500):
            lit = series_sum_literal(n, W)
            mult = truncated_singular_series(n, W).value
            assert lit == pytest.approx(mult, abs=1e-9)
    with pytest.raises(BudgetError):
        series_sum_literal(6, 501)


def test_tail_decay_with_truncation():
    # median tail change should shrink by >= 1.2x per doubling of W
    rng = np.random.default_rng(11)
    ns = [int(v) for v in rng.integers(1, 10**6, 100)]
    medians = {}
    for W in (125, 250, 500, 1000):
        medians[W] = float(
            np.median([truncated_singular_series(n, W).tail_estimate for n in ns])
        )
    for W in (125, 250, 500):
        assert medians[W] / medians[2 * W] >= 1.2


def test_positivity_sampled():
    rng = np.random.default_rng(13)
    for n in [1, 2, 6, 9999] + [int(v) for v in rng.integers(1, 10**4, 40)]:
        assert truncated_singular_series(n, 1000).value > 0.05


def test_vanishing_rule_matches_term_tables():
    # the exact rule against the float tables, on every prime power <= 2000
    for p, _, q in prime_powers_up_to(2000):
        assert _vanishes(q, p) == (np.abs(_term_table(q)).max() <= 1e-12), q


def test_vanishing_rule_matches_congruence_counts():
    # A(p^h; .) = 0 exactly when M_n(p^h) = p^5 M_n(p^(h-1)) for every n,
    # by the divisor-sum identity; integers only
    for p, _, q in prime_powers_up_to(300):
        lower = q // p
        flat = all(
            congruence_count(q, n).count == p**5 * congruence_count(lower, n).count
            for n in range(q)
        )
        assert _vanishes(q, p) == flat, q


def test_series_blocks_refuse_before_any_work():
    with pytest.raises(PreconditionError, match="range bound X must be >= 0"):
        series_blocks(-1, 10)
    with pytest.raises(BudgetError, match="beyond budget"):
        series_blocks(10, sseries.TRUNCATION_BUDGET + 1)


def test_batch_matches_scalar():
    sw, s2w = series_batch(200, 150)
    for n in (1, 2, 6, 77, 200):
        ref = truncated_singular_series(n, 150)
        assert sw[n] == ref.value
        assert abs(s2w[n] - sw[n]) == ref.tail_estimate


def test_batch_and_single_targets_share_one_table_set():
    X, W = 3000, 403  # W = 13 * 31 is live, so the S_W cut falls on a table
    sw, s2w = series_batch(X, W)
    before = _live_tables.cache_info()
    for n in range(1, X + 1):
        ref = truncated_singular_series(n, W)
        assert sw[n] == ref.value, n
        assert abs(s2w[n] - sw[n]) == ref.tail_estimate, n
    after = _live_tables.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + X


def test_stacked_transform_keeps_every_table_bit():
    # one transform call over the three stacked histograms gives the bits of
    # one call per Gauss-sum row: every q <= 2000, and a sample up to the budget
    rng = np.random.default_rng(30)
    sample = [int(q) for q in rng.integers(2001, sseries.TERM_BUDGET + 1, 12)]
    for q in list(range(1, 2001)) + sample + [sseries.TERM_BUDGET]:
        assert np.array_equal(_term_table_complex(q), term_table_per_row(q)), q


@pytest.mark.parametrize("W", [1, 7, 1000])
def test_live_tables_match_per_row_build(W):
    live, expect = _live_tables(2 * W), live_tables_per_row(2 * W)
    assert len(live) == len(expect)
    for table, ref in zip(live, expect):
        assert len(table) == len(ref) and np.array_equal(table, ref), len(ref)


def test_live_tables_are_the_nonvanishing_terms():
    live = _live_tables(600)
    qs = [len(table) for table in live]
    assert qs == sorted(set(qs))
    assert all(not table.flags.writeable for table in live)
    # a product table is the direct table; a prime power's is the very same array
    prime_powers = {q for _, _, q in prime_powers_up_to(600)}
    for table in live:
        q = len(table)
        assert np.abs(table - _term_table(q)).max() <= 1e-12, q
        assert q not in prime_powers or table is _term_table(q), q
    # every q <= 600 whose term is not identically zero has a table, and only those
    assert set(qs) == {q for q in range(1, 601) if np.abs(_term_table(q)).max() > 1e-12}
