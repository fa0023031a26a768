import math
from fractions import Fraction

import numpy as np
import pytest

from circleforge.errors import BudgetError, PreconditionError
from circleforge.intmath import TRIAL_DIVISION_BOUND, factorize, iroot
from circleforge.powersums import (
    FORM,
    SUPPORTED_EXPONENTS,
    form_product,
    gauss_sum,
    gauss_sum_majorant,
    gauss_sum_table,
    leading_constant,
    majorant_ratio_survey,
    residue_histogram,
    residue_histograms,
)
from oracles import gauss_direct, primes_up_to


def test_gauss_sum_examples():
    assert gauss_sum(3, 1, 1).value == pytest.approx(1.0)
    assert abs(gauss_sum(2, 2, 1).value) < 1e-12
    assert gauss_sum(2, 4, 1).value == pytest.approx(2 + 2j, abs=1e-12)
    assert abs(gauss_sum(3, 3, 1).value) < 1e-12


def test_gauss_sum_rejections():
    with pytest.raises(PreconditionError):
        gauss_sum(4, 5, 1)
    with pytest.raises(PreconditionError):
        gauss_sum(2, 0, 1)
    with pytest.raises(PreconditionError):
        gauss_sum(2, 6, 2)  # gcd(2, 6) != 1
    with pytest.raises(PreconditionError):
        gauss_sum(2, 6, 7)  # residue out of range


def test_gauss_sum_against_direct_summation():
    rng = np.random.default_rng(42)
    moduli = [2, 3, 4, 5, 8, 9, 16, 27, 64, 97, 125, 243, 729]
    moduli += [int(q) for q in rng.integers(2, 10**4, 12)]
    for q in moduli:
        coprime = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
        for a in rng.choice(coprime, size=min(3, len(coprime)), replace=False):
            for k in (2, 3, 6):
                got = gauss_sum(k, q, int(a)).value
                assert abs(got - gauss_direct(k, q, int(a))) < 1e-9
                assert abs(got) <= q + 1e-9  # trivial bound


def test_gauss_sum_above_binned_moduli():
    # q > 2^20 sums e(m / q) directly instead of binning the numerators; q is
    # prime and 2 mod 3, so |S_2| = sqrt(q) and cubing permutes the residues
    q = 1048583
    assert q > 2**20
    table = gauss_sum_table(2, q)
    for a in (1, 5, q - 1):
        value = gauss_sum(2, q, a).value
        assert abs(value - table[a]) <= 1e-8
        assert abs(abs(value) - math.sqrt(q)) <= 1e-8
        assert abs(gauss_sum(3, q, a).value) <= 1e-8


def test_quadratic_magnitude_at_odd_primes():
    # |S_2(p, a)| = sqrt(p) for every odd prime p and coprime a
    for p in primes_up_to(997):
        if p == 2:
            continue
        table = np.abs(gauss_sum_table(2, p))
        assert np.allclose(table[1:], math.sqrt(p), atol=1e-8)


def test_conjugate_symmetry():
    for q in range(2, 501):
        table = gauss_sum_table(2, q)
        table3 = gauss_sum_table(3, q)
        table6 = gauss_sum_table(6, q)
        for t in (table, table3, table6):
            for a in range(1, q):
                if math.gcd(a, q) == 1:
                    assert abs(t[q - a] - np.conj(t[a])) < 1e-8


def test_table_matches_pointwise():
    for q in (7, 12, 90, 343):
        table = gauss_sum_table(6, q)
        for a in range(1, q + 1):
            if math.gcd(a, q) == 1:
                assert abs(table[a % q] - gauss_sum(6, q, a).value) < 1e-9


def test_stacked_histograms_match_one_per_exponent():
    for q in [1, 2, 3, 4, 7, 9, 64, 729, 1000, 9973, 10**5]:
        expect = np.stack([residue_histogram(k, q) for k in (2, 3, 6)])
        got = residue_histograms(q)
        assert got.dtype == expect.dtype and np.array_equal(got, expect), q


def test_majorant_examples():
    assert gauss_sum_majorant(2, 1).value == 1.0
    assert gauss_sum_majorant(2, 3).value == pytest.approx(2 * 3**-0.5)
    assert gauss_sum_majorant(2, 4).value == pytest.approx(0.5)
    with pytest.raises(PreconditionError):
        gauss_sum_majorant(2, 0)


def test_majorant_prime_power_cases():
    # p^(uk+v): v = 1 gives k p^(-u-1/2); 2 <= v <= k gives p^(-u-1)
    assert gauss_sum_majorant(3, 3**4).value == pytest.approx(3 * 3**-1.5)
    assert gauss_sum_majorant(3, 3**5).value == pytest.approx(3.0**-2)
    assert gauss_sum_majorant(6, 2**7).value == pytest.approx(6 * 2**-1.5)
    assert gauss_sum_majorant(6, 2**12).value == pytest.approx(2.0**-2)


def test_factorize_is_exact_or_refused():
    # every factor is a prime by the oracle's sieve, and the factors multiply back
    primes = set(primes_up_to(10**5))
    for q in range(1, 10**5 + 1):
        factors = factorize(q)
        assert math.prod(p**h for p, h in factors) == q
        assert all(p in primes and h >= 1 for p, h in factors)
        assert [p for p, _ in factors] == sorted({p for p, _ in factors})
    # the square of the largest prime below the bound, and the bound itself
    assert factorize(999983**2) == [(999983, 2)]
    assert factorize(TRIAL_DIVISION_BOUND**2) == [(2, 12), (5, 12)]
    # 1000003 is prime: past the bound a leftover cofactor need not be, and
    # the majorant of its square would read 2e-6 instead of 1e-6
    with pytest.raises(BudgetError):
        factorize(TRIAL_DIVISION_BOUND**2 + 1)
    with pytest.raises(BudgetError):
        gauss_sum_majorant(2, 1000003**2)


def test_integer_helpers_refuse_bad_input():
    for n, k, message in ((-1, 2, "n >= 0"), (8, 0, "k >= 1"), (8, -3, "k >= 1")):
        with pytest.raises(ValueError, match=message):
            iroot(n, k)
    for n in (0, -5):
        with pytest.raises(ValueError, match="n >= 1"):
            factorize(n)


def test_majorant_multiplicativity():
    rng = np.random.default_rng(1)
    done = 0
    while done < 1000:
        q1, q2 = int(rng.integers(1, 1000)), int(rng.integers(1, 1000))
        if math.gcd(q1, q2) != 1:
            continue
        done += 1
        for k in (2, 3, 6):
            lhs = gauss_sum_majorant(k, q1 * q2).value
            rhs = gauss_sum_majorant(k, q1).value * gauss_sum_majorant(k, q2).value
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_majorant_ratio_survey():
    trivial = majorant_ratio_survey(2, 1)
    assert trivial.ratio == 1.0 and trivial.q == 1
    # calibration guards frozen from the first exhaustive run:
    # observed suprema 1.415 (k=2), 2.533 (k=3), 5.248 (k=6)
    assert majorant_ratio_survey(2, 100).ratio <= 10.0
    assert majorant_ratio_survey(3, 100).ratio <= 4.0
    k6 = majorant_ratio_survey(6, 100)
    assert math.isfinite(k6.ratio) and k6.ratio <= 8.0


def test_leading_constant_identity():
    lc = leading_constant()
    assert lc.value > 0
    assert abs(lc.value - lc.gamma_product_form) <= 1e-12 * lc.value
    # frozen from an independent 50-digit evaluation of the compact form
    assert lc.value == pytest.approx(0.5390214962996830, abs=5e-4)
    assert abs(lc.value - 0.53902149629968298879) < 1e-14


def test_form_fixes_the_main_term():
    # scan's main term C S(n) n is n^(sum_{k in FORM} 1/k - 1), so the sum is 2
    assert sum(Fraction(1, k) for k in FORM) == 2
    assert SUPPORTED_EXPONENTS == tuple(sorted(set(FORM)))
    g = math.gamma
    literal = g(3 / 2) ** 2 * g(4 / 3) ** 2 * g(7 / 6) ** 2 / g(2)
    assert abs(leading_constant().gamma_product_form - literal) <= 1e-15


def test_form_product_is_the_literal_product():
    # the bits of v2**2 * v3**2 * v6**2, below and above numpy's 256 KiB
    # threshold for computing into a temporary, and the inputs are left alone
    rng = np.random.default_rng(41)
    for size in (1000, 50000):
        v = {k: rng.normal(size=size) + 1j * rng.normal(size=size) for k in SUPPORTED_EXPONENTS}
        kept = {k: x.copy() for k, x in v.items()}
        assert np.array_equal(form_product(v), v[2] ** 2 * v[3] ** 2 * v[6] ** 2)
        assert all(np.array_equal(v[k], kept[k]) for k in v)
    assert form_product({2: 2, 3: 3, 6: 5}) == 900


def test_gamma_backend_reference_points():
    assert math.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert math.gamma(1.0) == 1.0
