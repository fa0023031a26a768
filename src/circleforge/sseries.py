"""Singular-series machinery for the sum of two squares, two cubes and two
sixth powers.

The q-th term is

    A(q; n) = sum_{a=1..q, gcd(a,q)=1} q^{-6} S_2(q,a)^2 S_3(q,a)^2 S_6(q,a)^2 e(-n a / q)

and the truncation sums A(q; n) over q <= W.  A is multiplicative in q, so the
truncation is assembled from prime-power values.  Exact congruence counts
M_n(q), obtained by cyclic convolution of power-residue histograms in exact
integers, act as an independent oracle through the divisor-sum identity

    sum_{d | q} A(d; n) = q^{-5} M_n(q).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetError, PreconditionError
from .exactconv import cyclic_histogram_convolution
from .intmath import is_prime, prime_powers_up_to, smallest_prime_factors
from .powersums import gauss_sum_table, residue_histogram

# cost bounds: exact congruence spectra and per-q term tables are O(q log q)
# to O(q^1.6); these stops keep single calls interactive
CONGRUENCE_BUDGET = 10**4
TERM_BUDGET = 10**5
TRUNCATION_BUDGET = 5000


@dataclass(frozen=True)
class SeriesTerm:
    q: int
    n: int
    value: float


@dataclass(frozen=True)
class SingularSeriesValue:
    n: int
    W: int
    value: float
    tail_estimate: float  # |value at 2W - value at W|


@dataclass(frozen=True)
class CongruenceCount:
    q: int
    n: int
    count: int


def _term_table_complex(q: int) -> np.ndarray:
    """A(q; n mod q) for all residues n, before discarding the imaginary part."""
    s2 = gauss_sum_table(2, q)
    s3 = gauss_sum_table(3, q)
    s6 = gauss_sum_table(6, q)
    weights = s2**2 * s3**2 * s6**2 / float(q) ** 6
    weights[np.gcd(np.arange(q), q) != 1] = 0.0
    return np.fft.fft(weights)


@lru_cache(maxsize=4096)
def _term_table(q: int) -> np.ndarray:
    table = _term_table_complex(q).real
    table.setflags(write=False)
    return table


def series_term(q: int, n: int) -> SeriesTerm:
    """A(q; n); the target n is reduced mod q internally."""
    if q < 1:
        raise PreconditionError("modulus q must be a positive integer")
    if q > TERM_BUDGET:
        raise BudgetError(f"series term modulus {q} beyond budget {TERM_BUDGET}")
    return SeriesTerm(q=q, n=n, value=float(_term_table(q)[n % q]))


@lru_cache(maxsize=512)
def _congruence_spectrum(q: int) -> tuple:
    """M_n(q) for every residue n, as exact integers."""
    hists = [residue_histogram(k, q) for k in (2, 2, 3, 3, 6, 6)]
    return tuple(cyclic_histogram_convolution(hists, q))


def congruence_count(q: int, n: int) -> CongruenceCount:
    """Exact number of solutions of
    x1^2+x2^2+x3^3+x4^3+x5^6+x6^6 = n (mod q), each x_i over a complete
    residue system."""
    if q < 1:
        raise PreconditionError("modulus q must be a positive integer")
    if q > CONGRUENCE_BUDGET:
        raise BudgetError(f"congruence count modulus {q} beyond {CONGRUENCE_BUDGET}")
    return CongruenceCount(q=q, n=n, count=_congruence_spectrum(q)[n % q])


def local_density(p: int, n: int, h: int) -> float:
    """p^{-5h} * M_n(p^h); stabilises in h once lifting obstructions clear."""
    if not is_prime(p):
        raise PreconditionError(f"p={p} is not prime")
    if h < 1:
        raise PreconditionError("exponent h must be >= 1")
    q = p**h
    if q > CONGRUENCE_BUDGET:
        raise BudgetError(f"p**h = {q} beyond budget {CONGRUENCE_BUDGET}")
    return float(congruence_count(q, n).count) / float(p) ** (5 * h)


def _split_prime_power(spf: np.ndarray, q: int) -> tuple[int, int]:
    """(p^h, q / p^h) for the smallest prime p | q, where p^h || q."""
    p = int(spf[q])
    ppow = p
    while (q // ppow) % p == 0:
        ppow *= p
    return ppow, q // ppow


def _vanishes(q: int, p: int) -> bool:
    """Whether A(q; .) = 0 identically, decided exactly for q = p^h.

    S_k(q, a) is the image of S_k(q, 1) under zeta -> zeta^a, so the term
    vanishes exactly when some S_k(q, 1) = 0.  That sum is the histogram
    polynomial of r^k mod q evaluated at a primitive q-th root of unity; its
    degree is below q, so it is zero exactly when Phi_q(x) = sum_j x^(j q / p)
    divides it, that is when the histogram has period q / p.
    """
    rows = (residue_histogram(k, q).reshape(p, q // p) for k in (2, 3, 6))
    return any((r == r[0]).all() for r in rows)


def _prime_power_values(n: int, bound: int) -> dict[int, float]:
    return {q: float(_term_table(q)[n % q]) for _, _, q in prime_powers_up_to(bound)}


def check_truncation(W: int) -> None:
    """The refusals of a truncation level W, raised before any work."""
    if W < 1:
        raise PreconditionError("truncation W must be >= 1")
    if W > TRUNCATION_BUDGET:
        raise BudgetError(f"truncation W={W} beyond budget {TRUNCATION_BUDGET}")


def truncated_singular_series(n: int, W: int) -> SingularSeriesValue:
    """sum_{q<=W} A(q; n), assembled multiplicatively from prime-power terms.

    The tail estimate is the change when the truncation is doubled.
    """
    if n < 1:
        raise PreconditionError("target n must be >= 1")
    check_truncation(W)
    pp = _prime_power_values(n, 2 * W)
    spf = smallest_prime_factors(2 * W)
    # A(q) for every q <= 2W by multiplicativity, in one ascending sweep
    terms = np.empty(2 * W + 1)
    terms[0] = 0.0
    terms[1] = 1.0
    for q in range(2, 2 * W + 1):
        ppow, rest = _split_prime_power(spf, q)
        terms[q] = pp[ppow] * terms[rest]
    value = float(terms[1 : W + 1].sum())
    value2 = float(terms[1 : 2 * W + 1].sum())
    return SingularSeriesValue(n=n, W=W, value=value, tail_estimate=abs(value2 - value))


def series_batch(X: int, W: int) -> tuple[np.ndarray, np.ndarray]:
    """(S_W, S_2W) arrays over n = 0..X, S_W[n] = sum_{q<=W} A(q; n).

    Per-q residue tables are built multiplicatively from prime-power tables and
    tiled across the n-range.  A modulus with a prime-power factor whose term
    vanishes identically (``_vanishes``; every q with 2 || q, for one) adds
    nothing and is skipped.
    """
    if X < 0:
        raise PreconditionError("range bound X must be >= 0")
    check_truncation(W)
    spf = smallest_prime_factors(2 * W)
    tables: dict[int, np.ndarray] = {1: np.ones(1)}  # live moduli only
    acc = np.ones(X + 1)  # q = 1 contributes A(1; n) = 1
    snapshot = None
    for q in range(2, 2 * W + 1):
        ppow, rest = _split_prime_power(spf, q)
        if ppow == q:
            if not _vanishes(q, int(spf[q])):
                tables[q] = np.asarray(_term_table(q))
        elif ppow in tables and rest in tables:
            idx = np.arange(q)
            tables[q] = tables[ppow][idx % ppow] * tables[rest][idx % rest]
        if q in tables:
            full = (X + 1) // q * q
            tiles = acc[:full].reshape(-1, q)  # a view: adds in place
            tiles += tables[q]
            acc[full:] += tables[q][: X + 1 - full]
        if q == W:
            snapshot = acc.copy()
    if snapshot is None:  # W == 1
        snapshot = np.ones(X + 1)
    return snapshot, acc
