"""Complete exponential sums over power residues, their multiplicative majorant,
and the closed-form leading constant of the main term.

The central object is S_k(q, a) = sum_{r=1}^{q} e(a r^k / q) for k in {2, 3, 6}.
Phases are reduced in exact integer arithmetic (a * r^k mod q) before touching
the unit circle, so rounding error is independent of r.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetError, PreconditionError
from .intmath import factorize

SUPPORTED_EXPONENTS = (2, 3, 6)

# exact phase reduction in int64 needs q**2 < 2**63; all contracts stop at 1e6
MODULUS_BUDGET = 10**7


@dataclass(frozen=True)
class GaussSumValue:
    k: int
    q: int
    a: int
    value: complex


@dataclass(frozen=True)
class MajorantValue:
    k: int
    q: int
    value: float


@dataclass(frozen=True)
class LeadingConstant:
    """Both closed forms of the main-term constant; they agree to 1e-12."""

    value: float               # (27/32) * 2**(1/3) * Gamma(4/3)**6
    gamma_product_form: float  # Gamma(3/2)^2 Gamma(4/3)^2 Gamma(7/6)^2 / Gamma(2)


@dataclass(frozen=True)
class MajorantRatioSurvey:
    k: int
    q_max: int
    ratio: float
    q: int
    a: int


def _check_exponent(k: int) -> None:
    if k not in SUPPORTED_EXPONENTS:
        raise PreconditionError(f"exponent k={k} not in {SUPPORTED_EXPONENTS}")


def _check_modulus(q: int) -> None:
    if q < 1:
        raise PreconditionError("modulus q must be a positive integer")
    if q > MODULUS_BUDGET:
        raise BudgetError(f"modulus q={q} beyond budget {MODULUS_BUDGET}")


def powers_mod(x: np.ndarray, k: int, q: int) -> np.ndarray:
    """x**k mod q for an int64 array x of residues mod q < 2^31, by chained
    modular products: x^2, then x^3 = x^2 x, then x^6 = x^3 x^3."""
    x2 = x * x % q
    if k == 2:
        return x2
    x3 = x2 * x % q
    if k == 3:
        return x3
    return x3 * x3 % q


def power_residues(k: int, q: int) -> np.ndarray:
    """(r**k mod q) for r = 0..q-1."""
    return powers_mod(np.arange(q, dtype=np.int64), k, q)


def residue_histogram(k: int, q: int) -> np.ndarray:
    """Counts of each value of r**k mod q over a complete residue system."""
    return np.bincount(power_residues(k, q), minlength=q)


def residue_histograms(q: int) -> np.ndarray:
    """(3, q) array whose rows are ``residue_histogram(k, q)`` for k = 2, 3, 6,
    from one chain of modular products and one bincount."""
    r = np.arange(q, dtype=np.int64)
    r2 = r * r % q
    r3 = r2 * r % q
    offsets = np.stack([r2, r3 + q, r3 * r3 % q + 2 * q])
    return np.bincount(offsets.ravel(), minlength=3 * q).reshape(3, q)


@lru_cache(maxsize=16)
def _unity_roots(q: int) -> np.ndarray:
    table = np.exp(2j * np.pi * np.arange(q) / q)
    table.setflags(write=False)
    return table


def _phase_sum(numerators: np.ndarray, q: int) -> complex:
    """sum of e(m / q) over an int array of numerators in [0, q)."""
    if q <= 2**20:
        counts = np.bincount(numerators.astype(np.int64), minlength=q)
        return complex((counts * _unity_roots(q)).sum())
    return complex(np.exp(2j * np.pi * (numerators / q)).sum())


def gauss_sum(k: int, q: int, a: int) -> GaussSumValue:
    """S_k(q, a) = sum_{r=1}^{q} e(a r^k / q) for gcd(a, q) = 1."""
    _check_exponent(k)
    _check_modulus(q)
    if not 1 <= a <= q:
        raise PreconditionError(f"residue a={a} outside 1..q")
    if math.gcd(a, q) != 1:
        raise PreconditionError(f"gcd(a, q) must be 1, got gcd({a}, {q})")
    value = _phase_sum((a % q) * power_residues(k, q) % q, q)
    return GaussSumValue(k=k, q=q, a=a, value=value)


def gauss_sum_table(k: int, q: int) -> np.ndarray:
    """S_k(q, a) for every a = 0..q-1 at once (DFT of the residue histogram)."""
    _check_exponent(k)
    _check_modulus(q)
    return np.conj(np.fft.fft(residue_histogram(k, q)))


def gauss_sum_majorant(k: int, q: int) -> MajorantValue:
    """Multiplicative majorant of q^{-1} S_k(q, a).

    On a prime power p**(u*k + v) with u >= 0 and 1 <= v <= k the factor is
    k * p**(-u - 1/2) when v = 1 and p**(-u - 1) when 2 <= v <= k.
    """
    _check_exponent(k)
    if q < 1:
        raise PreconditionError("modulus q must be a positive integer")
    value = 1.0
    for p, h in factorize(q):
        u, v = divmod(h - 1, k)
        v += 1
        if v == 1:
            value *= k * p ** (-u - 0.5)
        else:
            value *= float(p) ** (-u - 1)
    return MajorantValue(k=k, q=q, value=value)


def majorant_ratio_survey(k: int, q_max: int) -> MajorantRatioSurvey:
    """sup over q <= q_max and coprime a of |q^{-1} S_k(q,a)| / majorant.

    The constant hidden in the majorant inequality is never pinned down in
    closed form; this measures it exhaustively at small moduli.
    """
    _check_exponent(k)
    if not 1 <= q_max <= 10**4:
        raise PreconditionError("survey requires 1 <= q_max <= 10**4")
    best = MajorantRatioSurvey(k=k, q_max=q_max, ratio=1.0, q=1, a=1)
    for q in range(1, q_max + 1):
        w = gauss_sum_majorant(k, q).value
        table = gauss_sum_table(k, q)
        coprime = np.gcd(np.arange(q), q) == 1
        ratios = np.abs(table) / q / w
        ratios[~coprime] = -1.0
        a_best = int(np.argmax(ratios))
        if ratios[a_best] > best.ratio:
            best = MajorantRatioSurvey(k, q_max, float(ratios[a_best]), q, a_best)
    return best


def leading_constant() -> LeadingConstant:
    """Main-term constant in both closed forms, each accurate to ~1e-15."""
    g = math.gamma
    product = g(1.5) ** 2 * g(4.0 / 3.0) ** 2 * g(7.0 / 6.0) ** 2 / g(2.0)
    compact = (27.0 / 32.0) * 2.0 ** (1.0 / 3.0) * g(4.0 / 3.0) ** 6
    return LeadingConstant(value=compact, gamma_product_form=product)
