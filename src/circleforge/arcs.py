"""Weyl sums, their continuous analogues, rational-point approximations, and
the dissection of [0, 1) into arcs around rationals.

Points are classified by the least-denominator convention: when a point lies
in several arcs of one family, it belongs to the arc whose denominator is
smallest.  Rational inputs (fractions, and floats via their exact dyadic
value) are located through continued-fraction convergents, so classification
is exact.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

import numpy as np

from . import workers
from .errors import BudgetError, PreconditionError, check_count
from .intmath import ADD_BUFSIZE
from .powersums import _check_exponent, _phase_sum, gauss_sum, powers_mod

KIND_MAJOR = "major"
KIND_ANNULUS = "annulus"
KIND_PEAK = "peak"
KIND_MINOR = "minor"

WEYL_POINT_BUDGET = 10**7
# complex entries of one block of exponentials, or offsets of v_k (1 MiB):
# the pool fills the blocks, and at 10**6 entries (16 MB) their temporaries took
# the benchmark's quadrature task to a peak of 82 MiB rather than 50.  The
# exceptional sum's phase tables hold at most as much per worker
PHASE_BLOCK = 2**16
# largest |x| of a float phase grid e(alpha x), alpha in [0, 1]: each product
# alpha x is then rounded by at most 2^26 * 2^-53 = 2^-27 cycles
PHASE_INTEGER_LIMIT = 2**26
# most bits of one digit level of the exceptional sum's phase tables: a level
# holds 2^w <= 32 entries per node, built from one exponential by doubling
# products.  For members in [1, 10^4] (three levels of 5 bits) K over the
# benchmark's 28,288 pruned nodes took 19.6 ms of one core, against 22.0 ms
# at 4 bits (four levels of 16 entries) and 22.7 ms at 7 (two of 128)
DIGIT_BITS = 5


@dataclass(frozen=True)
class ArcLabel:
    """Arc assignment of one point at dissection level Q and peak level W.

    kind is "major" when the point sits inside the half-level arcs, "annulus"
    when it is in the level-Q arcs but not the half-level ones, otherwise
    "peak"/"minor" by membership in the narrow peak arcs.  (q, a) is the
    least-denominator arc justifying the kind ((0, 0) for "minor").
    """

    q: int
    a: int
    kind: str
    Q: int
    X: int
    W: int
    peak: bool
    peak_q: int
    peak_a: int


@dataclass(frozen=True)
class ExceptionalSample:
    """A finite set of integer targets with unimodular coefficients."""

    members: tuple
    eta: tuple | None = None

    def __post_init__(self):
        members = tuple(check_count(m, "sample member", least=None) for m in self.members)
        object.__setattr__(self, "members", members)  # frozen: Python ints in place
        if len(set(self.members)) != len(self.members):
            raise PreconditionError("sample members must be distinct")
        if self.eta is not None:
            if len(self.eta) != len(self.members):
                raise PreconditionError("one coefficient per member required")
            for c in self.eta:
                if not abs(abs(complex(c)) - 1.0) <= 1e-12:  # NaN compares False
                    raise PreconditionError("coefficients must be unimodular")

    @property
    def size(self) -> int:
        return len(self.members)

    def coefficients(self) -> np.ndarray:
        if self.eta is None:
            return np.ones(len(self.members), dtype=complex)
        return np.asarray(self.eta, dtype=complex)


def _alpha_as_rational(alpha) -> tuple[int, int]:
    if isinstance(alpha, Fraction):
        p, q = alpha.numerator, alpha.denominator
    elif isinstance(alpha, (int, np.integer)):
        p, q = int(alpha), 1
    else:
        x = float(alpha)  # nan and inf have no ratio: (1, 1) is refused below
        p, q = x.as_integer_ratio() if math.isfinite(x) else (1, 1)
    if not (0 <= p < q or (p == 0 and q == 1)):
        raise PreconditionError(f"alpha={alpha} outside [0, 1)")
    return p, q


def weyl_sum(k: int, P: int, alpha) -> complex:
    """f_k(alpha) = sum_{x=1..P} e(alpha x^k).

    alpha may be a Fraction or a float; a float is treated as the exact dyadic
    rational it represents, and every phase a x^k is reduced mod the
    denominator in exact integer arithmetic before evaluation.
    """
    k = _check_exponent(k)
    P = check_count(P, "bound P", budget=WEYL_POINT_BUDGET)
    p, q = _alpha_as_rational(alpha)
    if p == 0:
        return complex(P)
    total = 0.0 + 0.0j
    chunk = 2 * 10**6
    if q < 2**31:
        pm = p % q
        for lo in range(1, P + 1, chunk):
            x = np.arange(lo, min(P, lo + chunk - 1) + 1, dtype=np.int64) % q
            total += _phase_sum(pm * powers_mod(x, k, q) % q, q)
        return total
    if (q & (q - 1)) == 0 and q.bit_length() <= 65:
        # float denominators are powers of two; wraparound in uint64 is exact
        shift = np.uint64(64 - (q.bit_length() - 1))
        pw = np.uint64(p)
        for lo in range(1, P + 1, chunk):
            x = np.arange(lo, min(P, lo + chunk - 1) + 1, dtype=np.uint64)
            m = (pw * x**k) << shift >> shift
            total += _phase_sum(m.astype(np.float64), q)  # q may be 2^64, past uint64
        return total
    if P > 2 * 10**5:
        raise BudgetError("huge denominators are limited to P <= 2*10**5")
    for x in range(1, P + 1):
        m = p * pow(x, k, q) % q
        total += complex(math.cos(2 * math.pi * m / q), math.sin(2 * math.pi * m / q))
    return total


def _unit_weyl_integral(k: int, z: np.ndarray) -> np.ndarray:
    """V(z) = int_0^1 e^(i z t^k) dt at each z >= 0: the series up to z = 8, the
    continued fraction beyond (see `weyl_integral_batch`)."""
    out = np.empty(len(z), dtype=complex)
    small = z <= 8.0
    w = 1j * z[small]
    series = np.zeros(len(w), dtype=complex)
    for n in range(47, -1, -1):
        series = series * w + 1 / (math.factorial(n) * (k * n + 1))
    out[small] = series
    z = z[~small]
    s, x = 1 / k, -1j * z
    tail = np.zeros(len(z), dtype=complex)
    for j in range(23, 0, -1):
        tail = j * (j - s) / (x + (2 * j + 1 - s) - tail)
    lead = math.gamma(1 + s) * cmath.exp(0.5j * math.pi * s)
    out[~small] = lead * z**-s - s * np.exp(1j * z) / (x + (1 - s) - tail)
    return out


def weyl_integral(k: int, P, beta: float) -> complex:
    """v_k(beta) = int_0^P e(beta g^k) dg, with v_k(-beta) = conj(v_k(beta))."""
    return complex(weyl_integral_batch(k, P, [beta])[0])


def weyl_integral_batch(k: int, P, betas: np.ndarray) -> np.ndarray:
    """v_k over an array of offsets, each within 4e-13 P.

    v_k(beta) = P V(z), V(z) = int_0^1 e^(i z t^k) dt, z = 2 pi |beta| P^k, and
    v_k(-beta) = conj(v_k(beta)).  Each distinct |beta| is evaluated alone, in
    blocks of PHASE_BLOCK offsets on the worker pool, so a value depends only
    on its own offset.  With u = 2^-53 and gamma_m = m u / (1 - m u):

    - z <= 8: V = sum_n (i z)^n / (n! (k n + 1)) (DLMF 8.7), by Horner over its
      first 48 terms.  The tail is below 2.2e-20, and Horner's rounding, at most
      sum_n gamma_(2n+2) z^n / (n! (k n + 1)), is largest at z = 8: 3.6e-13,
      2.5e-13 and 1.3e-13 for k = 2, 3, 6.
    - z > 8: V = s x^-s gamma(s, x) = Gamma(1 + s) x^-s - s e^(i z) h with
      s = 1/k, x = -i z and h = e^x x^-s Gamma(s, x), Legendre's continued
      fraction 1/(x + 1 - s - 1(1 - s)/(x + 3 - s - 2(2 - s)/(x + 5 - s - ...)))
      (DLMF 8.9), evaluated bottom-up over 24 partial denominators.  That
      approximant is the 24-point Gauss rule of the Stieltjes integral
      h = int_0^inf t^-s e^-t / (x + t) dt / Gamma(1 - s) (DLMF 8.6), so h errs
      by at most E = Gamma(25 - s) / (24! Gamma(1 - s) z |L_24^(-s)(i z)|^2)
      and V by s E.  The zeros of L_24 are real, so E falls with z, and s E is
      below 4e-17 at z = 8 for every k.  Each tail of the fraction is again a
      Stieltjes function, for which the bottom-up recurrence is stable: its
      rounding stays at a few ulps (4e-16 P at most against mpmath).

    z carries at most four roundings, which move V by at most
    4u |z V'(z)| = 4u |e^(i z) - V| / k <= 8u / k at any z; with the product
    by P, each value stays within 4e-13 P.  A z that overflows is refused.
    """
    k = _check_exponent(k)
    if not P >= 1:
        raise PreconditionError("bound P must be >= 1")
    if isinstance(P, Integral) and int(P) ** k >= 2**1024:  # exact: P may have no float
        raise PreconditionError("P^k must be finite as a float")
    betas = np.asarray(betas, dtype=np.float64)
    if not np.isfinite(betas).all():
        raise PreconditionError("offsets must be finite")
    mags, inverse = np.unique(np.abs(betas), return_inverse=True)
    with np.errstate(over="ignore", invalid="ignore"):
        z = 2 * math.pi * np.float64(P) ** k * mags
    if not np.isfinite(z).all():
        raise PreconditionError("2 pi |beta| P^k must be finite")
    vals = np.empty(len(mags), dtype=complex)

    def fill(lo, hi):
        vals[lo:hi] = P * _unit_weyl_integral(k, z[lo:hi])

    workers.blocks(fill, len(mags), PHASE_BLOCK)
    vals = vals[inverse].reshape(betas.shape)
    return np.where(betas < 0, np.conj(vals), vals)


def major_arc_approx(k: int, q: int, a: int, beta: float, P: int) -> complex:
    """q^{-1} S_k(q, a) v_k(beta): the structured approximation to f_k near a/q."""
    q = check_count(q, "modulus q")
    a = check_count(a, "residue a", least=None)
    P = check_count(P, "bound P")
    if math.gcd(a if a else q, q) != 1:
        raise PreconditionError("requires gcd(a, q) = 1")
    s = gauss_sum(k, q, a if a else q).value
    return s / q * weyl_integral(k, P, beta)


def _convergents(alpha: Fraction):
    """Continued-fraction convergents p/q of alpha in [0, 1)."""
    num, den = alpha.numerator, alpha.denominator
    h_prev, h = 1, 0
    k_prev, k = 0, 1
    # leading term 0: first convergent is 0/1
    yield 0, 1
    a, b = den, num  # expanding num/den after the integer part 0
    while b:
        step = a // b
        a, b = b, a - step * b
        h_prev, h = h, step * h + h_prev
        k_prev, k = k, step * k + k_prev
        yield h, k


def _least_arc(alpha: Fraction, q_bound: int, delta: Fraction) -> tuple[int, int] | None:
    """Least q <= q_bound with |q alpha - a| <= delta, via convergents."""
    if q_bound < 1:
        return None
    for p, q in _convergents(alpha):
        if q > q_bound:
            break
        if abs(q * alpha - p) <= delta:
            return q, p
    return None


def _least_peak_arc(alpha: Fraction, W: int, X: int) -> tuple[int, int] | None:
    """Least q <= W with |alpha - a/q| <= W/X, a the nearest numerator (the
    smaller on a tie).  That a/q is reduced: a non-reduced one would have been
    found at its reduced denominator."""
    width = Fraction(W, X)
    for q in range(1, W + 1):
        a = math.ceil(q * alpha - Fraction(1, 2))
        if abs(alpha - Fraction(a, q)) <= width:
            return q, a
    return None


def classify_arc(alpha, Q: int, X: int, W: int) -> ArcLabel:
    """Assign alpha to its unique arc at level Q, with peak membership at W."""
    X = check_count(X, "bound X")
    Q = check_count(Q, "level Q")
    if Q > 2 * math.isqrt(X):
        raise PreconditionError("level Q must satisfy Q <= 2 sqrt(X)")
    W = check_count(W, "peak level W", budget=1000)
    p, qd = _alpha_as_rational(alpha)
    frac = Fraction(p, qd)
    level = _least_arc(frac, Q, Fraction(Q, X))
    half = _least_arc(frac, Q // 2, Fraction(Q, 2 * X))
    peak_qa = _least_peak_arc(frac, W, X)
    peak = peak_qa is not None
    if level is not None:
        kind = KIND_MAJOR if half is not None else KIND_ANNULUS
        q, a = level
    elif peak:
        kind = KIND_PEAK
        q, a = peak_qa
    else:
        kind = KIND_MINOR
        q, a = 0, 0
    pq, pa = peak_qa if peak else (0, 0)
    return ArcLabel(
        q=q, a=a, kind=kind, Q=Q, X=X, W=W, peak=peak, peak_q=pq, peak_a=pa
    )


def peak_majorant(alpha, q, a, P2: int):
    """P2 * (q + P2^2 |q alpha - a|)^(-1/2), the square-sum arc majorant, at
    one point or elementwise over arrays of points and arcs."""
    P2 = check_count(P2, "bound P2", least=0)
    q = np.asarray(q, dtype=np.float64)
    if (q < 1).any():
        raise PreconditionError("arc denominator must be positive")
    offset = np.abs(q * np.asarray(alpha, dtype=np.float64) - a)
    majorant = P2 / np.sqrt(q + P2**2 * offset)
    return float(majorant) if majorant.ndim == 0 else majorant


def exceptional_sum(sample: ExceptionalSample, alpha) -> complex:
    """K(alpha) = sum over the sample of eta_n e(-n alpha)."""
    return complex(exceptional_sum_grid(sample, np.array([float(alpha)]))[0])


def _unit_exp(cycles: np.ndarray, dest: np.ndarray) -> None:
    """dest = e(-cycles) in the complex array dest, in place: the phase goes to
    its imaginary part, so no call casts or buffers."""
    dest.real = 0.0
    np.multiply(cycles, -2 * np.pi, out=dest.imag)
    np.exp(dest, out=dest)


def exceptional_sum_grid(sample: ExceptionalSample, alphas: np.ndarray) -> np.ndarray:
    """K over a float grid of alpha, from power-of-two phase tables.

    Each member is n = o + sum_k d_k 2^(w k), 0 <= d_k < 2^w, with o = min(n),
    over L = ceil(b / DIGIT_BITS) levels for a span max(n) - o of b bits (at
    least 1) and w = ceil(b / L) <= DIGIT_BITS.  At each node, level k reduces
    beta_k = 2^(w k) alpha mod 1 exactly (a power-of-two scaling, then the
    removal of its nearest integer) and tabulates T_k[d] = e(-d beta_k) from
    the one exponential T_k[1] by doubling products: T_k[2m] = T_k[m] T_k[m]
    and T_k[m + j] = T_k[j] T_k[m] for j < m.  A member's term is the product
    of eta_n, taken as e(theta_n), theta_n = angle(eta_n) / 2 pi, within the
    sample's 1e-12 of it, and its L entries.  The terms are summed by a
    halving tree in sample order and multiplied by e(-o alpha), whose phase
    comes from alpha mod 1 = (h + l) 2^-26, h = rint(2^26 (alpha mod 1)):
    o h 2^-26 is exact and reduced exactly, o l 2^-26 (at most 1/2) is
    rounded once, and so is their sum before its exact reduction.  No product
    alpha n is rounded, and a value depends only on its own node.  The nodes
    run in blocks on the worker pool, and each run of blocks has one scratch
    whose complex buffers hold at most PHASE_BLOCK entries (1 MiB, or one
    node's worth where that is more), half of the 2 MiB that a block of the
    float phase matrix once allocated.

    With u = 2^-53, to first order: an exponential e(-beta), |beta| <= 1/2,
    errs by at most (2 pi + sqrt 2) u (the phase product, then cos and sin),
    and a complex product by sqrt 5 u, so T_k[d] errs by at most 10 d u, and
    a member's term by 10 (sum_k d_k) u + (2 pi + sqrt 2) u + sqrt 5 L u.  The
    phase of e(-o alpha), below 1 cycle, errs by at most 1.5 u cycles, so
    that factor errs by (6 pi + sqrt 2) u and its product by sqrt 5 u; the
    halving tree has depth ceil(log2 Z).  So over Z members K is within
    (10 L (2^w - 1) + 2.3 L + 31 + 1.5 ceil(log2 Z)) u Z, plus 1e-12 Z for
    eta: 1.1e-13 Z for 100 members in [1, 10^4] (L = 3, w = 5), and below
    2.2e-13 Z for any admitted sample of up to 2^20 members (L <= 6).
    Against exact rational phases, the benchmark's 100 members erred by at
    most 1.6e-15 per member over its 28,288 pruned nodes, where one rounded
    product alpha n per member erred by 5.0e-13, and 100 members just below
    2^26 by 1.6e-15 against 3.5e-9.  Refused with BudgetError unless
    max|n| <= 2^26, which keeps |o h| <= 2^52 and so exact."""
    top = max(map(abs, sample.members), default=0)
    if top > PHASE_INTEGER_LIMIT:
        raise BudgetError(
            f"a sample member of {top.bit_length()} bits exceeds 2^26 for a float phase grid"
        )
    alphas = np.asarray(alphas, dtype=np.float64)
    if not np.isfinite(alphas).all():
        raise PreconditionError("alphas must be finite")
    if not sample.size:
        return np.zeros(len(alphas), dtype=complex)
    members = np.array(sample.members, dtype=np.int64)
    origin = int(members.min())
    # e(-o alpha) for every node, in place in out: its real and imaginary
    # parts hold h and l, and fmod by 1 is exact
    out = np.empty(len(alphas), dtype=complex)
    high, low = out.real, out.imag
    np.fmod(alphas, 1.0, out=low)
    low *= 2.0**26
    np.rint(low, out=high)
    low -= high
    high *= origin * 2.0**-26
    np.fmod(high, 1.0, out=high)
    low *= origin * 2.0**-26
    low += high
    np.fmod(low, 1.0, out=low)
    _unit_exp(low, out)
    offsets = members - origin
    bits = max(1, int(offsets.max()).bit_length())
    levels = -(-bits // DIGIT_BITS)
    width = -(-bits // levels)
    size, count = 1 << width, len(members)
    # the tables stack as (digit, level, node): level k's entry for digit d
    # is row d * levels + k of the stack flattened to two axes
    rows_at = [(offsets >> (width * k) & (size - 1)) * levels + k for k in range(levels)]
    scales = np.array([2.0 ** (width * k) for k in range(levels)])[:, None]
    eta = None if sample.eta is None else np.exp(1j * np.angle(sample.coefficients()))[:, None]
    step = max(1, min(len(alphas), PHASE_BLOCK // (size * levels + 2 * count)))
    # per node: the tables, the terms, one gathered level, beta and a spare
    shapes = (((size, levels), complex), ((count,), complex), ((count,), complex),
              ((2, levels), np.float64))

    def scratch():
        return [np.empty(math.prod(shape) * step, dtype=kind) for shape, kind in shapes]

    def fill(lo, hi, buffers):
        b = hi - lo
        table, terms, gathered, (beta, spare) = (
            buffer[: math.prod(shape) * b].reshape(*shape, b)
            for buffer, (shape, _) in zip(buffers, shapes)
        )
        old = np.setbufsize(ADD_BUFSIZE)  # the broadcast products buffer at most 4 KiB
        try:
            np.multiply(alphas[lo:hi], scales, out=beta)  # exact
            beta -= np.rint(beta, out=spare)
            table[0] = 1.0
            _unit_exp(beta, table[1])
            m = 1
            while m < size - 1:
                end = min(2 * m + 1, size)
                np.multiply(table[1 : end - m], table[m], out=table[m + 1 : end])
                m *= 2
            flat = table.reshape(size * levels, b)
            np.take(flat, rows_at[0], axis=0, out=terms if eta is None else gathered, mode="clip")
            if eta is not None:
                np.multiply(gathered, eta, out=terms)
            for k in range(1, levels):
                np.take(flat, rows_at[k], axis=0, out=gathered, mode="clip")
                terms *= gathered  # two members or more: never one number in place
            n = count
            while n > 1:
                half = n // 2
                terms[:half] += terms[n - half : n]
                n -= half
            # into a row of its own: numpy multiplies a single complex number
            # in place by its scalar loop, whose last bits differ from its
            # vector loop's, and a block may be one node
            np.multiply(out[lo:hi], terms[0], out=gathered[0])
            out[lo:hi] = gathered[0]
        finally:
            np.setbufsize(old)

    workers.blocks(fill, len(alphas), step, scratch)
    return out
