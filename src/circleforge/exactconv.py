"""Exact integer convolution backends.

Two tools live here:

* ``exact_convolve`` — linear convolution of nonnegative int64 arrays: small
  problems go through direct ``np.convolve``; large ones through a float64 FFT
  rounded to integers, run only when a-priori bounds keep every value below 2^53
  and the rounding error below 1/2, and returned only when a random-point
  certificate modulo a prime holds.  Otherwise the call is refused.
* ``cyclic_histogram_convolution`` — cyclic convolution of several residue
  histograms mod q, exact or refused: the running product is split into
  20-bit int64 limbs, each convolved by ``exact_convolve`` and folded mod q.
"""

import math

import numpy as np

from .errors import BudgetError

MAX_TRANSFORM_LENGTH = 1 << 26
FLOAT_EXACT_LIMIT = 2**53  # every integer below this is a float64

# Measured on one core of a 2-core Intel Xeon VM, numpy 2.4: direct np.convolve
# and the certified transform cost the same near 700 x 700 (0.45 ms each); at
# 100 x 100 direct takes 0.03 ms against 0.22 ms, at 2003 x 2003 3.4 ms
# against 0.6 ms.
_DIRECT_OPS_LIMIT = 5 * 10**5

# Percival, Math. Comp. 72 (2003), Thm. 5.1, with the sqrt(5)*eps complex
# product bound of Brent-Percival-Zimmermann, Math. Comp. 76 (2007): an FFT
# convolution at length 2^n with unit roundoff eps = 2^-53 errs by at most
#   |a|_2 |b|_2 ((1+eps)^(3n) (1+sqrt(5) eps)^(3n+1) (1+beta)^(3n) - 1),
# about |a|_2 |b|_2 eps (3n + sqrt(5)(3n+1) + 3n beta/eps).  With twiddle
# errors beta <= 2 eps that is below 18 n eps |a|_2 |b|_2; the constant 32
# leaves room for the real-input packing of rfft/irfft and for rounding in the
# float evaluation of the norms.
_ROUNDING_CONSTANT = 32
_CERT_PRIME = 2**31 - 1
_CERT_POINTS = 2
# cyclic_histogram_convolution: for residue histograms of r^2, r^3 and r^6
# mod q, q <= 10^4, limbs of this width keep the a-priori rounding bound of
# exact_convolve at most 0.014 (q = 9576), far below its 1/2 limit
_LIMB_BITS = 20


def _power_table(w: int, count: int, p: int) -> np.ndarray:
    """[w**0, w**1, ..., w**(count-1)] mod p, built by doubling."""
    table = np.ones(1, dtype=np.int64)
    while len(table) < count:
        step = pow(int(w), len(table), p)
        table = np.concatenate([table, (table * step) % p])
    return table[:count]


def _eval_mod(coeffs: np.ndarray, powers: np.ndarray, p: int) -> int:
    """sum_i coeffs[i] * r**i mod p, given powers[i] = r**i mod p (p < 2^31)."""
    terms = (coeffs % p) * powers[: len(coeffs)] % p
    return int(terms.sum()) % p  # at most 2^26 terms below 2^31: no overflow


def convolution_value_bound(a: np.ndarray, b: np.ndarray) -> int:
    """Cheap upper bound for max entry of the linear convolution a * b."""
    if len(a) == 0 or len(b) == 0:
        return 0
    sa, sb = int(a.sum()), int(b.sum())
    ma, mb = int(a.max()), int(b.max())
    return min(sa * mb, sb * ma)


def exact_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact linear convolution of nonnegative integer arrays, int64 output.

    Raises BudgetError, rather than return a possibly wrong result, when the
    value bound reaches 2^53, when the transform length exceeds
    MAX_TRANSFORM_LENGTH, when the a-priori rounding bound of the float FFT
    reaches 1/2, or when the rounded result fails its certificate.

    The certificate evaluates a, b and the result c at _CERT_POINTS points r
    drawn uniformly from [1, p) with p = 2^31 - 1 and fresh entropy, and checks
    a(r) b(r) = c(r) mod p.  If c differs from a * b by an error whose reduction
    mod p is nonzero (every error smaller than p in size is), the difference is
    a nonzero polynomial of degree below N = len(c), with fewer than N roots
    mod p, so a wrong c passes with probability at most (N/p)^_CERT_POINTS.
    """
    a = np.ascontiguousarray(a, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=np.int64)
    if a.min(initial=0) < 0 or b.min(initial=0) < 0:
        raise ValueError("exact_convolve expects nonnegative inputs")
    n_out = len(a) + len(b) - 1
    if len(a) == 0 or len(b) == 0:
        return np.zeros(0, dtype=np.int64)

    bound = convolution_value_bound(a, b)
    if bound >= FLOAT_EXACT_LIMIT:
        raise BudgetError(f"convolution values may reach {bound}, not below 2^53")

    if len(a) * len(b) <= _DIRECT_OPS_LIMIT:
        # direct path is exact in int64 whenever the certified bound is
        return np.convolve(a, b)

    n = 1 << (n_out - 1).bit_length()
    if n > MAX_TRANSFORM_LENGTH:
        raise BudgetError(
            f"transform length {n} exceeds supported maximum {MAX_TRANSFORM_LENGTH}"
        )
    fa, fb = a.astype(np.float64), b.astype(np.float64)
    norms = float(np.linalg.norm(fa)) * float(np.linalg.norm(fb))
    rounding = norms * 2.0**-53 * _ROUNDING_CONSTANT * math.log2(n)
    if rounding >= 0.5:
        raise BudgetError(f"FFT rounding error may reach {rounding:.3g}, not below 1/2")
    spectrum = np.fft.rfft(fa, n)
    spectrum *= np.fft.rfft(fb, n)
    c = np.rint(np.fft.irfft(spectrum, n)[:n_out]).astype(np.int64)

    p = _CERT_PRIME
    for r in np.random.default_rng().integers(1, p, _CERT_POINTS):
        powers = _power_table(int(r), n_out, p)
        lhs = _eval_mod(a, powers, p) * _eval_mod(b, powers, p) % p
        if lhs != _eval_mod(c, powers, p):
            raise BudgetError(
                f"float transform result failed its certificate mod {p} at r={r}"
            )
    return c


def cyclic_histogram_convolution(histograms, q: int) -> list[int]:
    """Cyclic convolution mod q of nonnegative integer histograms, exact.

    The running product is held as int64 limbs of _LIMB_BITS bits.  Each limb
    is convolved with the next histogram by ``exact_convolve``, folded mod q
    and carry-normalised, so every product passes that engine's bounds and
    certificate; a product it cannot certify raises BudgetError.  Every entry
    is at most the product of the histogram masses, which fixes the number of
    limbs.
    """
    if q < 1:
        raise ValueError("modulus must be positive")
    hists = [np.asarray(h, dtype=np.int64) for h in histograms]
    if not hists:
        raise ValueError("need at least one histogram")
    if any(len(h) != q for h in hists):
        raise ValueError("histogram length must equal the modulus")
    limbs = hists[0][None, :]
    mass = max(1, int(hists[0].sum()))
    for h in hists[1:]:
        mass *= max(1, int(h.sum()))
        folded = np.zeros((mass.bit_length() // _LIMB_BITS + 1, q), dtype=np.int64)
        for j, limb in enumerate(limbs):
            c = exact_convolve(limb, h)
            folded[j] += c[:q]
            folded[j, : len(c) - q] += c[q:]
        for j in range(len(folded) - 1):
            folded[j + 1] += folded[j] >> _LIMB_BITS
            folded[j] &= (1 << _LIMB_BITS) - 1
        limbs = folded
    out = np.zeros(q, dtype=object)
    for limb in limbs[::-1]:
        out = (out << _LIMB_BITS) + limb.astype(object)
    return out.tolist()
