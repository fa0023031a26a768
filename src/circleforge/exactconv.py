"""Exact integer convolution backends.

Two tools live here:

* ``exact_convolve`` — linear convolution of nonnegative int64 arrays: small
  problems go through direct ``np.convolve``; large ones through a float64 FFT
  rounded to integers, run only when a-priori bounds keep every value below 2^53
  and the rounding error below 1/2, and returned only when a random-point
  certificate modulo a prime holds.  Otherwise the call is refused.
* ``cyclic_histogram_convolution`` — cyclic convolution of several residue
  histograms mod q in arbitrary-precision integers via Kronecker substitution
  (values packed into slots of one big integer, folded back every round).
"""

import math

import numpy as np

from .errors import BudgetError

MAX_TRANSFORM_LENGTH = 1 << 26
FLOAT_EXACT_LIMIT = 2**53  # every integer below this is a float64

_DIRECT_OPS_LIMIT = 10**7

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


def _pack(values, slot_bytes: int) -> int:
    chunks = b"".join(int(v).to_bytes(slot_bytes, "little") for v in values)
    return int.from_bytes(chunks, "little")


def _unpack(packed: int, count: int, slot_bytes: int) -> list[int]:
    raw = packed.to_bytes(count * slot_bytes, "little")
    return [
        int.from_bytes(raw[i * slot_bytes : (i + 1) * slot_bytes], "little")
        for i in range(count)
    ]


def cyclic_histogram_convolution(histograms, q: int) -> list[int]:
    """Cyclic convolution mod q of integer histograms, exact at any size.

    Every intermediate entry is bounded by the product of the histogram masses,
    which fixes the Kronecker slot width up front.
    """
    if q < 1:
        raise ValueError("modulus must be positive")
    mass = 1
    for h in histograms:
        mass *= max(1, int(sum(h)))
    slot_bytes = (mass.bit_length() + 1 + 7) // 8
    slot_bits = slot_bytes * 8
    fold_shift = q * slot_bits
    fold_mask = (1 << fold_shift) - 1

    acc = None
    for h in histograms:
        if len(h) != q:
            raise ValueError("histogram length must equal the modulus")
        packed = _pack(h, slot_bytes)
        if acc is None:
            acc = packed
        else:
            acc *= packed
            while acc >> fold_shift:
                acc = (acc & fold_mask) + (acc >> fold_shift)
    if acc is None:
        raise ValueError("need at least one histogram")
    return _unpack(acc, q, slot_bytes)
