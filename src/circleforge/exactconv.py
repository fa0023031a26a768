"""Exact integer convolution backends.

Two tools live here:

* ``exact_convolve`` — linear convolution of each nonnegative int64 row of `a`
  with one row `b`, of any size, through float64 FFTs rounded to integers, by
  overlap-add in pieces at the power-of-two length that transforms least, run
  only when per-row a-priori bounds keep every value below 2^53 and the
  rounding error below 1/2, and returned only when a random-point certificate
  modulo a prime holds for every row.  Otherwise the call is refused.
* ``cyclic_histogram_convolution`` — cyclic convolution of several residue
  histograms mod q, exact or refused: the running product is split into
  20-bit int64 limbs, convolved as one stack by ``exact_convolve``, folded mod q;
  a constant histogram gives the even spread of the product of the masses.
"""

import math

import numpy as np

from .errors import BudgetError

MAX_TRANSFORM_LENGTH = 1 << 26
FLOAT_EXACT_LIMIT = 2**53  # every integer below this is a float64

# Percival, Math. Comp. 72 (2003), Thm. 5.1, with the sqrt(5)*eps complex
# product bound of Brent-Percival-Zimmermann, Math. Comp. 76 (2007): an FFT
# convolution at length 2^n with unit roundoff eps = 2^-53 errs by at most
#   |a|_2 |b|_2 ((1+eps)^(3n) (1+sqrt(5) eps)^(3n+1) (1+beta)^(3n) - 1),
# about |a|_2 |b|_2 eps (3n + sqrt(5)(3n+1) + 3n beta/eps).  With twiddle
# errors beta <= 2 eps that is below 18 n eps |a|_2 |b|_2; the constant 32
# leaves room for the real-input packing of rfft/irfft and for rounding in the
# float evaluation of the norms.
_ROUNDING_CONSTANT = 32
# a transform call costs about 2^13 more units of n log2(n): 11 us for an
# overlap-add piece of length 2^6, at 0.54 ns a unit (one core of a 2-core
# Intel Xeon VM, numpy 2.4)
_CALL_COST = 2**13
_CERT_PRIME = 2**31 - 1
_CERT_POINTS = 2
# cyclic_histogram_convolution: for residue histograms of r^2, r^3 and r^6
# mod q, q <= 10^4, limbs of this width keep the a-priori rounding bound of
# exact_convolve at most 0.014 (q = 9576), far below its 1/2 limit
_LIMB_BITS = 20


def _block_size(n: int) -> int:
    """ceil(sqrt(n)): 2^13 at n = MAX_TRANSFORM_LENGTH, below _eval_mod's 2^14."""
    return math.isqrt(max(n, 1) - 1) + 1


def _power_table(r: np.ndarray, count: int, p: int) -> np.ndarray:
    """(count, len(r)) table of r**i mod p for i < count, built by doubling."""
    table = np.ones((1, len(r)), dtype=np.int64)
    while len(table) < count:
        table = np.concatenate([table, table * (table[-1] * r % p) % p])
    return table[:count]


def _eval_mod(arrays, r: np.ndarray, p: int, block: int):
    """Yield sum_i x[j, i] r[k]**i mod p for every row j and point k, for each
    2-D nonnegative integer x in arrays of at most block**2 columns
    (p = 2^31 - 1, block <= 2^14).

    Each int64 x is folded once, to (x & p) + (x >> 31), which is x mod p
    since 2^31 = 1 mod p and is below 2^31 + 2^32 < 2^33; a narrower x, below
    2^32, is copied as it is.  The result is cut into blocks; one int64 matmul
    against r**0..r**(block-1), split into 16-bit halves, sums every block:
    products are below 2^33 * 2^16 = 2^49, so sums of at most 2^14 stay below
    2^63 (at most 2^13, below 2^62, for the blocks _block_size gives).  The
    block sums are reduced and combined with the powers of r**block, products
    below 2^62.
    """
    k, inner = len(r), _power_table(r, block, p)
    halves = np.concatenate([inner & 0xFFFF, inner >> 16], axis=1)
    outer = _power_table(inner[-1] * r % p, block, p)
    for x in arrays:
        blocks = -(-x.shape[1] // block)
        padded = np.zeros((len(x), blocks * block), dtype=np.int64)
        folded = padded[:, : x.shape[1]]
        if x.dtype.itemsize < 8:
            np.copyto(folded, x)
        else:  # (x & p) + (x >> 31) = x - p (x >> 31), with no temporary
            np.right_shift(x, 31, out=folded)
            folded *= -p
            folded += x
        split = padded.reshape(-1, block) @ halves
        sums = (split[:, :k] % p + (split[:, k:] % p << 16)) % p
        yield (sums.reshape(len(x), blocks, k) * outer[:blocks] % p).sum(axis=1) % p


def _row_sums(x: np.ndarray) -> list[int]:
    """Exact row sums of a nonnegative int64 array: plain int64 sums when no
    sum can reach 2^63, else in 32-bit halves that never wrap."""
    if x.shape[-1] * int(x.max(initial=0)) < 2**63:
        return [int(v) for v in np.atleast_1d(x.sum(axis=-1)).flat]
    hi, lo = (x >> 32).sum(axis=-1).flat, (x & 0xFFFFFFFF).sum(axis=-1).flat
    return [(int(h) << 32) + int(l) for h, l in zip(hi, lo)]


def convolution_value_bound(a: np.ndarray, b: np.ndarray) -> int:
    """Upper bound, exact for any nonnegative int64 input, for the max entry of
    the linear convolution with b of a, or of every row of a 2-D a."""
    rows = np.atleast_2d(a)
    if rows.size == 0 or len(b) == 0:
        return 0
    (sb,), mb = _row_sums(b), int(b.max())
    return max(min(sa * mb, sb * int(ma)) for sa, ma in zip(_row_sums(rows), rows.max(axis=1)))


def _overlap_add(width: int, m: int, full: int) -> tuple[int, int]:
    """(n, h) for overlap-add: rows of `width` entries are cut into pieces of
    h columns, each convolved with the m entries of b at a power of two
    n >= h + m - 1.  n runs from the least power of two >= m up to `full`,
    which takes a row in one piece, and is the one whose transforms (b once,
    each piece forward and back) cost least, n log2(n) + _CALL_COST each."""
    def cost(n):
        pieces = -(-width // min(width, n - m + 1))
        return (2 * pieces + 1) * (n * (n.bit_length() - 1) + _CALL_COST)

    n = min((1 << e for e in range((m - 1).bit_length(), full.bit_length())), key=cost)
    return n, min(width, n - m + 1)


def _int64(x, message: str, narrow: bool = False) -> np.ndarray:
    """x as a contiguous int64 array (with `narrow`, an integer type narrower
    than 64 bits is kept, uncopied), or ValueError(message) for a nonempty x
    of a non-integer dtype: a cast would truncate floats, and numpy holds a
    Python int outside int64 as an object.  uint64 values past int64 wrap to
    negatives, which every caller refuses next."""
    x = np.asarray(x)
    if x.size and not np.issubdtype(x.dtype, np.integer):
        raise ValueError(message)
    keep = narrow and x.dtype.kind in "iu" and x.dtype.itemsize < 8
    return np.ascontiguousarray(x, dtype=x.dtype if keep else np.int64)


def exact_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact linear convolution of nonnegative integer arrays, int64 output.

    `a` is one row or a 2-D stack of rows, each convolved with the row `b`
    (transformed once).  Raises BudgetError, rather than return a possibly
    wrong result, when the value bound of any row reaches 2^53, when the
    least power of two that holds the output exceeds MAX_TRANSFORM_LENGTH
    (the rows are transformed in pieces of at most that length), when the
    a-priori rounding bound of the float FFT, taken with the largest row norm,
    reaches 1/2 (all before any transform), or when any rounded row fails its
    certificate.

    The certificate evaluates b and every row a_j and c_j at _CERT_POINTS
    points r drawn uniformly from [1, p) with p = 2^31 - 1 and fresh entropy,
    and checks a_j(r) b(r) = c_j(r) mod p for every row at every point.  If c_j
    differs from a_j * b by an error whose reduction mod p is nonzero (every
    error smaller than p in size is), the difference is a nonzero polynomial of
    degree below N = len(c_j), with fewer than N roots mod p, so a wrong row
    passes with probability at most (N/p)^_CERT_POINTS.  The evaluation is
    O(N) per row, with power tables of about 2 sqrt(N) entries (_eval_mod).
    """
    message = "exact_convolve expects nonnegative integer inputs, a 1-D or 2-D and b 1-D"
    # a narrow `a` (the int16 spectrum g) is read only through int64 and
    # float64 operations, so it is not copied to int64
    a, b = _int64(a, message, narrow=True), _int64(b, message)
    if a.ndim not in (1, 2) or b.ndim != 1 or a.min(initial=0) < 0 or b.min(initial=0) < 0:
        raise ValueError(message)
    rows, shape = np.atleast_2d(a), a.shape[:-1] + (-1,)
    if rows.size == 0 or len(b) == 0:
        return np.zeros(a.shape[:-1] + (0,), dtype=np.int64)
    n_out = rows.shape[1] + len(b) - 1

    bound = convolution_value_bound(rows, b)
    if bound >= FLOAT_EXACT_LIMIT:
        raise BudgetError(f"convolution values may reach {bound}, not below 2^53")

    full = 1 << (n_out - 1).bit_length()
    if full > MAX_TRANSFORM_LENGTH:
        raise BudgetError(
            f"transform length {full} exceeds supported maximum {MAX_TRANSFORM_LENGTH}"
        )
    n, h = _overlap_add(rows.shape[1], len(b), full)
    norms = float(np.linalg.norm(rows, axis=1).max()) * float(np.linalg.norm(b, axis=0))
    # 0 at n = 1, a 1 x 1 product: one float multiply, exact below 2^53
    rounding = norms * 2.0**-53 * _ROUNDING_CONSTANT * math.log2(n)
    if rounding >= 0.5:
        raise BudgetError(f"FFT rounding error may reach {rounding:.3g}, not below 1/2")
    if h == rows.shape[1]:
        # one piece: b and the rows are transformed straight into the two
        # spectra, and the inverse is written over b's spectrum, free after
        # the product, seen as rows of 2 (n // 2 + 1) floats.  Those are
        # rounded and cast to int64 in place, on one contiguous 1-D view
        # (where numpy's cast reads each entry before it writes it), so no
        # third buffer of the output's size is made.
        fb, spectrum = (np.empty((len(rows), n // 2 + 1), dtype=complex) for _ in range(2))
        np.fft.rfft(b, n, out=fb[0])
        np.fft.rfft(rows, n, axis=1, out=spectrum)
        spectrum *= fb[:1]
        flat = fb.view(np.float64)
        np.fft.irfft(spectrum, n, axis=1, out=flat[:, :n])
        del spectrum
        flat[:, n:] = 0
        flat = flat.reshape(-1)
        np.rint(flat, out=flat)
        c = flat.view(np.int64)
        np.copyto(c, flat, casting="unsafe")
        c = c.reshape(len(rows), -1)[:, :n_out]
        del fb
    else:
        # piece by piece, h columns are cast into `piece`, convolved at length
        # n, rounded and added into c at their offset: the rounding bound
        # holds per piece, whose norm is at most its row's, and sums of exact
        # integers below 2^53 stay exact.  The first piece is cast straight
        # into c, and only the columns past it are zeroed.
        fb, spectrum = (np.empty((k, n // 2 + 1), dtype=complex) for k in (1, len(rows)))
        piece = np.empty((len(rows), n))
        np.copyto(piece[:1, : len(b)], b)
        np.fft.rfft(piece[:1, : len(b)], n, axis=1, out=fb)
        for lo in range(0, rows.shape[1], h):
            w, hi = min(h, rows.shape[1] - lo), min(n_out, lo + n)
            np.copyto(piece[:, :w], rows[:, lo : lo + w])
            np.fft.rfft(piece[:, :w], n, axis=1, out=spectrum)
            spectrum *= fb
            piece = np.rint(np.fft.irfft(spectrum, n, axis=1, out=piece), out=piece)
            if lo:
                np.add(c[:, lo:hi], piece[:, : hi - lo], out=c[:, lo:hi], casting="unsafe")
            else:
                c = np.empty((len(rows), n_out), dtype=np.int64)
                np.copyto(c[:, :hi], piece[:, :hi], casting="unsafe")
                c[:, hi:] = 0
        del fb, spectrum, piece

    p, block = _CERT_PRIME, _block_size(n_out)
    r = np.random.default_rng().integers(1, p, _CERT_POINTS)
    va, vb, vc = _eval_mod((rows, b[None, :], c), r, p, block)
    for j, k in np.argwhere(va * vb % p != vc)[:1]:
        raise BudgetError(f"float transform result failed its certificate mod {p} "
                          f"in row {j} at r={r[k]}")
    return c.reshape(shape)


def cyclic_histogram_convolution(histograms, q: int) -> list[int]:
    """Cyclic convolution mod q of nonnegative integer histograms, exact.

    The running product is held as int64 limbs of _LIMB_BITS bits, the rows of
    one stack, convolved with the next histogram in one ``exact_convolve`` call,
    folded mod q and carry-normalised, so every product passes that engine's
    bounds and certificate; a product it cannot certify raises BudgetError.
    Every entry is at most the product of the histogram masses, which fixes
    the number of limbs.  A constant histogram c spreads every product evenly:
    each residue then gets c times the other masses, prod(masses) / q, with no
    engine call (the cube histogram of a prime p = 2 mod 3 is all ones).
    """
    if q < 1:
        raise ValueError("modulus must be positive")
    hists = [_int64(h, "histograms must be nonnegative integers") for h in histograms]
    if not hists:
        raise ValueError("need at least one histogram")
    if any(len(h) != q for h in hists):
        raise ValueError("histogram length must equal the modulus")
    if any(h.min() < 0 for h in hists):
        raise ValueError("histograms must be nonnegative integers")
    if any((h == h[0]).all() for h in hists):
        return [math.prod(_row_sums(h)[0] for h in hists) // q] * q
    limbs = hists[0][None, :]
    mass = max(1, int(hists[0].sum()))
    for h in hists[1:]:
        mass *= max(1, int(h.sum()))
        folded = np.zeros((mass.bit_length() // _LIMB_BITS + 1, q), dtype=np.int64)
        c = exact_convolve(limbs, h)
        folded[: len(c)] += c[:, :q]
        folded[: len(c), : c.shape[1] - q] += c[:, q:]
        for j in range(len(folded) - 1):
            folded[j + 1] += folded[j] >> _LIMB_BITS
            folded[j] &= (1 << _LIMB_BITS) - 1
        limbs = folded
    out = np.zeros(q, dtype=object)
    for limb in limbs[::-1]:
        out = (out << _LIMB_BITS) + limb.astype(object)
    return out.tolist()
