"""Exact integer convolution backends.

Two tools live here:

* ``exact_convolve`` — linear convolution of each nonnegative integer row of
  `a` with one row `b`, of any size, through float64 FFTs rounded to integers,
  optionally only its first `length` entries.  Both sides are cut into pieces
  at the power-of-two length whose transforms and spectral products cost
  least; output block m is one inverse transform of the sum over i + j = m of
  the piece spectra, and only the blocks that start below the length are
  formed.  It runs only when per-row a-priori bounds keep every value below
  2^53 and the rounding error below 1/2, and returns only when a
  random-point certificate modulo a prime holds for every block of every row.
  Otherwise the call is refused.
* ``cyclic_histogram_convolution`` — cyclic convolution of several residue
  histograms mod q, exact or refused: the running product is split into
  20-bit int64 limbs, convolved as one stack by ``exact_convolve``, folded mod q;
  a constant histogram gives the even spread of the product of the masses.
"""

import math
from functools import partial

import numpy as np

from . import workers
from .errors import BudgetError

# the longest transform: it keeps the certificate's blocks (_block_size) at
# 2^13 coefficients, within _eval_mod's matmul headroom
MAX_TRANSFORM_LENGTH = 1 << 26
FLOAT_EXACT_LIMIT = 2**53  # every integer below this is a float64

# Percival, Math. Comp. 72 (2003), Thm. 5.1, with the sqrt(5)*eps complex
# product bound of Brent-Percival-Zimmermann, Math. Comp. 76 (2007): an FFT
# convolution at length 2^n with unit roundoff eps = 2^-53 errs by at most
#   |a|_2 |b|_2 ((1+eps)^(3n) (1+sqrt(5) eps)^(3n+1) (1+beta)^(3n) - 1),
# about |a|_2 |b|_2 eps (3n + sqrt(5)(3n+1) + 3n beta/eps).  With twiddle
# errors beta <= 2 eps that is below 18 n eps |a|_2 |b|_2; the constant 32
# leaves room for the real-input packing of rfft/irfft, for the sum of a
# block's spectral products and for rounding in the float evaluation of the
# norms.
_ROUNDING_CONSTANT = 32
# the cost model of _plan, in units of n log2(n) of one transform row, about
# 0.6-0.9 ns on one core of a 2-core Intel Xeon VM (numpy 2.4, 2 MiB of L2
# cache a core): past 2^_CACHE_LOG entries, where a row and its spectrum
# outgrow that cache, each doubling adds _SPILL_COST units an entry (1.1-1.55
# ns a unit from 2^21 to 2^25 there); a piece or block costs _CALL_COST units
# of calls around its transforms (about 50 us); a spectral product, one
# complex multiply and add over spectra read from memory, _PRODUCT_COST units
# an entry; and the certificate _CERT_COST units a coefficient it evaluates
_CACHE_LOG = 17
_SPILL_COST = 3
_CALL_COST = 2**16
_PRODUCT_COST = 6
_CERT_COST = 6
# columns of the spectra that one round of products takes at a time
_PRODUCT_TILE = 2**13
# the pool takes the pieces and blocks of transforms of at least this length;
# shorter ones, whose queueing costs more than they do, and one-piece
# products, whose two forward transforms would each cast a whole input to
# float64 at once, run on the calling thread
_POOL_LENGTH = 2**16
_CERT_PRIME = 2**31 - 1
_CERT_POINTS = 2
# cyclic_histogram_convolution: for residue histograms of r^2, r^3 and r^6
# mod q, q <= 10^4, limbs of this width keep the a-priori rounding bound of
# exact_convolve at most 0.0079 (q = 9576; 0.0037 on the prime powers), far
# below its 1/2 limit
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
    """Yield sum_i x[..., i] r[k]**i mod p, of shape x.shape[:-1] + (len(r),),
    for each nonnegative integer x in arrays, of at least 2 dimensions and at
    most block**2 entries along the last (p = 2^31 - 1, block <= 2^14).

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
        lead, blocks = x.shape[:-1], -(-x.shape[-1] // block)
        padded = np.zeros(lead + (blocks * block,), dtype=np.int64)
        folded = padded[..., : x.shape[-1]]
        if x.dtype.itemsize < 8:
            np.copyto(folded, x)
        else:  # (x & p) + (x >> 31) = x - p (x >> 31), with no temporary
            np.right_shift(x, 31, out=folded)
            folded *= -p
            folded += x
        split = padded.reshape(-1, block) @ halves
        del padded, folded
        sums = (split[:, :k] % p + (split[:, k:] % p << 16)) % p
        yield (sums.reshape(lead + (blocks, k)) * outer[:blocks] % p).sum(axis=-2) % p


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


def _pairs(ka: int, kb: int, m: int) -> int:
    """#{(i, j) : i < ka, j < kb, i + j < m}, by inclusion and exclusion."""
    return sum(t * (t + 1) // 2 * sign for t, sign in
               ((m, 1), (m - ka, -1), (m - kb, -1), (m - ka - kb, 1)) if t > 0)


def _counts(width: int, nb: int, length: int, h: int, hb: int) -> tuple[int, int, int]:
    """(ka, kb, blocks): the pieces of h columns of a row of `width` columns
    and of hb entries of b's nb, and the output blocks at offsets m h below
    `length`.  For inputs no longer than the length no piece is idle: ka, kb
    <= blocks."""
    ka, kb = -(-width // h), -(-nb // hb)
    return ka, kb, min(ka + kb - 1, -(-length // h))


def _plan(width: int, nb: int, length: int, rows: int) -> tuple[int, int, int]:
    """(L, h, hb) for `rows` rows of `width` columns and a b of nb entries,
    the first `length` entries of their products: the rows are cut into
    pieces of h columns and b into pieces of hb, either b in one piece (hb =
    nb, overlap-add, h + nb - 1 <= L) or both cut alike (hb = h, 2 h - 1 <=
    L), and every piece is transformed at the power of two L, at most `top`,
    the least that holds the whole product (or MAX_TRANSFORM_LENGTH).  The
    candidates are b in one piece at every L >= nb, with h = L - nb + 1, and
    both cut at every L < 2 nb down to top / 64, with h = L / 2.  The one
    whose transforms (each piece forward, each block back, L log2(L) a row,
    more past the cache, and _CALL_COST a piece or block), spectral products
    (_PRODUCT_COST an entry) and certificate (_CERT_COST a coefficient of a
    piece or block) cost least is taken: it depends on the sizes alone."""
    def cost(L, h, hb):
        ka, kb, m = _counts(width, nb, length, h, hb)
        log = L.bit_length() - 1
        row = L * (log + _SPILL_COST * max(0, log - _CACHE_LOG))
        return ((rows * (ka + m) + kb) * row + (ka + kb + m) * _CALL_COST
                + rows * _pairs(ka, kb, m) * (L // 2 + 1) * _PRODUCT_COST
                + (rows * (width + m * (h + hb - 1)) + nb) * _CERT_COST), (L, h, hb)

    top = min(1 << (width + nb - 2).bit_length(), MAX_TRANSFORM_LENGTH)
    plans = [cost(1 << e, min(width, (1 << e) - nb + 1), nb)
             for e in range((nb - 1).bit_length(), top.bit_length())]
    plans += [cost(1 << e, 1 << (e - 1), 1 << (e - 1))
              for e in range(max(1, top.bit_length() - 7), min(top, 2 * nb - 1).bit_length())]
    return min(plans)[1]


def _pieces(x: np.ndarray, h: int) -> list[np.ndarray]:
    """The rows of a 2-D x cut into pieces of h columns, the last maybe
    shorter: one (rows, w) view a piece."""
    return [x[:, i : i + h] for i in range(0, x.shape[1], h)]


def _block_sums(x: np.ndarray, y: np.ndarray, blocks: int, p: int) -> np.ndarray:
    """The sums mod p over i + j = m of x[:, i] * y[j], for every block m <
    blocks, of x of shape (rows, ka, ...) and y of (kb, ...), reduced after
    each product (below 2^62 for entries below p < 2^31)."""
    sums = np.zeros((len(x), blocks) + x.shape[2:], dtype=x.dtype)
    for i in range(x.shape[1]):
        j = min(len(y), blocks - i)
        sums[:, i : i + j] += x[:, i, None] * y[:j]
        sums[:, i : i + j] %= p
    return sums


def _integer_array(x, message: str) -> np.ndarray:
    """x as a contiguous integer array, an integer type narrower than 64 bits
    kept and uncopied and any other cast to int64, or ValueError(message) for
    a nonempty x of a non-integer dtype: a cast would truncate floats, and
    numpy holds a Python int outside int64 as an object.  uint64 values past
    int64 wrap to negatives, which every caller refuses next."""
    x = np.asarray(x)
    if x.size and not np.issubdtype(x.dtype, np.integer):
        raise ValueError(message)
    keep = x.dtype.kind in "iu" and x.dtype.itemsize < 8
    return np.ascontiguousarray(x, dtype=x.dtype if keep else np.int64)


def exact_convolve(a: np.ndarray, b: np.ndarray, length: int | None = None) -> np.ndarray:
    """Exact linear convolution of nonnegative integer arrays, int64 output.

    `a` is one row or a 2-D stack of rows, each convolved with the row `b`;
    with `length`, only the first `length` entries of each product are formed
    and returned (all of them when it is longer).  Raises BudgetError, rather
    than return a possibly wrong result, when the value bound of any row
    reaches 2^53, when the a-priori rounding bound of any row at the piece
    transform length, 32 log2(L) 2^-53 |a_row|_2 |b|_2, reaches 1/2 (both
    before any transform), or when any block of any row fails its
    certificate.

    The rows are cut into pieces a_i of h columns and b into pieces b_j of
    hb entries, read in their own integer types and transformed at one
    power of two L (_plan); output block m, the product
    Q_m = sum_{i+j=m} a_i * b_j, is the inverse transform of the sum of the
    spectral products, rounded, and added into the output at offset m h.
    Columns of a or b at or past `length` add nothing below it, so they are
    never read, and only the blocks with m h < length are formed.  One piece
    on each side is a single transform of a row and one of b; b in one
    piece (hb = nb) is overlap-add.

    The certificate evaluates every piece a_i, b_j and every block Q_m at
    _CERT_POINTS points r drawn uniformly from [1, p) with p = 2^31 - 1 and
    fresh entropy, and checks Q_m(r) = sum_{i+j=m} a_i(r) b_j(r) mod p for
    every block of every row at every point.  If a block differs from its
    product by an error whose reduction mod p is nonzero (every error smaller
    than p in size is), the difference is a nonzero polynomial of degree
    below N, the block's length, with fewer than N roots mod p, so a wrong
    block passes with probability at most (N/p)^_CERT_POINTS.  The
    evaluations cost O(N) a block and O(h) a piece, about 4 times the output
    length in all, with power tables of about 2 sqrt(N) entries (_eval_mod).
    """
    message = "exact_convolve expects nonnegative integer inputs, a 1-D or 2-D and b 1-D"
    # the pieces are read through views in the inputs' own integer types (the
    # int16 spectrum g among them); each transform casts its piece on the way in
    a, b = _integer_array(a, message), _integer_array(b, message)
    if a.ndim not in (1, 2) or b.ndim != 1 or a.min(initial=0) < 0 or b.min(initial=0) < 0:
        raise ValueError(message)
    rows, lead = np.atleast_2d(a), a.shape[:-1]
    n_out = rows.shape[1] + len(b) - 1 if rows.size and len(b) else 0
    if length is not None:
        if length < 0:
            raise ValueError("length must be nonnegative")
        n_out = min(n_out, length)
    if n_out == 0:
        return np.zeros(lead + (0,), dtype=np.int64)
    rows, b = rows[:, :n_out], b[:n_out]
    width, nb, count = rows.shape[1], len(b), len(rows)

    bound = convolution_value_bound(rows, b)
    if bound >= FLOAT_EXACT_LIMIT:
        raise BudgetError(f"convolution values may reach {bound}, not below 2^53")

    L, h, hb = _plan(width, nb, n_out, count)
    a_parts, b_parts = _pieces(rows, h), _pieces(b[None, :], hb)
    ka, kb, blocks = _counts(width, nb, n_out, h, hb)
    span = h + hb - 1  # a block's length, at most L
    # The transform of block m sums the spectral products of its pairs, so by
    # the bound above, applied pair by pair, it errs by at most the constant
    # times eps log2(L) sum_{i+j=m} |a_i|_2 |b_j|_2.  By Cauchy-Schwarz that
    # sum is at most (sum_i |a_i|^2)^(1/2) (sum_j |b_j|^2)^(1/2) = |a|_2 |b|_2,
    # so the bound of each row at the piece length L holds for all its
    # blocks.  The norms are numpy reductions along the rows (that of a 1-D b
    # would be a BLAS dot).  At L = 1, a 1 x 1 product, it is 0: one float
    # multiply, exact below 2^53.
    norm = np.linalg.norm(rows, axis=1).max() * np.linalg.norm(b[None, :], axis=1)[0]
    rounding = float(norm) * 2.0**-53 * _ROUNDING_CONSTANT * math.log2(L)
    if rounding >= 0.5:
        raise BudgetError(f"FFT rounding error may reach {rounding:.3g}, not below 1/2")

    # each piece of the rows is transformed into its row of A, each of b into
    # its row of fb; A has a row for every block, which the products fill
    run = workers.run if L >= _POOL_LENGTH and blocks > 1 else lambda calls: [c() for c in calls]
    A = np.empty((count, blocks, L // 2 + 1), dtype=complex)
    fb = np.empty((max(kb, count * blocks), L // 2 + 1), dtype=complex)
    run([partial(np.fft.rfft, x, L, out=A[:, i]) for i, x in enumerate(a_parts)]
        + [partial(np.fft.rfft, x[0], L, out=fb[j]) for j, x in enumerate(b_parts)])

    if kb == 1:
        A *= fb[0]
    else:
        # descending m, Q_m is written over A_m, which no later (lower) block
        # reads; columns are independent, so the tiles may go to any worker
        def products(lo, hi, scratch):
            acc, term = (s[:, : hi - lo] for s in scratch)
            for m in range(blocks - 1, -1, -1):
                others = range(max(0, m - kb + 1), min(m, ka))  # i < m, j = m - i
                for n, i in enumerate(others):
                    np.multiply(A[:, i, lo:hi], fb[m - i, lo:hi], out=term if n else acc)
                    if n:
                        acc += term
                own = A[:, m, lo:hi]
                if m < ka:
                    own *= fb[0, lo:hi]
                    if others:
                        own += acc
                else:
                    np.copyto(own, acc)

        workers.blocks(products, L // 2 + 1, _PRODUCT_TILE,
                       scratch=lambda: np.empty((2, count, _PRODUCT_TILE), dtype=complex))

    # the inverse of block m is written over fb, free after the products, seen
    # as rows of 2 (L // 2 + 1) floats, then rounded, and cast to int64 in
    # place row by contiguous row (where numpy's cast reads each entry before
    # it writes it)
    out = fb.view(np.float64)[: count * blocks].reshape(count, blocks, -1)

    def inverse(m):
        def call():
            block = np.fft.irfft(A[:, m], L, out=out[:, m, :L])
            np.rint(block, out=block)
            for row in block:
                np.copyto(row.view(np.int64), row, casting="unsafe")
        return call

    run([inverse(m) for m in range(blocks)])
    del A
    q = out.view(np.int64)[..., :span]

    p = _CERT_PRIME
    r = np.random.default_rng().integers(1, p, _CERT_POINTS)
    *values, vq = _eval_mod([*a_parts, *b_parts, q], r, p, _block_size(span))
    va, vb = np.stack(values[:ka], axis=1), np.stack(values[ka:], axis=1)
    for j, m, k in np.argwhere(_block_sums(va, vb[0], blocks, p) != vq)[:1]:
        raise BudgetError(f"float transform result failed its certificate mod {p} "
                          f"in row {j}, block {m}, at r={r[k]}")

    c = np.zeros((count, n_out), dtype=np.int64)
    for m in range(blocks):
        lo = m * h
        hi = min(n_out, lo + span)
        c[:, lo:hi] += q[:, m, : hi - lo]
    return c.reshape(lead + (n_out,))


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
    hists = [_integer_array(h, "histograms must be nonnegative integers") for h in histograms]
    if not hists:
        raise ValueError("need at least one histogram")
    if any(h.shape != (q,) for h in hists):  # len() of a 2-D one counts its rows
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
