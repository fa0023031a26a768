"""Exact representation counts R(n) for n = x1^2+x2^2+x3^3+x4^3+x5^6+x6^6
with positive integers x_i.

Both paths read the exact integer cube/sixth spectrum g, filled by one
primitive, _fill_spectrum, one value window at a time into a buffer it is
given, and within a window one sixth-pair value at a time: that value's
cube-pair partners in the window are one slice of the sorted cube-pair
values, added by one np.add.at.  The square-pair spectrum comes from the
same filler, over the squares twice.  A full range fills all of g in
windows of WINDOW entries and convolves it with the square-pair spectrum
through the exact transform backend.  A single target never holds all of
g: its windows, of a length fixed by n, are handed out by `workers.blocks`,
and each is filled into its run's one buffer and summed over the square
pairs of its annulus in 2-D blocks of rows x.  Tuples are ordered and every variable
starts at 1, so the least representable value is 6.
"""

import hashlib
import math
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from . import workers
from .errors import BudgetError, check_count
from .exactconv import FLOAT_EXACT_LIMIT, exact_convolve
from .intmath import iroot, pair_values, powers
from .powersums import _check_exponent

PAIR_INDEX_BUDGET = 2 * 10**8  # entries in a pair spectrum
# a time budget: memory stays a few windows of g whatever n, and the int16
# spectrum holds up to here (every count at most 12,222 at P3 = 2154, P6 = 46)
SINGLE_TARGET_BUDGET = 10**10
# a memory budget: scan(3e7) peaks near 1.8 GiB; the range product is formed in
# pieces below X + 1, so no transform length limits X any more
RANGE_BUDGET = 3 * 10**7
GATHER_BLOCK = 2**15  # cells that one block of rep_count_single gathers
# the least window of rep_count_single, in entries of g: 2 MiB of int16, one
# core's L2; past n ~ 3e7 windows widen with sqrt(n) (see _window_length)
WINDOW = 2**20
ANNULUS_WIDTH = 128

SPECTRUM_MAGIC = b"WSPC2"
_HEADER = struct.Struct("<5sQQQ")
_DIGEST_SIZE = 32


@dataclass(frozen=True, eq=False)
class PairSpectrum:
    """counts[m] = #{(x, y) in [1, P]^2 : x^k + y^k = m}, ordered pairs."""

    k: int
    P: int
    counts: np.ndarray  # int64, length 2*P**k + 1


@dataclass(frozen=True, eq=False)
class RangeCounts:
    X: int
    values: np.ndarray  # R(n) at index n, exact


def pair_spectrum(k: int, P: int) -> PairSpectrum:
    """Exact pair-sum spectrum, filled as g is: _fill_spectrum of powers(k, P)
    with itself, every count 1."""
    k = _check_exponent(k)
    P = check_count(P, "bound P")
    length = 2 * P**k + 1
    if length > PAIR_INDEX_BUDGET:
        raise BudgetError(
            f"pair spectrum needs {length} entries "
            f"({length * 8 / 2**30:.1f} GiB), budget is {PAIR_INDEX_BUDGET}"
        )
    v = powers(k, P)
    ones = np.ones(P, dtype=np.int64)
    counts = np.empty(length, dtype=np.int64)
    _fill_spectrum(counts, 0, v, ones, v, ones)
    return PairSpectrum(k=k, P=P, counts=counts)


def write_spectrum(spectrum: PairSpectrum, path: str) -> None:
    """Serialise in the WSPC2 layout: magic, k/P/length as little-endian u64,
    u32 counts, and a trailing 32-byte blake2b digest of everything before it."""
    counts = spectrum.counts
    if counts.max(initial=0) >= 2**32:
        raise ValueError("spectrum counts overflow the 32-bit cache format")
    header = _HEADER.pack(SPECTRUM_MAGIC, spectrum.k, spectrum.P, len(counts))
    payload = counts.astype("<u4").tobytes()
    digest = hashlib.blake2b(header, digest_size=_DIGEST_SIZE)
    digest.update(payload)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
        fh.write(digest.digest())


def read_spectrum(path: str) -> PairSpectrum:
    """Parse a WSPC2 file; any short, malformed or corrupt file raises ValueError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size + _DIGEST_SIZE:
        raise ValueError(f"{path}: truncated spectrum file")
    magic, k, P, length = _HEADER.unpack_from(raw)
    if magic != SPECTRUM_MAGIC:
        raise ValueError(f"{path}: bad magic, not a WSPC2 spectrum")
    end = _HEADER.size + 4 * length
    if len(raw) != end + _DIGEST_SIZE:
        raise ValueError(f"{path}: truncated spectrum file")
    if hashlib.blake2b(memoryview(raw)[:end], digest_size=_DIGEST_SIZE).digest() != raw[end:]:
        raise ValueError(f"{path}: digest mismatch, refusing corrupt spectrum")
    counts = np.frombuffer(raw, dtype="<u4", count=length, offset=_HEADER.size)
    return PairSpectrum(k=int(k), P=int(P), counts=counts.astype(np.int64))


def _cached_pair_spectrum(k: int, P: int, cache_dir: str | None) -> PairSpectrum:
    """Read the spectrum from cache_dir; a missing, rejected or mismatched file
    is a miss: recompute and replace it atomically, so concurrent readers only
    ever see a complete file."""
    if cache_dir is None:
        return pair_spectrum(k, P)
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"wspc_k{k}_P{P}.bin")
    try:
        spectrum = read_spectrum(path)
        if spectrum.k == k and spectrum.P == P:
            return spectrum
    except (FileNotFoundError, ValueError):
        pass
    spectrum = pair_spectrum(k, P)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".wspc_", suffix=".tmp")
    os.close(fd)
    try:
        write_spectrum(spectrum, tmp)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return spectrum


def _count_dtype(bound: int) -> type:
    """The narrowest signed integer type that holds every count in [0, bound]."""
    return next(t for t in (np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)


def _pair_spectra(P3: int, P6: int, limit: int) -> tuple:
    """(v3, c3, v6, c6): the distinct cube-pair and sixth-pair values <= limit
    with their ordered-pair counts, the counts in the narrowest signed integer
    type that holds sum(c6) * max(c3).  That bounds every entry of g, every
    product c6 * c3 and every partial sum of the fill."""
    # the P3^2 * P6^2 quadruples bound the total of g, and so every entry and
    # partial sum: below 2^53 _count_dtype always finds a type that holds them
    if (P3 * P6) ** 2 >= FLOAT_EXACT_LIMIT:
        raise BudgetError(f"cube/sixth spectrum of {(P3 * P6) ** 2} tuples, not below 2^53")
    v3, c3 = pair_values(powers(3, P3), limit=limit)
    v6, c6 = pair_values(powers(6, P6), limit=limit)
    dtype = _count_dtype(int(c6.sum()) * int(c3.max(initial=0)))
    return v3, c3.astype(dtype), v6, c6.astype(dtype)


def _fill_spectrum(out: np.ndarray, lo: int, u, cu, v, cv) -> None:
    """out[:] = h[lo : lo + len(out)], where h[m] is the sum of cu[i] cv[j]
    over u[i] + v[j] = m, for sorted values u and v with counts cu and cv:
    g from _pair_spectra's cube-pair (u, cu) and sixth-pair (v, cv) values,
    and a pair spectrum from powers(k, P) twice, every count 1.  One value s
    of v at a time: the values t of u with lo <= s + t < lo + len(out) are
    one slice u[i:j], since u is sorted, and np.add.at adds cv[s] cu[t] at
    s + t - lo over that slice's views, in the counts' type.  A call scatters
    into the window alone and holds only its slice's index and product."""
    out[:] = 0
    starts = np.searchsorted(u, lo - v).tolist()
    ends = np.searchsorted(u, lo + len(out) - v).tolist()
    for s, weight, i, j in zip(v.tolist(), cv, starts, ends):
        if i < j:
            np.add.at(out, u[i:j] + (s - lo), cu[i:j] * weight)


def _cube_sixth_spectrum(P3: int, P6: int, limit: int) -> np.ndarray:
    """g[m] for m <= limit, of length limit + 1, in _pair_spectra's type,
    filled by `workers.blocks` in value windows of WINDOW entries, one
    contiguous run of them per worker, so each window's scatter stays within
    one core's L2.  np.add.at holds the GIL, so windows cut shorter to give
    every worker a run would gain nothing."""
    spectra = _pair_spectra(P3, P6, limit)
    g = np.empty(limit + 1, dtype=spectra[1].dtype)
    workers.blocks(lambda lo, hi: _fill_spectrum(g[lo:hi], lo, *spectra),
                   limit + 1, WINDOW)
    return g


def check_single_target(n: int) -> int:
    """The refusals of rep_count_single, raised before any work."""
    n = check_count(n, "target n")
    if n > SINGLE_TARGET_BUDGET:
        raise BudgetError(
            f"single target n={n} beyond budget {SINGLE_TARGET_BUDGET} "
            f"(a time budget: it sums {n - 1} cube/sixth counts, one window at a time)"
        )
    return n


def check_range(X: int) -> int:
    """The refusals of rep_count_range, raised before any work."""
    return check_count(X, "range bound X", budget=RANGE_BUDGET)


def _window_length(n: int) -> int:
    """Entries of g per window of rep_count_single: WINDOW, or the least
    power of two L at which each row at the diagonal, y ~ sqrt(n / 2), holds
    L / (2 y) >= ANNULUS_WIDTH cells of the annulus.  There the rows' ranges
    shift by a column a row, so a rectangle of rows wastes little (2^25
    entries, 64 MiB of int16, at n = 1e10)."""
    return max(WINDOW, 1 << (ANNULUS_WIDTH * math.isqrt(2 * n) - 1).bit_length())


def _isqrt(v: np.ndarray) -> np.ndarray:
    """floor(sqrt(v)) of an int64 array 0 <= v < 2^52, where the float root
    is off by at most one."""
    r = np.sqrt(v).astype(np.int64)
    r -= r * r > v
    r += (r + 1) * (r + 1) <= v
    return r


def _annulus_blocks(n: int, lo: int, hi: int):
    """The rectangles (x0, x1, c0, c1), rows x0 <= x < x1 by columns
    c0 <= y <= c1, that cover the square pairs x <= y with
    lo <= n - x^2 - y^2 < hi.

    Row x holds the cells y in [a(x), b(x)], from the integer roots of the
    window's edges.  A block takes as many rows as fit GATHER_BLOCK cells (one
    row at least), over the columns from a(x1 - 1) up to b(x0), the rectangle
    widening as each row's range falls.  A block that reaches the diagonal,
    a(x1 - 1) < x1, starts at column x0 instead, so its corner square
    x0 <= y < x1 holds every cell it has with y < x."""
    rows = math.isqrt((n - lo) // 2)
    sq = powers(2, rows)
    a = (_isqrt(np.maximum(n - hi - sq, 0)) + 1).tolist()
    b = _isqrt(n - lo - sq).tolist()
    x0 = 1
    while x0 <= rows:
        c1 = b[x0 - 1]
        first = c1 - max(x0, a[x0 - 1]) + 1
        if first <= 0:  # an empty row, in a window narrower than a row's step
            x0 += 1
            continue
        fit, top = 1, min(rows - x0 + 1, max(1, GATHER_BLOCK // first))
        while fit < top:
            h = (fit + top + 1) // 2
            c0 = a[x0 + h - 2]
            if h * (c1 - (x0 if c0 < x0 + h else c0) + 1) <= GATHER_BLOCK:
                fit = h
            else:
                top = h - 1
        x1 = x0 + fit
        c0 = a[x1 - 2]
        yield x0, x1, x0 if c0 < x1 else c0, c1
        x0 = x1


def _annulus_sum(buf, lo: int, n: int, squares, cells, values) -> int:
    """sum_{x<=y} (2 - [x == y]) g[n - x^2 - y^2] over the square pairs with
    lo <= n - x^2 - y^2 < hi, where buf = [0, g[lo:hi], 0], in the blocks of
    _annulus_blocks.  A block's indices are clipped into the zero pads of buf,
    so its cells off their row's range add nothing.  A block that starts at
    its first row, c0 = x0, takes twice its sum less its corner square: that
    square is symmetric in x and y, so its sum is twice its strict lower part
    (y < x) plus its diagonal.  `cells` and `values` are scratch for one
    block; squares[y - 1] = y^2."""
    base = (n - lo + 1) - squares  # the index in buf of n - x^2 - y^2 is base - y^2
    total = 0
    for x0, x1, c0, c1 in _annulus_blocks(n, lo, lo + len(buf) - 2):
        shape = (x1 - x0, c1 - c0 + 1)
        idx = cells[: shape[0] * shape[1]].reshape(shape)
        np.subtract(base[x0 - 1 : x1 - 1, None], squares[c0 - 1 : c1], out=idx)
        got = np.take(buf, idx, out=values[: idx.size].reshape(shape), mode="clip")
        total += 2 * int(got.sum())
        if c0 == x0:
            total -= int(got[:, : x1 - x0].sum())
    return total


def rep_count_single(n: int) -> int:
    """Exact R(n): the cube/sixth spectrum g summed over the square pairs,
    R(n) = sum_{x<=y} (2 - [x == y]) g[n - x^2 - y^2], one value window of g
    at a time.

    The windows [lo, hi) of _window_length(n) entries cover [0, n - 1), since
    x^2 + y^2 >= 2; they are handed out by `workers.blocks`, and each run of
    windows has one buffer, where _fill_spectrum writes g[lo:hi] between two
    zero pads, and _annulus_sum gathers the square pairs with
    n - hi < x^2 + y^2 <= n - lo."""
    n = check_single_target(n)
    if n < 6:
        return 0
    spectra = _pair_spectra(iroot(n - 4, 3), iroot(n - 4, 6), n - 2)
    squares = powers(2, math.isqrt(n))
    length = min(_window_length(n), n - 1)
    sums = [0] * -(-(n - 1) // length)
    # a block holds GATHER_BLOCK cells, or one row of at most isqrt(length) + 1
    size = max(GATHER_BLOCK, math.isqrt(length) + 2)

    def scratch():
        dtype = spectra[1].dtype
        return np.zeros(length + 2, dtype), np.empty(size, np.intp), np.empty(size, dtype)

    def window(w, _, scratch):
        buf, cells, values = scratch
        lo = w * length
        buf = buf[: min(length, n - 1 - lo) + 2]
        _fill_spectrum(buf[1:-1], lo, *spectra)
        buf[-1] = 0
        sums[w] = _annulus_sum(buf, lo, n, squares, cells, values)

    workers.blocks(window, len(sums), 1, scratch)
    return sum(sums)


def rep_count_range(X: int, cache_dir: str | None = None) -> RangeCounts:
    """Exact R(n) for every n <= X via one exact convolution, of which only
    the first X + 1 entries are formed.  Both spectra enter it in their
    narrowest integer types (int16 at every admitted X), which the engine
    reads through views: the square-pair spectrum, a narrow copy of its
    first X + 1 entries, holds 2 bytes an entry through the product, not 8."""
    X = check_range(X)
    P2, P3, P6 = iroot(X, 2), iroot(X, 3), iroot(X, 6)
    # a narrow copy, so the spectrum, twice as long and int64, is freed
    # before the transforms
    sq = _cached_pair_spectrum(2, P2, cache_dir).counts[: X + 1]
    sq = sq.astype(_count_dtype(int(sq.max())))
    g = _cube_sixth_spectrum(P3, P6, X)
    values = exact_convolve(g, sq, X + 1)
    if X >= 6 and values[:6].any():
        raise AssertionError("convolution produced counts below the minimum value 6")
    return RangeCounts(X=X, values=values)
