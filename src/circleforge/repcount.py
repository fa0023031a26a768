"""Exact representation counts R(n) for n = x1^2+x2^2+x3^3+x4^3+x5^6+x6^6
with positive integers x_i.

Both paths share one exact integer cube/sixth spectrum g, filled in one
value window per worker.  A single target sums g[n - x^2 - y^2] over the
square pairs in 2-D blocks of rows x, handed out by `workers.blocks`; a full
range convolves g with the square-pair spectrum through the exact transform
backend.  Tuples are ordered and every variable starts at 1, so the least
representable value is 6.
"""

import hashlib
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from . import workers
from .errors import BudgetError, PreconditionError
from .exactconv import FLOAT_EXACT_LIMIT, exact_convolve
from .intmath import iroot, pair_values, powers
from .powersums import _check_exponent

PAIR_INDEX_BUDGET = 2 * 10**8  # entries in a pair spectrum
SINGLE_TARGET_BUDGET = 2 * 10**8  # practical memory ceiling for one target
# a memory budget: scan(3e7) peaks near 2 GiB; the range product is formed in
# pieces below X + 1, so no transform length limits X any more
RANGE_BUDGET = 3 * 10**7
GATHER_BLOCK = 2**15  # entries of g that one block of rep_count_single gathers

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
    """Exact pair-sum spectrum: the ordered-pair counts of pair_values, by value."""
    _check_exponent(k)
    if P < 1:
        raise PreconditionError("bound P must be >= 1")
    length = 2 * P**k + 1
    if length > PAIR_INDEX_BUDGET:
        raise BudgetError(
            f"pair spectrum needs {length} entries "
            f"({length * 8 / 2**30:.1f} GiB), budget is {PAIR_INDEX_BUDGET}"
        )
    values, mult = pair_values(powers(k, P))
    counts = np.zeros(length, dtype=np.int64)
    counts[values] = mult
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


def _cube_sixth_spectrum(P3: int, P6: int, limit: int) -> np.ndarray:
    """g[m] = #{(x3,x4,x5,x6): x3^3+x4^3+x5^6+x6^6 = m} for m <= limit, of
    length limit + 1, in the narrowest signed integer type that holds
    sum(c6) * max(c3).  The entries are filled in one value window of about
    equal length per worker, handed to `workers.blocks`."""
    # the P3^2 * P6^2 quadruples bound every sum of entries; below 2^53 they
    # keep the float convolution of g exact
    if (P3 * P6) ** 2 >= FLOAT_EXACT_LIMIT:
        raise BudgetError(f"cube/sixth spectrum of {(P3 * P6) ** 2} tuples, not below 2^53")
    v3, c3 = pair_values(powers(3, P3), limit=limit)
    v6, c6 = pair_values(powers(6, P6), limit=limit)
    # sum(c6) * max(c3) also bounds each product w * c3 and each partial sum
    dtype = _count_dtype(int(c6.sum()) * int(c3.max(initial=0)))
    c3 = c3.astype(dtype)
    g = np.zeros(limit + 1, dtype=dtype)

    def fill(lo, hi):
        # the cube-pair values v with lo <= s + v < hi, for each sixth-power
        # value s; v3 is distinct, so no index repeats within one add
        starts = np.searchsorted(v3, lo - v6).tolist()
        ends = np.searchsorted(v3, hi - v6).tolist()
        for s, w, a, b in zip(v6.tolist(), c6.tolist(), starts, ends):
            g[s + v3[a:b]] += w * c3[a:b]

    workers.blocks(fill, limit + 1, -(-(limit + 1) // workers.WORKERS))
    return g


def check_single_target(n: int) -> None:
    """The refusals of rep_count_single, raised before any work."""
    if n < 1:
        raise PreconditionError("target n must be >= 1")
    if n > SINGLE_TARGET_BUDGET:
        raise BudgetError(
            f"single target n={n} beyond budget {SINGLE_TARGET_BUDGET} "
            f"(needs a cube/sixth spectrum of {n - 1} entries)"
        )


def check_range(X: int) -> None:
    """The refusals of rep_count_range, raised before any work."""
    if X < 1:
        raise PreconditionError("range bound X must be >= 1")
    if X > RANGE_BUDGET:
        raise BudgetError(f"range bound X={X} beyond budget {RANGE_BUDGET}")


def _gather_edges(n: int) -> list:
    """Edges of the blocks of rows x = 1..iroot((n - 4) // 2, 2) that
    rep_count_single gathers: each block takes as many rows as fit
    GATHER_BLOCK entries of its first, widest row (one row at least), so the
    blocks carry about equal work and depend on n alone."""
    last = iroot((n - 4) // 2, 2)
    edges = [1]
    while edges[-1] <= last:
        x = edges[-1]
        width = iroot(n - 4 - x * x, 2) - x + 1
        edges.append(min(last + 1, x + max(1, GATHER_BLOCK // width)))
    return edges


def rep_count_single(n: int) -> int:
    """Exact R(n): the cube/sixth spectrum g summed over the square pairs,
    R(n) = sum_{x<=y} (2 - [x == y]) g[n - x^2 - y^2].

    The rows x are cut into the blocks of _gather_edges, handed out by
    `workers.blocks`; a block of rows x0 <= x < x1 gathers g once over the
    columns x0 <= y <= e(x0), the last column of its first row, and takes
    twice the sum less the corner square x0 <= y < x1: that square is
    symmetric in x and y, so its sum is twice its strict lower part (y < x)
    plus its diagonal.  Beyond a row's own last column the index falls below
    4 and is clipped to 0, and g[0..3] = 0 since the least quadruple sum is 4."""
    check_single_target(n)
    if n < 6:
        return 0
    g = _cube_sixth_spectrum(iroot(n - 4, 3), iroot(n - 4, 6), n - 2)
    squares = powers(2, iroot(n - 4, 2))
    edges = _gather_edges(n)
    sums = [0] * (len(edges) - 1)

    def fill(lo, hi):
        for j in range(lo, hi):
            x0, x1 = edges[j], edges[j + 1]
            rows = n - squares[x0 - 1 : x1 - 1]
            idx = rows[:, None] - squares[x0 - 1 : iroot(n - 4 - x0 * x0, 2)]
            block = g[np.maximum(idx, 0, out=idx)]
            sums[j] = 2 * int(block.sum()) - int(block[:, : x1 - x0].sum())

    workers.blocks(fill, len(sums), 1)
    return sum(sums)


def rep_count_range(X: int, cache_dir: str | None = None) -> RangeCounts:
    """Exact R(n) for every n <= X via one exact convolution, of which only
    the first X + 1 entries are formed."""
    check_range(X)
    P2, P3, P6 = iroot(X, 2), iroot(X, 3), iroot(X, 6)
    # a copy, so the spectrum, twice as long, is freed before the transforms
    sq_trunc = _cached_pair_spectrum(2, P2, cache_dir).counts[: X + 1].copy()
    g = _cube_sixth_spectrum(P3, P6, X)
    values = exact_convolve(g, sq_trunc, X + 1)
    if X >= 6 and values[:6].any():
        raise AssertionError("convolution produced counts below the minimum value 6")
    return RangeCounts(X=X, values=values)
