"""Exact integer helpers: k-th roots, trial-division factorisation, and the
enumerators of pair sums and differences, `pair_reduce`, and of quadruple
sums, `quad_reduce`.  Each writes a lattice as packed int64 keys (the calling
thread writes the pair bands; each worker writes its own share of the
quadruple blocks), and workers sort them and reduce them with `key_runs` to
runs of equal value, in chunks that end at run starts.  `key_runs` finds run
starts in one comparison per chunk and, where few keys repeat a value, folds
only the repeated keys.  The key format stays in this module: callers see
only (values, sums) runs."""

import math
from numbers import Integral

import numpy as np

from . import workers
from .errors import BudgetError, PreconditionError

# Trial division is used for every factorisation, so a modulus is factorised
# only up to the square of this bound.
TRIAL_DIVISION_BOUND = 10**6


def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) computed in exact integer arithmetic."""
    if n < 0:
        raise ValueError("iroot requires n >= 0")
    if k < 1:
        raise ValueError("iroot requires k >= 1")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    r = int(round(n ** (1.0 / k)))
    while r > 0 and r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorisation [(p, exponent), ...] by trial division.

    Raises BudgetError above TRIAL_DIVISION_BOUND**2, where a cofactor left
    after trial division up to the bound need not be prime.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    if n > TRIAL_DIVISION_BOUND**2:
        raise BudgetError(f"factorisation budget is n <= {TRIAL_DIVISION_BOUND}**2")
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            h = 0
            while n % f == 0:
                n //= f
                h += 1
            out.append((f, h))
        f += 1 if f == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


# numpy (2.4) adds into a (rows, q) view through its buffered iterator, at
# about half speed and with a fresh buffer of some 138 KB, whenever q <=
# bufsize / 2; the default bufsize is 8192, and at 256 nearly every row add
# takes the unbuffered loop (same bits: a same-dtype add casts nothing).  The
# setting is per thread, so each caller sets it and restores it after.
ADD_BUFSIZE = 256

# keys per run-reduction chunk, whose temporaries stay at a few MiB beside the
# full key array, and per worker at least in a lattice cut into value bands
PAIR_CHUNK = 1 << 18


def powers(k: int, P: int) -> np.ndarray:
    """x**k for x = 1..P as int64."""
    if not isinstance(P, Integral):  # np.arange would run to ceil(P)
        raise PreconditionError(f"bound P={P!r} must be an integer")
    return np.arange(1, P + 1, dtype=np.int64) ** k


def pair_reduce(fn, a: np.ndarray, sign: int = 1, weights=None, limit: int | None = None) -> list:
    """[fn(runs) for each value band] over the pair lattice of a strictly
    increasing int64 a, the bands in increasing order of value, where runs
    yields (values, sums) as key_runs does: each distinct value of the band
    once, in increasing order, with the sum of its weights.

    sign=1 takes the triangle a[i] + a[j], i <= j, with weight w[i] w[j]
    doubled off the diagonal, so the weights of a value sum to its number of
    ordered pairs; sign=-1 takes the positive differences a[i] - a[j], i > j,
    with weight w[i] w[j].  weights are positive (all 1 when None), and only
    values <= limit are kept; the bound is applied in exact integers, so no
    excluded pair can wrap into range.  Raises BudgetError if a key could
    pass int64.

    The lattice is cut into value bands, one per worker, or one band on the
    calling thread below PAIR_CHUNK keys per worker: each band's cells are
    found per row in exact integers, as the limit is, so its size is known
    before any key is built.  Each band is written row by row into its own
    slice of one array of packed keys (value << bits) | (weight - 1), and each
    worker sorts and reduces one slice; the bands are value-disjoint, so no
    run of equal values crosses two of them.
    """
    n = len(a)
    w = np.ones(n, dtype=np.int64) if weights is None else np.asarray(weights, dtype=np.int64)
    first, last = (int(a[0]), int(a[-1])) if n else (0, 0)
    low, high = (2 * first, 2 * last) if sign == 1 else (1, last - first)
    high = high if limit is None else min(high, limit)
    rows, exact = np.arange(n), a.astype(object)

    def edge(bound, values=exact):
        """Per row, the column where the cells of value <= bound end (sign=1)
        or begin (sign=-1): exact for the object array of a, an estimate for
        its floats."""
        if sign == 1:
            return np.maximum(rows, np.searchsorted(values, bound - values, "right"))
        return np.minimum(rows, np.searchsorted(values, values - bound, "left"))

    top = edge(high)
    total = int(np.abs(top - rows).sum())
    double = 2 if sign == 1 else 1  # the triangle stands for both ordered pairs
    w_top = double * int(w.max(initial=1)) ** 2
    bits = _key_bits("pair", low, high, w_top) if total else (w_top - 1).bit_length()

    # band b holds the values in (bounds[b - 1], bounds[b]]; each bound is the
    # least value whose float count estimate reaches b / parts of the lattice
    parts = workers.WORKERS if total >= PAIR_CHUNK * workers.WORKERS else 1
    floats, bounds = a.astype(np.float64), [low]
    for b in range(1, parts):
        lo, hi = bounds[-1], high
        while lo < hi:
            mid = (lo + hi) // 2
            if parts * int(np.abs(edge(mid, floats) - rows).sum()) < b * total:
                lo = mid + 1
            else:
                hi = mid
        bounds.append(lo)
    edges = [rows, *(edge(v) for v in bounds[1:]), top]
    # row i of a band keeps the columns [start[i], stop[i])
    bands = [(e0, e1) if sign == 1 else (e1, e0) for e0, e1 in zip(edges, edges[1:])]
    ends = np.cumsum([int((stop - start).sum()) for start, stop in bands])

    # key = (a[i] << bits) +- (a[j] << bits) + weight - 1, computed only for
    # the cells of a row's range, so every sum is a key that fits; unit
    # weights fold into the row term
    shifted = a << bits
    head = shifted + (double - 1 if weights is None else -1)
    op = np.add if sign == 1 else np.subtract

    # the bands are written in turn on this thread: a row is one short ufunc
    # call, and two threads would pass the GIL back and forth between them;
    # each sort releases it for its whole length
    keys = np.empty(int(ends[-1]), dtype=np.int64)
    pos = 0
    for start, stop in bands:
        for i in np.flatnonzero(stop > start).tolist():
            s, e = int(start[i]), int(stop[i])
            row = keys[pos : pos + e - s]
            op(head[i], shifted[s:e], out=row)
            if weights is not None:
                row += double * w[i] * w[s:e]
            if sign == 1 and s == i:
                row[0] -= w[i] ** 2
            pos += e - s

    def reduce_band(band):
        band.sort()
        return fn(key_runs(band, bits))

    return workers.run(lambda band=band: reduce_band(band) for band in np.split(keys, ends[:-1]))


def _key_bits(what: str, low: int, high: int, w_top: int) -> int:
    """The weight bits of packed keys (value << bits) | (weight - 1) for values
    in [low, high] and weights up to w_top; raises BudgetError if a key could
    pass int64."""
    bits = (w_top - 1).bit_length()
    if not -(2**63) <= low << bits <= (high << bits) + w_top - 1 < 2**63:
        raise BudgetError(f"{what} values up to {high} with {bits} weight bits overflow int64 keys")
    return bits


# weight - 1 of a sorted quadruple y1 <= y2 <= y3 <= y4, indexed by the
# equalities [y1 = y2][y2 = y3][y3 = y4]: its number of orderings,
# 24 / prod(m!) over the multiplicities m, is 24, 12, 6 (two pairs), 4 or 1
_QUAD_CODE = np.array([[[23, 11], [11, 3]], [[11, 5], [3, 0]]], dtype=np.int64)


def quad_reduce(fn, a: np.ndarray) -> list:
    """[fn(runs) for each value part] over the sums a[i] + a[j] + a[k] + a[l]
    of a strictly increasing int64 a, the parts in increasing order of value,
    where runs yields (values, sums) as key_runs does: each distinct value
    once, with its number of ordered quadruples.  Raises BudgetError if a key
    could pass int64.

    Each sorted quadruple i <= j <= k <= l is one key (value << 5) | (weight -
    1), its weight its number of orderings, so n values give C(n + 3, 4) keys,
    a third of the pairs of pair sums at large n.  With the pairs (c, d),
    c <= d, in lexicographic order, the second pairs (k, l) of the first pairs
    (i, j) are the suffix of pairs with c >= j, so the keys of each j are one
    broadcast add, its cells cut by y1 = y2 (the last row) and y2 = y3 (the
    leading second pairs (j, d)).

    At PAIR_CHUNK keys per worker or more, each worker writes the blocks of
    one contiguous share of the j, about an equal share of the keys, into
    the one key array; the array is then partitioned in place at
    equal-count cuts and each band sorted on its own worker, so no second
    key array is allocated; the sorted array is then reduced in
    value-disjoint parts, each cut at a run start, one per worker.
    """
    n = len(a)
    first, last = (int(a[0]), int(a[-1])) if n else (0, 0)
    bits = _key_bits("quadruple", 4 * first, 4 * last, 24)
    shifted = a << bits
    c, d = np.triu_indices(n)
    pair, e3 = shifted[c] + shifted[d], (c == d).astype(np.intp)
    # col[e1][e2]: each second pair's shifted sum plus the weight code of its
    # quadruple when y1 = y2 is e1 and y2 = y3 is e2
    col = [[pair + _QUAD_CODE[e1, e2][e3] for e2 in (0, 1)] for e1 in (0, 1)]
    # the block of j holds (j + 1) rows of the n - j + 1 choose 2 second
    # pairs with c >= j, and ends where the keys of j' <= j end
    middle = np.arange(n, dtype=np.int64)
    ends = np.cumsum((middle + 1) * (n - middle) * (n - middle + 1) // 2)
    keys = np.empty(math.comb(n + 3, 4), dtype=np.int64)

    def fill(lo, hi):
        old = np.setbufsize(ADD_BUFSIZE)
        try:
            for j in range(lo, hi):
                s, lead = j * n - j * (j - 1) // 2, n - j  # the pairs (j, d) start the suffix
                block = keys[ends[j] - (j + 1) * (len(pair) - s) : ends[j]].reshape(j + 1, -1)
                head = shifted[: j + 1, None] + shifted[j]
                for e1, rows in ((0, slice(0, j)), (1, slice(j, j + 1))):
                    np.add(head[rows], col[e1][1][s : s + lead], out=block[rows, :lead])
                    np.add(head[rows], col[e1][0][s + lead :], out=block[rows, lead:])
        finally:
            np.setbufsize(old)

    # each worker fills one run of middle indices j holding about an equal
    # share of the keys; a block's adds are long enough to release the GIL
    bands = workers.WORKERS if len(keys) >= PAIR_CHUNK * workers.WORKERS else 1
    cuts = [len(keys) * b // bands for b in range(1, bands)]
    shares = [0, *np.searchsorted(ends, cuts).tolist(), n]
    workers.run(lambda lo=lo, hi=hi: fill(lo, hi) for lo, hi in zip(shares, shares[1:]))
    if cuts:
        keys.partition(cuts)
    workers.run(band.sort for band in np.split(keys, cuts))
    parts = np.split(keys, np.searchsorted(keys, keys[cuts] >> bits << bits))  # at run starts
    return workers.run(lambda part=part: fn(key_runs(part, bits)) for part in parts)


def key_runs(keys: np.ndarray, bits: int):
    """Yield (values, sums) over sorted packed keys, one chunk of about
    PAIR_CHUNK keys at a time: each distinct value once, in increasing order,
    with the sum of its weights (with bits = 0, plain sorted values and their
    run lengths, where a chunk with no repeats yields a view of the keys as
    its values).  Each chunk ends at the start of a run, so no run crosses
    two chunks and no array of full length is built besides the keys.

    A key starts a run when it passes its predecessor with every weight bit
    set.  In a chunk where at most one key in 32 repeats a value (the moment
    lattices), every key keeps its weight, the repeated keys alone are folded
    into the first key of their run, and the run starts are kept; otherwise
    (the square-pair sums) a run's weight is read off prefix sums of the
    weights at the run starts."""
    mask = (1 << bits) - 1
    cuts = np.searchsorted(keys, keys[PAIR_CHUNK::PAIR_CHUNK] >> bits << bits)
    for chunk in np.split(keys, cuts):
        if not len(chunk):
            continue
        first = np.empty(len(chunk), dtype=bool)
        first[0] = True
        np.greater(chunk[1:], chunk[:-1] | mask if bits else chunk[:-1], out=first[1:])
        repeats = len(chunk) - np.count_nonzero(first)
        if repeats * 32 > len(chunk):
            starts = np.flatnonzero(first)
            runs = chunk[starts]
            if bits:  # a run's weight is the difference of two prefix sums
                prefix = np.zeros(len(chunk) + 1, dtype=np.int64)
                weights = np.bitwise_and(chunk, mask, out=prefix[1:])
                weights += 1
                np.cumsum(weights, out=weights)
                sums = np.diff(prefix[np.append(starts, len(chunk))])
            else:
                sums = np.diff(starts, append=len(chunk))
        else:
            runs = chunk[first] if repeats else chunk
            sums = runs & mask
            sums += 1
            if repeats:
                # the repeated keys of one run are consecutive, and those of
                # two runs are parted by a run start; once the repeats are
                # dropped, a run's start sits one place before its first
                # repeat, less the number of repeats before that
                rep = np.flatnonzero(~first)
                lead = np.flatnonzero(np.diff(rep, prepend=-2) != 1)
                sums[rep[lead] - 1 - lead] += np.add.reduceat((chunk[rep] & mask) + 1, lead)
        yield (runs >> bits if bits else runs), sums


def pair_values(a: np.ndarray, sign: int = 1, weights=None, limit: int | None = None):
    """Distinct values of the pair lattice of pair_reduce, with the sum of the
    weights of each, as two int64 arrays (values increasing)."""
    bands = pair_reduce(list, a, sign, weights, limit)
    runs = [(np.empty(0, dtype=np.int64),) * 2, *(run for band in bands for run in band)]
    return tuple(map(np.concatenate, zip(*runs)))
