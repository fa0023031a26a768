"""Exact integer helpers: k-th roots, trial-division factorisation, and the
enumerators of pair sums and differences, `pair_reduce`, and of quadruple
sums, `quad_reduce`.  Each cuts its lattice into value windows of about
WINDOW_KEYS packed int64 keys, with every window's bounds and every row's
cells per window found in one pass in exact integers; each worker writes,
sorts and reduces one window at a time with `key_runs` to runs of equal
value, in chunks that end at run starts, so no call holds a whole lattice.
`key_runs` finds run starts in one comparison per chunk and folds only the
repeated keys, one fold for sparse and dense chunks alike.  The dense
pair-sum spectra are not reduced here: `repcount._fill_spectrum` fills them
as it fills g.  The key format stays in this module: callers see only
(values, sums) runs."""

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
    if not isinstance(n, Integral):  # 2.5 would come back as its own prime
        raise PreconditionError(f"factorize requires an integer n, got {n!r}")
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

# keys per run-reduction chunk and per fill chunk of a value window, whose
# temporaries stay a few hundred KiB per worker; a lattice of fewer keys per
# worker is one window, on the calling thread
PAIR_CHUNK = 1 << 16

# keys per value window of a lattice, at most on average: each worker writes,
# sorts and reduces one window (up to 8 MiB of keys) at a time in one buffer
WINDOW_KEYS = 1 << 20

# sampled cells per window; the window bounds are quantiles of the sample
_SAMPLE_PER_WINDOW = 1 << 11


def powers(k: int, P: int) -> np.ndarray:
    """x**k for x = 1..P as int64."""
    if not isinstance(P, Integral):  # np.arange would run to ceil(P)
        raise PreconditionError(f"bound P={P!r} must be an integer")
    return np.arange(1, P + 1, dtype=np.int64) ** k


def pair_reduce(fn, a: np.ndarray, sign: int = 1, limit: int | None = None) -> list:
    """[fn(runs) for each value window] over the pair lattice of a strictly
    increasing int64 a, the windows in increasing order of value, where runs
    yields (values, sums) as key_runs does: each distinct value of the window
    once, in increasing order, with its number of ordered pairs.

    sign=1 takes the triangle a[i] + a[j], i <= j, each cell off the diagonal
    standing for both of its ordered pairs; sign=-1 takes the positive
    differences a[i] - a[j], i > j.  Only values <= limit are kept; the bound
    is applied in exact integers, so no excluded pair can wrap into range.
    Raises BudgetError if a key could pass int64.

    Each row holds cells of increasing value, as _windows needs: for sign=1
    row i holds the cells j > i and a second row the diagonal j = i; for
    sign=-1 row i holds the cells j < i from the largest j down, read from
    the reversed source -a[::-1].  A key is (value << bits) | (weight - 1),
    the weight 2 off the diagonal and 1 on it for sign=1, bits = 0 for sign=-1.
    """
    n = len(a)
    first, last = (int(a[0]), int(a[-1])) if n else (0, 0)
    low, high = (2 * first, 2 * last) if sign == 1 else (1, last - first)
    high = high if limit is None else min(high, limit)
    # a row's cell of value <= bound is a source value <= bound - row value;
    # the bounds, those needles and -a are int64 unless a spans nearly all of
    # it, and then the values are held as Python ints
    wide = first == -(2**63) or not (-(2**63) <= min(low, high) - last
                                     and max(high, high - first) < 2**63)
    exact = a.astype(object) if wide else a
    i = np.arange(n)
    if sign == 1:
        row_a, source_a = np.concatenate([exact, exact]), exact
        row_lo, row_hi = np.concatenate([i + 1, i]), np.concatenate([np.full(n, n), i + 1])
    else:
        row_a, source_a, row_lo, row_hi = exact, -exact[::-1], n - i, np.full(n, n)

    def edge(bounds):
        """Per bound and row, the end of the row's cells of value <= bound."""
        needles = np.array(bounds, dtype=row_a.dtype)[:, None] - row_a
        return np.clip(source_a.searchsorted(needles, "right"), row_lo, row_hi)

    top = edge([high])[0]
    w_top = 2 if sign == 1 else 1
    bits = _key_bits("pair", low, high, w_top) if int((top - row_lo).sum()) else w_top - 1
    # key = (a[i] << bits) +- (a[j] << bits) + weight - 1, the row term and
    # the source term each wrapping alike in int64, so every key that fits
    # is exact; the weight code rides on the row term
    shifted = a << bits
    if sign == 1:
        head, source = np.concatenate([shifted + 1, shifted]), shifted
    else:
        head, source = shifted, np.negative(shifted[::-1])
    return _windows(fn, bits, head, source, row_lo, top, edge)


def _key_bits(what: str, low: int, high: int, w_top: int) -> int:
    """The weight bits of packed keys (value << bits) | (weight - 1) for values
    in [low, high] and weights up to w_top; raises BudgetError if a key could
    pass int64."""
    bits = (w_top - 1).bit_length()
    if not -(2**63) <= low << bits <= (high << bits) + w_top - 1 < 2**63:
        raise BudgetError(f"{what} values up to {high} with {bits} weight bits overflow int64 keys")
    return bits


def _ragged(lo: np.ndarray, counts: np.ndarray, step: int = 1) -> np.ndarray:
    """The positions lo[r] + step * t, t < counts[r], row after row."""
    starts = np.cumsum(counts) - counts
    cells = np.repeat(lo - step * starts, counts)
    cells += np.arange(0, step * len(cells), step)
    return cells


def _cells(keys, head, source, lo, hi) -> np.ndarray:
    """keys[:size] := the keys head[r] + source[k], k in [lo[r], hi[r]), row
    after row, written in runs of rows of about PAIR_CHUNK cells, so the index
    temporaries stay small whatever the window's size."""
    counts = hi - lo
    ends = np.cumsum(counts)
    keys = keys[: int(ends[-1]) if len(ends) else 0]
    cuts = np.searchsorted(ends, np.arange(PAIR_CHUNK, len(keys), PAIR_CHUNK)) + 1
    for r0, r1 in zip([0, *cuts.tolist()], [*cuts.tolist(), len(counts)]):
        if r0 >= r1:
            continue
        out = keys[ends[r0] - counts[r0] : ends[r1 - 1]]
        cells = _ragged(lo[r0:r1], counts[r0:r1])
        np.take(source, cells, out=out, mode="clip")
        out += np.repeat(head[r0:r1], counts[r0:r1])
    return keys


def _sample_bounds(bits: int, head, source, row_lo, row_hi, parts: int) -> list:
    """The distinct values at the w / parts quantiles, 0 < w < parts, of every
    step-th cell of every step-th row, about _SAMPLE_PER_WINDOW cells per
    part."""
    step = max(1, math.isqrt(int((row_hi - row_lo).sum()) // (_SAMPLE_PER_WINDOW * parts)))
    rows = np.arange(0, len(head), step)
    counts = np.maximum(0, -(-(row_hi[rows] - row_lo[rows]) // step))
    sample = source[_ragged(row_lo[rows], counts, step)]
    sample += np.repeat(head[rows], counts)
    sample >>= bits
    sample.sort()
    picks = sample[len(sample) * np.arange(1, parts) // parts]  # np.unique would load numpy.ma
    return picks[np.r_[True, picks[1:] != picks[:-1]]].tolist()


def _windows(fn, bits: int, head, source, row_lo, row_hi, edge) -> list:
    """[fn(key_runs(keys, bits)) for each value window] of a lattice whose row
    r holds the keys head[r] + source[k], k in [row_lo[r], row_hi[r]), in
    increasing order of value (key >> bits).

    The windows are the value ranges (b[w], b[w + 1]]: one window below
    PAIR_CHUNK keys per worker, else the least multiple of WORKERS windows of
    at most WINDOW_KEYS keys each on average.  Their bounds are the quantiles
    of a strided sample of the cells, and edge(bounds), an array of one row
    per bound, gives each row's end of its cells of value <= each bound.  So
    all window bounds and every row's cells per window come from one pass in
    exact integers, and each window's size is known before its keys are
    built.  Each worker writes, sorts and reduces a contiguous run of
    windows, one at a time; the windows are value-disjoint, so no run of
    equal values crosses two of them.
    """
    total, count = int((row_hi - row_lo).sum()), workers.WORKERS
    parts = 1 if total < PAIR_CHUNK * count else count * -(-total // (count * WINDOW_KEYS))
    bounds = _sample_bounds(bits, head, source, row_lo, row_hi, parts) if parts > 1 else []
    edges = [row_lo, *edge(bounds), row_hi] if bounds else [row_lo, row_hi]
    results = [None] * (len(edges) - 1)
    sizes = [int((hi - lo).sum()) for lo, hi in zip(edges, edges[1:])]

    def window(w, _, keys):
        keys = _cells(keys, head, source, edges[w], edges[w + 1])
        keys.sort()
        results[w] = fn(key_runs(keys, bits))

    # one key buffer per worker, for each of its windows in turn
    workers.blocks(window, len(results), 1, lambda: np.empty(max(sizes), dtype=np.int64))
    return results


# weight - 1 of a sorted quadruple y1 <= y2 <= y3 <= y4, indexed by the
# equalities [y1 = y2][y2 = y3][y3 = y4]: its number of orderings,
# 24 / prod(m!) over the multiplicities m, is 24, 12, 6 (two pairs), 4 or 1
_QUAD_CODE = np.array([[[23, 11], [11, 3]], [[11, 5], [3, 0]]], dtype=np.int64)


def _quad_source(a: np.ndarray, bits: int):
    """(source, start, size): segment j, at start[j] of length size[j], holds
    the keys ((a[c] + a[d]) << bits) + code of the pairs j <= c <= d, sorted,
    each code the weight - 1 of a quadruple with y1 < y2, y2 = y3 as c = j
    and y3 = y4 as c = d; the second half of source repeats the segments,
    coded for y1 = y2."""
    n = len(a)
    c, d = np.triu_indices(n)
    sums = a[c] + a[d]
    order = np.argsort(sums)
    c, e3, keyed = c[order], (c == d)[order], sums[order] << bits
    code = _QUAD_CODE.reshape(2, 4)  # by [y1 = y2][2 [y2 = y3] + [y3 = y4]]
    size = (n - np.arange(n)) * (n - np.arange(n) + 1) // 2
    start = np.cumsum(size) - size
    half = int(size.sum())
    source = np.empty(2 * half, dtype=np.int64)
    for j in range(n):
        kept = np.flatnonzero(c >= j)
        pair_code = 2 * (c[kept] == j) + e3[kept]
        for copy, codes in enumerate(code):
            at = copy * half + start[j]
            np.add(keyed[kept], codes[pair_code], out=source[at : at + size[j]])
    return source, start, size


def quad_reduce(fn, a: np.ndarray) -> list:
    """[fn(runs) for each value window] over the sums a[i] + a[j] + a[k] +
    a[l] of a strictly increasing int64 a, the windows in increasing order of
    value, where runs yields (values, sums) as key_runs does: each distinct
    value once, with its number of ordered quadruples.  Raises BudgetError if
    a key could pass int64.

    Each sorted quadruple i <= j <= c <= d is one key (value << 5) | (weight -
    1), its weight its number of orderings, so n values give C(n + 3, 4) keys,
    a third of the pairs of pair sums at large n.  Row (i, j), i <= j, holds
    the second pairs (c, d), j <= c <= d, in increasing order of value: the
    segment j of _quad_source, 2 C(n + 2, 3) keys for all rows, so one search
    in segment j gives the end of the cells of value <= a bound of every row
    (i, j), as _windows needs.
    """
    n = len(a)
    first, last = (int(a[0]), int(a[-1])) if n else (0, 0)
    bits = _key_bits("quadruple", 4 * first, 4 * last, 24)
    source, start, size = _quad_source(a, bits)
    # rows (i, j), i <= j, ordered by j, then i
    jj, ii = np.tril_indices(n)
    start, size = start[jj], size[jj]
    row_lo = start + (ii == jj) * (len(source) // 2)
    heads = a[ii] + a[jj]

    def edge(bounds):
        """Per bound and row, the end of the row's cells of value <= bound:
        the second pairs of value <= bound - a[i] - a[j], clipped to the
        segment's values so the search key fits."""
        out = np.empty((len(bounds), len(heads)), dtype=np.intp)
        bounds = np.array(bounds, dtype=np.int64)[:, None]
        for j in range(n):
            rows = slice(j * (j + 1) // 2, (j + 1) * (j + 2) // 2)
            segment = source[start[rows.start] : start[rows.start] + size[rows.start]]
            rest = np.clip(bounds - heads[rows], 2 * first - 1, 2 * last)
            out[:, rows] = segment.searchsorted((rest << bits) | ((1 << bits) - 1), "right")
        out += row_lo
        return out

    return _windows(fn, bits, heads << bits, source, row_lo, row_lo + size, edge)


def key_runs(keys: np.ndarray, bits: int):
    """Yield (values, sums) over sorted packed keys, one chunk of about
    PAIR_CHUNK keys at a time: each distinct value once, in increasing order,
    with the sum of its weights (with bits = 0, plain sorted values and their
    run lengths).  Each chunk ends at the start of a run, so no run crosses
    two chunks and no array of full length is built besides the keys.  The
    arrays yielded are never views of the keys, so a caller may keep them
    after the keys are written over.

    A key starts a run when it passes its predecessor with every weight bit
    set.  The run starts keep their weights, and the repeated keys alone are
    folded into the first key of their run by one reduceat: one fold for the
    sparse chunks of the moment lattices, where few keys repeat a value, and
    for dense ones alike (the dense pair-sum spectra are filled in
    `repcount`, not reduced here)."""
    mask = (1 << bits) - 1
    cuts = np.searchsorted(keys, keys[PAIR_CHUNK::PAIR_CHUNK] >> bits << bits)
    for chunk in np.split(keys, cuts):
        if not len(chunk):
            continue
        first = np.empty(len(chunk), dtype=bool)
        first[0] = True
        np.greater(chunk[1:], chunk[:-1] | mask if bits else chunk[:-1], out=first[1:])
        repeats = len(chunk) - np.count_nonzero(first)
        runs = chunk[first] if repeats else chunk
        sums = runs & mask
        sums += 1
        if repeats:
            # the repeated keys of one run are consecutive, and those of two
            # runs are parted by a run start; once the repeats are dropped, a
            # run's start sits one place before its first repeat, less the
            # number of repeats before that
            rep = np.flatnonzero(~first)
            lead = np.flatnonzero(np.diff(rep, prepend=-2) != 1)
            sums[rep[lead] - 1 - lead] += np.add.reduceat((chunk[rep] & mask) + 1, lead)
        yield (runs >> bits if bits else runs.copy() if runs is chunk else runs), sums


def pair_values(a: np.ndarray, sign: int = 1, limit: int | None = None):
    """Distinct values of the pair lattice of pair_reduce, with the number of
    ordered pairs of each, as two int64 arrays (values increasing)."""
    bands = pair_reduce(list, a, sign, limit)
    runs = [(np.empty(0, dtype=np.int64),) * 2, *(run for band in bands for run in band)]
    return tuple(map(np.concatenate, zip(*runs)))
