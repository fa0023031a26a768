import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circleforge import exactconv, repcount
from circleforge.errors import BudgetError, PreconditionError
from circleforge.exactconv import (
    FLOAT_EXACT_LIMIT,
    convolution_value_bound,
    cyclic_histogram_convolution,
    exact_convolve,
)
from circleforge.intmath import iroot, pair_values, powers
from circleforge.repcount import (
    GATHER_BLOCK,
    SINGLE_TARGET_BUDGET,
    WINDOW,
    _annulus_blocks,
    _count_dtype,
    _cube_sixth_spectrum,
    _fill_spectrum,
    _pair_spectra,
    pair_spectrum,
    read_spectrum,
    rep_count_range,
    rep_count_single,
    write_spectrum,
)

from oracles import poly_mod_horner, rep_range_enumeration, rep_single_brute
from test_workers import worker_count

# R(1..20), frozen from full brute-force enumeration
R_SMALL = [0, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 1, 2, 2, 0, 4, 2, 0, 2, 1]


def test_pair_spectrum_examples():
    ps = pair_spectrum(6, 1)
    assert ps.counts[2] == 1 and ps.counts.sum() == 1
    ps = pair_spectrum(6, 2)
    nz = {m: int(c) for m, c in enumerate(ps.counts) if c}
    assert nz == {2: 1, 65: 2, 128: 1}
    ps = pair_spectrum(2, 3)
    nz = {m: int(c) for m, c in enumerate(ps.counts) if c}
    assert nz == {2: 1, 5: 2, 8: 1, 10: 2, 13: 2, 18: 1}
    assert ps.counts.sum() == 9


def test_pair_spectrum_invariants():
    for k, P in ((2, 40), (3, 12), (6, 4)):
        ps = pair_spectrum(k, P)
        assert int(ps.counts.sum()) == P * P
        assert ps.counts[0] == 0 and ps.counts[1] == 0
        assert ps.counts[2] == 1
        diagonal = {2 * x**k for x in range(1, P + 1)}
        for m, c in enumerate(ps.counts):
            if c and m not in diagonal:
                assert c % 2 == 0  # ordered pairs off the diagonal pair up


@pytest.mark.parametrize("k, P", [(k, P) for k in (2, 3, 6) for P in (1, 2, 7, 40)] + [(2, 300)])
def test_pair_spectrum_against_the_lattice(k, P):
    # the fill against the lattice of pair_values scattered by value, and
    # against np.bincount of the full outer sum; (6, 40), 2 * 40^6 + 1
    # entries, is past the index budget and refused before any work
    if 2 * P**k + 1 > repcount.PAIR_INDEX_BUDGET:
        with pytest.raises(BudgetError, match="entries"):
            pair_spectrum(k, P)
        return
    counts = pair_spectrum(k, P).counts
    v = powers(k, P)
    values, mult = pair_values(v)
    scatter = np.zeros(2 * P**k + 1, dtype=np.int64)
    scatter[values] = mult
    outer = np.bincount((v[:, None] + v[None, :]).ravel(), minlength=len(counts))
    assert counts.dtype == np.int64
    assert np.array_equal(counts, scatter) and np.array_equal(counts, outer)


def test_pair_spectrum_peak_memory_is_its_output():
    # the fill holds one slice of at most P values besides its 16 MB output
    pair_spectrum(2, 1000)  # warm-up, so lazy imports do not count
    tracemalloc.start()
    try:
        counts = pair_spectrum(2, 1000).counts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * counts.nbytes, peak


def test_pair_spectrum_budget_guard():
    with pytest.raises(BudgetError) as err:
        pair_spectrum(2, 10**6)
    assert "entries" in str(err.value)


def test_exact_convolve_matches_numpy():
    rng = np.random.default_rng(77)
    a = rng.integers(0, 50, 3000)
    b = rng.integers(0, 50, 4000)
    direct = np.convolve(a, b)
    assert np.array_equal(exact_convolve(a, b), direct)


def test_exact_convolve_empty_rows():
    # an empty 1-D a, as a list or as an int64 array, and a stack of empty rows
    for a in ([], np.zeros(0, np.int64)):
        out = exact_convolve(a, [1])
        assert out.dtype == np.int64 and out.shape == (0,)
    assert exact_convolve(np.zeros((2, 0), np.int64), [1]).shape == (2, 0)


def test_exact_convolve_transform_path():
    rng = np.random.default_rng(78)
    a = rng.integers(0, 100, 60000)
    b = rng.integers(0, 100, 50000)
    via_transform = exact_convolve(a, b)
    # spot-check against direct dot products
    for idx in (0, 777, 44444, 109998):
        lo = max(0, idx - len(b) + 1)
        hi = min(idx, len(a) - 1)
        js = np.arange(lo, hi + 1)
        assert via_transform[idx] == np.dot(a[js], b[idx - js])


def _force_pieces(monkeypatch, k, whole=False):
    """Make exact_convolve cut its rows into k pieces, and b into pieces of
    the same width too unless `whole`, at the least power of two that holds
    a block."""
    def plan(width, nb, length, rows):
        h = -(-width // k)
        b_whole = whole or nb <= h  # a b no longer than a piece stays whole
        return (1 << (h + (nb if b_whole else h) - 2).bit_length(), h, b_whole)
    monkeypatch.setattr(exactconv, "_plan", plan)


def test_exact_convolve_pieces_in_narrow_types(monkeypatch):
    # rows cut into several pieces, with b whole (overlap-add, the chooser's
    # pick for this shape) and with b cut too, read in their own integer types
    # (the int16 spectrum g is never copied to int64), give np.convolve's result.
    # One draw serves every dtype, with one reference per distinct int64 value
    # set: b2 cast to uint8 wraps, so it has its own
    rng = np.random.default_rng(81)
    width = 50000
    L, h, whole = exactconv._plan(width, 3000, width + 2999, 2)
    assert whole and h < width and L >= h + 3000 - 1
    a0 = rng.integers(0, 100, (2, width))
    b1, b2 = rng.integers(0, 1000, 3000), rng.integers(0, 1000, 30000)
    references = {}

    def reference(b):
        key = b.astype(np.int64).tobytes()
        if key not in references:
            references[key] = [np.convolve(row, b.astype(np.int64)) for row in a0]
        return references[key]

    for dtype in (np.uint8, np.int16, np.int32, np.uint32, np.int64):
        a = a0.astype(dtype)
        for b in (b1, b2.astype(dtype)):
            expect = reference(b)
            for k in (None, 3):
                with monkeypatch.context() as patch:
                    if k:
                        _force_pieces(patch, k)
                    out = exact_convolve(a, b)
                assert out.dtype == np.int64
                for got, want in zip(out, expect):
                    assert np.array_equal(got, want), (dtype, len(b), k)
    assert len(references) == 3


def test_exact_convolve_small_shapes_match_numpy():
    # every product, down to 1 x 1, goes through the one certified transform;
    # a has 0..40 columns, as one row and as stacks of 1..3 rows
    rng = np.random.default_rng(82)
    for len_a in range(41):
        for len_b in range(1, 41):
            b = rng.integers(0, 2**12 + 1, len_b)
            for shape in ((len_a,), (1, len_a), (2, len_a), (3, len_a)):
                a = rng.integers(0, 2**20, shape)
                out = exact_convolve(a, b)
                assert out.dtype == np.int64
                assert out.shape == shape[:-1] + (len_a + len_b - 1 if len_a else 0,)
                if len_a:  # np.convolve refuses an empty row
                    for row, got in zip(np.atleast_2d(a), np.atleast_2d(out)):
                        assert np.array_equal(got, np.convolve(row, b)), shape


def test_one_piece_convolution_holds_two_spectra():
    # the scan's count at X = 10^6, g (int16) with the square-pair spectrum,
    # in one piece at length n = 2^21: only b's spectrum and the rows' are
    # live, the inverse is rounded and cast to int64 inside b's, and each
    # forward transform casts its input row to float64 on the way in.  With
    # the staging buffers for the piece and the int64 output, and the
    # certificate's fold through a temporary, tracemalloc saw 66,332,728
    # bytes here
    X, n = 10**6, 1 << 21
    g = _cube_sixth_spectrum(iroot(X, 3), iroot(X, 6), X)
    sq = pair_spectrum(2, iroot(X, 2)).counts[: X + 1].copy()
    exact_convolve(g, sq)
    tracemalloc.start()
    try:
        out = exact_convolve(g, sq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 16 * (n // 2 + 1) + 8 * (X + 1) + 2**16, peak
    assert out.shape == (2 * X + 1,)
    for m in (6, 777_777, X):
        assert out[m] == rep_count_single(m)


def test_exact_convolve_refuses_small_product_by_rounding_bound():
    # the values stay below 2^53 (2^52 at most), but the norms 2^26 * 2^26 give
    # a rounding bound of 16 at transform length 2: a small product is held to
    # the same bound as a large one
    assert convolution_value_bound(np.array([2**26, 0]), np.array([2**26])) < FLOAT_EXACT_LIMIT
    with pytest.raises(BudgetError, match="rounding"):
        exact_convolve([2**26, 0], [2**26])


@settings(max_examples=40, deadline=None)
@given(
    len_a=st.integers(1, 6000),
    len_b=st.integers(1500, 6000),
    rows=st.integers(1, 4),
    bits=st.integers(0, 12),
    density=st.sampled_from([1.0, 0.1, 0.001]),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_convolve_property(len_a, len_b, rows, bits, density, seed):
    # every row of a stack is convolved with the one b
    rng = np.random.default_rng(seed)
    a, b = (
        rng.integers(0, 2**bits + 1, shape) * (rng.random(shape) < density)
        for shape in ((rows, len_a), len_b)
    )
    out = exact_convolve(a, b)
    assert out.dtype == np.int64 and out.shape == (rows, len_a + len_b - 1)
    for row, got in zip(a, out):
        assert np.array_equal(got, np.convolve(row, b))
    if rows == 1:
        assert np.array_equal(exact_convolve(a[0], b), out[0])


def _corrupting_irfft(monkeypatch, index):
    irfft = np.fft.irfft

    def corrupt_irfft(*args, **kwargs):
        out = irfft(*args, **kwargs)
        out[index] += 1.0
        return out

    monkeypatch.setattr(exactconv.np.fft, "irfft", corrupt_irfft)


def test_exact_convolve_certificate_rejects_corruption(monkeypatch):
    _corrupting_irfft(monkeypatch, (..., 12345))
    rng = np.random.default_rng(79)
    a = rng.integers(0, 100, 20000)
    b = rng.integers(0, 100, 20000)
    with pytest.raises(BudgetError, match="certificate"):
        exact_convolve(a, b)


def test_exact_convolve_certificate_rejects_one_corrupt_row(monkeypatch):
    _corrupting_irfft(monkeypatch, (1, 4321))
    rng = np.random.default_rng(81)
    a = rng.integers(0, 100, (3, 20000))
    b = rng.integers(0, 100, 20000)
    with pytest.raises(BudgetError, match="certificate mod 2147483647 in row 1"):
        exact_convolve(a, b)


@pytest.mark.parametrize("pad", [0, 1000])  # short rows, long rows
@pytest.mark.parametrize(
    "a, b", [([2**62, 2**62], [1, 1]), ([2**61] * 4, [2**61] * 4)]
)
def test_exact_convolve_refuses_sums_beyond_int64(a, b, pad):
    # int64 sums of these inputs wrap, to -2^63 and to 0: an int64 value
    # bound let the first through as [2^62, -2^63, 2^62] and the second as zeros
    a, b = (np.pad(np.array(v, dtype=np.int64), (0, pad)) for v in (a, b))
    assert convolution_value_bound(a, b) >= 2**63
    for rows in (a, np.stack([np.ones_like(a), a, np.ones_like(a)])):
        with pytest.raises(BudgetError, match="2\\^53"):
            exact_convolve(rows, b)


def test_block_evaluator_matches_horner():
    # int64 entries up to 2^63 - 1 (folded mod p once), int16 and int32 rows
    # (copied unreduced), at the block of length 2^21 and at the largest
    # block, the one of MAX_TRANSFORM_LENGTH
    p = exactconv._CERT_PRIME
    B = exactconv._block_size(2**21)
    top_block = exactconv._block_size(exactconv.MAX_TRANSFORM_LENGTH)
    rng = np.random.default_rng(80)
    points = np.array([1, 2, p - 1, rng.integers(3, p - 1)])
    top = 2**63 - 1
    extremes = np.array([0, p - 1, p, 2**31, 2**53 - 1, 2**62, top - p, top])
    cases = [(B, n) for n in (1, B - 1, B, B + 1, 3 * B + 7, 2**21 - 3)]
    cases += [(top_block, n) for n in (top_block, top_block + 1, 2 * top_block + 5)]
    for block, length in cases:
        rows = np.stack([
            extremes[rng.integers(0, len(extremes), length)],
            rng.integers(0, top, length, endpoint=True),
            np.full(length, top),
        ])
        narrow = [rng.integers(0, np.iinfo(t).max, (2, length), dtype=t, endpoint=True)
                  for t in (np.int16, np.int32)]
        if length > 3 * B + 7:
            rows, narrow = rows[:1], []  # the Horner reference is slow at this length
        for x in [rows] + narrow:
            (values,) = exactconv._eval_mod([x], points, p, block)
            expected = [[poly_mod_horner(row, int(r), p) for r in points] for row in x.tolist()]
            assert values.tolist() == expected, (x.dtype, block, length)


def test_block_size_rule_within_matmul_headroom():
    # folded entries are below 2^33, so block sums stay below 2^63 only for
    # blocks of at most 2^14 coefficients, and a row of n coefficients must
    # fit in block**2 of them
    sizes = sorted({(1 << e) + d for e in range(27) for d in (-1, 0, 1)} - {0})
    sizes = [n for n in sizes if n <= exactconv.MAX_TRANSFORM_LENGTH]
    blocks = [exactconv._block_size(n) for n in sizes]
    assert blocks == sorted(blocks) and max(blocks) <= 2**14
    for n, block in zip(sizes, blocks):
        assert block**2 >= n > (block - 1) ** 2


def test_single_piece_matches_several_pieces(monkeypatch):
    # one piece is a single transform of each side; forced through k pieces,
    # of b whole (overlap-add) or of both sides, the same product is summed
    # block by block and added at offsets, whole or truncated
    rng = np.random.default_rng(84)
    a = rng.integers(0, 2**14, (3, 3000))
    b = rng.integers(0, 2**14, 3000)
    assert exactconv._plan(3000, 3000, 5999, 3) == (8192, 3000, True)
    whole = exact_convolve(a, b)
    for k, b_whole in ((2, True), (3, True), (2, False), (3, False), (8, False)):
        with monkeypatch.context() as patch:
            _force_pieces(patch, k, b_whole)
            assert np.array_equal(exact_convolve(a, b), whole)
            assert np.array_equal(exact_convolve(a[1], b), whole[1])
            assert np.array_equal(exact_convolve(a, b, 3001), whole[:, :3001])


@settings(max_examples=60, deadline=None)
@given(
    len_a=st.integers(1, 3000),
    len_b=st.integers(1, 3000),
    rows=st.integers(0, 3),
    where=st.sampled_from(["below", "at", "above"]),
    dtype=st.sampled_from([np.uint8, np.int16, np.int32, np.int64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_truncated_product_matches_numpy(len_a, len_b, rows, where, dtype, seed):
    # the first `length` entries of each product, for a length below, at and
    # above the whole product's, of one row (rows = 0) or a stack
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2**7, (max(rows, 1), len_a)).astype(dtype)
    b = rng.integers(0, 2**7, len_b).astype(dtype)
    full = len_a + len_b - 1
    length = {"below": int(rng.integers(0, full)), "at": full, "above": full + 17}[where]
    out = exact_convolve(a[0] if rows == 0 else a, b, length)
    assert out.dtype == np.int64
    assert out.shape == ((min(length, full),) if rows == 0 else (rows, min(length, full)))
    for row, got in zip(a, np.atleast_2d(out)):
        assert np.array_equal(got, np.convolve(row.astype(np.int64), b)[:length])


@pytest.mark.parametrize("count", [1, 2, 3])
def test_range_product_independent_of_pieces_and_workers(monkeypatch, count):
    # the scan's product, g with the square-pair spectrum cut at X + 1, at
    # transform lengths the pool takes: the counts are the same bytes for
    # any number of pieces and any worker count
    X = 2 * 10**5
    g = _cube_sixth_spectrum(iroot(X, 3), iroot(X, 6), X)
    sq = pair_spectrum(2, iroot(X, 2)).counts[: X + 1].copy()
    expect = rep_count_range(X).values
    with worker_count(count):
        assert np.array_equal(exact_convolve(g, sq, X + 1), expect)
        for k in (1, 2, 3, 8):
            with monkeypatch.context() as patch:
                _force_pieces(patch, k)
                assert np.array_equal(exact_convolve(g, sq, X + 1), expect), k


@pytest.mark.parametrize("block", ["bottom", "top"])
def test_certificate_checks_every_block(monkeypatch, block):
    # one corrupted entry in the first or in the last of 5 output blocks of a
    # truncated product is refused
    rng = np.random.default_rng(85)
    a, b = rng.integers(0, 100, 40000), rng.integers(0, 100, 40000)
    _force_pieces(monkeypatch, 5)
    irfft, calls = np.fft.irfft, []

    def corrupt_irfft(*args, **kwargs):
        out = irfft(*args, **kwargs)
        calls.append(1)
        if len(calls) == (1 if block == "bottom" else 5):
            out[..., 777] += 1.0
        return out

    monkeypatch.setattr(exactconv.np.fft, "irfft", corrupt_irfft)
    with worker_count(1):
        with pytest.raises(BudgetError, match="certificate"):
            exact_convolve(a, b, 40000)
    assert len(calls) == 5


def test_block_rounding_bound_within_one_piece_bound():
    # by Cauchy-Schwarz, sum_{i+j=m} |a_i| |b_j| <= |a| |b| for every block
    rng = np.random.default_rng(86)
    for _ in range(200):
        rows, width, nb = (int(v) for v in rng.integers(1, [4, 400, 400]))
        a = rng.integers(0, 2**20, (rows, width)) * (rng.random((rows, width)) < 0.3)
        b = rng.integers(0, 2**20, nb)
        h = int(rng.integers(1, width + 1))
        whole = nb <= h or bool(rng.integers(2))
        parts = exactconv._pieces(a, h), exactconv._pieces(b[None, :], nb if whole else h)
        blocks = exactconv._counts(width, nb, width + nb - 1, h, whole)[2]
        bound = exactconv._block_norms(*parts, blocks).max(axis=1)
        one_piece = np.linalg.norm(a, axis=1) * np.linalg.norm(b)
        assert (bound <= one_piece * (1 + 1e-12)).all()


def test_range_count_memory_below_the_whole_product():
    # rep_count_range(10**6) on 2 workers forms only the blocks below X + 1,
    # and returns them assembled in the output, with both spectra in int16:
    # 39,687,280-39,689,597 bytes (each further worker adds about 1 MB of
    # transform and product scratch).  The square pairs in int64 took
    # 45,689,841, and the whole product's one piece at 2^21, with its upper
    # half dropped by a copy, 51,560,968; the bound leaves 2% for allocator
    # and numpy differences
    X = 10**6
    with worker_count(2):
        rep_count_range(X)
        tracemalloc.start()
        try:
            values = rep_count_range(X).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert values.shape == (X + 1,)
    assert peak <= 40_500_000, peak


def test_exact_convolve_refuses_by_rounding_bound():
    # values near 2^40 keep every output below 2^53, yet rint(irfft(...)) of
    # these inputs was observed wrong in thousands of coefficients
    rng = np.random.default_rng(7)
    a = rng.integers(0, 2, 2**16)
    a[::17] = 2**40 - 1
    b = rng.integers(0, 2, 2**16)
    assert convolution_value_bound(a, b) < FLOAT_EXACT_LIMIT
    with pytest.raises(BudgetError, match="rounding"):
        exact_convolve(a, b)


def test_exact_convolve_refuses_by_value_bound():
    a = np.full(10, 2**50)
    with pytest.raises(BudgetError, match="2\\^53"):
        exact_convolve(a, a)


def test_convolutions_refuse_non_integer_input():
    # a cast to int64 would truncate [1.5, 2.7] to [1, 2] and [0.9] to [0],
    # and cannot hold Python ints outside int64 (numpy keeps them as objects)
    for a, b in (([1.5, 2.7], [1, 1]), ([0.9], [3]), ([1, 1], [0.5]),
                 ([2**64], [1]), ([1], [-(2**63) - 1]), ([2**63, 1], [1]), ([True], [1])):
        with pytest.raises(ValueError, match="integer"):
            exact_convolve(a, b)
    for hists in ([[0.5, 1.9, 1], [1, 1, 0.2]], [[1, 1, 1], [2**64, 0, 1]]):
        with pytest.raises(ValueError, match="integer"):
            cyclic_histogram_convolution(hists, 3)
    # narrower integer dtypes, as the int16 and int32 spectra g, still pass
    g = np.array([1, 2, 3], dtype=np.int16)
    assert exact_convolve(g, np.array([1, 1], dtype=np.int32)).tolist() == [1, 3, 5, 3]
    assert cyclic_histogram_convolution([g, np.array([1, 1, 0], dtype=np.int32)], 3) == [4, 3, 5]


def test_convolutions_refuse_bad_shapes_and_sizes():
    with pytest.raises(ValueError, match="a 1-D or 2-D and b 1-D"):
        exact_convolve(np.ones((2, 2, 3), dtype=np.int64), [1, 1])
    with pytest.raises(ValueError, match="length must be nonnegative"):
        exact_convolve([1, 2], [1, 1], length=-1)
    for hists, q, message in (([[1]], 0, "modulus must be positive"),
                              ([], 3, "need at least one histogram"),
                              ([[1, 1, 1], [1, 1]], 3, "histogram length must equal the modulus"),
                              ([[1, 1, 1], [1, -1, 2]], 3, "histograms must be nonnegative")):
        with pytest.raises(ValueError, match=message):
            cyclic_histogram_convolution(hists, q)


def test_rep_count_single_examples():
    assert rep_count_single(5) == 0
    assert rep_count_single(6) == 1
    assert rep_count_single(7) == 0
    assert rep_count_single(9) == 2
    with pytest.raises(PreconditionError):
        rep_count_single(0)
    for n in range(1, 21):
        assert rep_count_single(n) == R_SMALL[n - 1]


def test_rep_count_single_against_brute():
    for n in (26, 53, 64, 100, 217, 300):
        assert rep_count_single(n) == rep_single_brute(n)


def test_rep_count_range_small():
    rc = rep_count_range(20)
    assert [int(v) for v in rc.values[1:]] == R_SMALL
    assert rc.values[0] == 0


def test_rep_count_range_matches_enumeration():
    X = 300
    rc = rep_count_range(X)
    oracle = rep_range_enumeration(X)
    assert np.array_equal(rc.values.astype(np.int64), oracle)


def test_range_total_is_tuple_count():
    X = 500
    rc = rep_count_range(X)
    oracle = rep_range_enumeration(X)
    assert int(rc.values.sum()) == int(oracle.sum())


def test_range_matches_single_path():
    # every n up to 3000, including those where the cube/sixth spectrum of
    # P3 = iroot(n - 4, 3), P6 = iroot(n - 4, 6) ends below n - 2
    X = 3000
    rc = rep_count_range(X)
    for n in range(1, X + 1):
        assert int(rc.values[n]) == rep_count_single(n)


@pytest.fixture(scope="module")
def range_2e5():
    return rep_count_range(2 * 10**5).values


@settings(max_examples=40, deadline=None)
@given(n=st.integers(6, 2 * 10**5))
def test_single_matches_range_property(range_2e5, n):
    assert rep_count_single(n) == int(range_2e5[n])


def _cube_sixth_brute(P3, P6, limit):
    tally = Counter(
        a**3 + b**3 + c**6 + d**6
        for a in range(1, P3 + 1)
        for b in range(1, P3 + 1)
        for c in range(1, P6 + 1)
        for d in range(1, P6 + 1)
    )
    return [tally[m] for m in range(limit + 1)]


def _spectrum_bound(P3, P6, limit):
    """sum(c6) * max(c3), the a-priori bound on every cube/sixth count <= limit."""
    _, c3 = pair_values(powers(3, P3), limit=limit)
    _, c6 = pair_values(powers(6, P6), limit=limit)
    return int(c6.sum()) * int(c3.max(initial=0))


def _holds(dtype, bound):
    return np.issubdtype(dtype, np.signedinteger) and np.iinfo(dtype).max >= bound


def test_cube_sixth_spectrum_matches_brute(monkeypatch):
    for P3, P6 in ((1, 1), (5, 2), (9, 3)):
        top = 2 * P3**3 + 2 * P6**6
        for limit in (top // 3, top - 1, top, top + 7):
            expect = _cube_sixth_brute(P3, P6, limit)
            # windows of the default length, of 7 entries and of one entry,
            # in runs on 1-3 workers
            for count, window in ((1, WINDOW), (2, WINDOW), (2, 7), (3, 1)):
                monkeypatch.setattr(repcount, "WINDOW", window)
                with worker_count(count):
                    g = _cube_sixth_spectrum(P3, P6, limit)
                assert _holds(g.dtype, _spectrum_bound(P3, P6, limit)) and len(g) == limit + 1
                assert g.tolist() == expect


def _fill_window(P3, P6, lo, length, dtype):
    """_fill_spectrum over [lo, lo + length) with the counts copied into dtype,
    against the brute spectrum (zero past its top); a fill between two pads
    leaves them as they were.  Returns the slice bounds (i, j) of v3 for each
    sixth-pair value and the values v6."""
    top = 2 * P3**3 + 2 * P6**6
    v3, c3, v6, c6 = _pair_spectra(P3, P6, top)
    buf = np.full(length + 2, 7, dtype)
    _fill_spectrum(buf[1:-1], lo, v3, c3.astype(dtype), v6, c6.astype(dtype))
    brute = _cube_sixth_brute(P3, P6, top)
    assert buf[1:-1].tolist() == [brute[m] if m <= top else 0 for m in range(lo, lo + length)]
    assert buf[0] == buf[-1] == 7
    return np.searchsorted(v3, lo - v6), np.searchsorted(v3, lo + length - v6), v6


@st.composite
def _fill_windows(draw):
    P3, P6 = draw(st.integers(1, 16)), draw(st.integers(1, 3))
    lo = draw(st.integers(0, 2 * P3**3 + 2 * P6**6 + 64))
    return P3, P6, lo, draw(st.integers(1, 2**12))


@settings(max_examples=80, deadline=None)
@given(window=_fill_windows(), dtype=st.sampled_from([np.int16, np.int32]))
def test_fill_spectrum_matches_brute(window, dtype):
    # any window [lo, lo + length), from the bottom of g to past its top
    _fill_window(*window, dtype)


@pytest.mark.parametrize("dtype", [np.int16, np.int32])
def test_fill_spectrum_with_unpartnered_sixth_values(dtype):
    # windows in which a sixth-pair value s below the window's top has no
    # cube-pair value v with lo <= s + v < hi (an empty slice, i == j) while
    # another s has some
    for P3, P6, lo, length in ((5, 2, 26, 40), (5, 2, 77, 5), (5, 2, 81, 1), (9, 3, 89, 40)):
        i, j, v6 = _fill_window(P3, P6, lo, length, dtype)
        assert ((i == j) & (v6 < lo + length)).any() and (i < j).any()


@pytest.mark.parametrize("bound, dtype", [
    (0, np.int16), (2**15 - 1, np.int16), (2**15, np.int32),
    (2**31 - 1, np.int32), (2**31, np.int64), (2**63 - 1, np.int64),
])
def test_count_dtype_is_the_narrowest_that_holds_the_bound(bound, dtype):
    assert _count_dtype(bound) is dtype


def test_single_target_budget_spectrum_is_int16():
    # the largest single target: P3 = 2154, P6 = 46, every count at most 12,222
    n = SINGLE_TARGET_BUDGET
    P3, P6 = iroot(n - 4, 3), iroot(n - 4, 6)
    bound = _spectrum_bound(P3, P6, n - 2)
    assert (P3, P6, bound) == (2154, 46, 12222)
    assert _count_dtype(bound) is np.int16


def test_single_target_refusal_states_the_spectrum_size():
    with pytest.raises(BudgetError, match=f"sums {SINGLE_TARGET_BUDGET} cube/sixth counts"):
        rep_count_single(SINGLE_TARGET_BUDGET + 1)


def test_cube_sixth_spectrum_conservation():
    for P3, P6 in ((12, 3), (21, 4)):
        g = _cube_sixth_spectrum(P3, P6, 2 * P3**3 + 2 * P6**6)
        assert int(g.sum()) == P3 * P3 * P6 * P6


def _annulus_cells(n, lo, hi):
    """The square pairs x <= y with lo <= n - x^2 - y^2 < hi, by enumeration."""
    return {(x, y) for x in range(1, iroot(n, 2) + 1) for y in range(x, iroot(n, 2) + 1)
            if lo <= n - x * x - y * y < hi}


def test_gather_blocks_cover_the_rows_within_the_block_size(monkeypatch):
    # the rectangles of a window hold every cell of its annulus once, each
    # within GATHER_BLOCK cells or one row, and a rectangle with a cell y < x
    # starts at its first row, so its corner square holds all those cells;
    # windows of one entry, of a prime length and of the default length, at
    # the bottom, middle and top of g, and blocks of 50 cells as well
    for block in (GATHER_BLOCK, 50):
        monkeypatch.setattr(repcount, "GATHER_BLOCK", block)
        for n in (6, 7, 100, 4500, 40_009):
            for length in (1, 997, WINDOW):
                for lo in sorted({0, (n - 1) // 2 // length * length,
                                  (n - 2) // length * length}):
                    hi = min(lo + length, n - 1)
                    seen = []
                    for x0, x1, c0, c1 in _annulus_blocks(n, lo, hi):
                        assert 1 <= x0 < x1 and c0 <= c1
                        assert (x1 - x0) * (c1 - c0 + 1) <= block or x1 == x0 + 1
                        assert c0 == x0 or c0 >= x1
                        seen += [(x, y) for x in range(x0, x1) for y in range(max(x, c0), c1 + 1)
                                 if lo <= n - x * x - y * y < hi]
                    assert len(seen) == len(set(seen))
                    assert set(seen) == _annulus_cells(n, lo, hi), (n, length, lo)


def test_annulus_blocks_within_the_block_size_at_the_budget():
    # at the largest target, in the top, middle and bottom windows of g
    n = SINGLE_TARGET_BUDGET
    length = repcount._window_length(n)
    for lo in (0, n // 2 // length * length, (n - 2) // length * length):
        total = 0
        for x0, x1, c0, c1 in _annulus_blocks(n, lo, lo + length):
            assert (x1 - x0) * (c1 - c0 + 1) <= GATHER_BLOCK or x1 == x0 + 1
            total += (x1 - x0) * (c1 - c0 + 1)
        # the rectangles gather at most 2x the pi L / 8 cells of the annulus
        assert total <= 2 * np.pi * length / 8, lo


def _window_length(monkeypatch, length):
    monkeypatch.setattr(repcount, "_window_length", lambda n: length)


@pytest.mark.parametrize("length", [1, 7919, 2**16, None])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_single_target_independent_of_window_and_workers(monkeypatch, range_2e5, length, count):
    # windows of one entry (at small n), of a prime length, of 2^16 entries
    # and of the default length, on 1-3 workers: the same R(n)
    if length is not None:
        _window_length(monkeypatch, length)
    targets = range(6, 301, 7) if length == 1 else [*range(6, 301, 7), 65_537, 131_071, 199_999]
    with worker_count(count):
        for n in targets:
            assert rep_count_single(n) == int(range_2e5[n]), n


def test_single_target_at_window_edges(monkeypatch):
    # n - 1 just below, at and just above a multiple of the window length (a
    # short last window, whole windows only, a last window of one entry):
    # against the brute oracle with windows of 64 entries, and against the
    # range count with the default windows
    small = [n for k in (1, 2, 3, 4) for n in (64 * k, 64 * k + 1, 64 * k + 2)]
    with monkeypatch.context() as patch:
        _window_length(patch, 64)
        for n in small:
            assert rep_count_single(n) == rep_single_brute(n), n
    assert repcount._window_length(2**21) == WINDOW
    values = rep_count_range(2**21 + 2).values
    for k in (1, 2):
        for n in (k * WINDOW, k * WINDOW + 1, k * WINDOW + 2):
            assert rep_count_single(n) == int(values[n]), n


def test_single_target_memory_is_one_window_per_worker():
    # each run of windows holds one int16 window of g (2 bytes an entry) and
    # block scratch of GATHER_BLOCK cells, and the fill holds one slice of
    # cube-pair values at a time: 3,013,100 and 5,668,860 bytes at 1 and 2
    # workers, where a whole int16 spectrum would take 2n, 20 MB, alone
    n = 9_989_837
    for count in (1, 2):
        with worker_count(count):
            rep_count_single(n)  # warm-up, so lazy imports do not count
            tracemalloc.start()
            try:
                rep_count_single(n)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= count * 2 * 2 * WINDOW, (count, peak)


def test_cube_sixth_spectrum_refuses_inexact_float_sums():
    # 2^54 quadruples: float64 bincount sums would no longer be exact
    with pytest.raises(BudgetError, match="2\\^53"):
        _cube_sixth_spectrum(2**20, 2**7, 2 * 2**60 + 2 * 2**42)


def test_determinism():
    a = rep_count_range(800).values
    b = rep_count_range(800).values
    assert np.array_equal(a, b)


def test_spectrum_cache_roundtrip(tmp_path):
    ps = pair_spectrum(3, 30)
    path = tmp_path / "spec.bin"
    write_spectrum(ps, str(path))
    back = read_spectrum(str(path))
    assert back.k == 3 and back.P == 30
    assert np.array_equal(back.counts, ps.counts)
    good = path.read_bytes()
    header = 5 + 3 * 8
    # flip one byte
    raw = bytearray(good)
    raw[40] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        read_spectrum(str(path))
    # swap two different counts: the multiset, hence any sum checksum, is kept
    raw = bytearray(good)
    i, j = header + 4 * 2, header + 4 * 9
    assert raw[i : i + 4] != raw[j : j + 4]
    raw[i : i + 4], raw[j : j + 4] = raw[j : j + 4], raw[i : i + 4]
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        read_spectrum(str(path))
    # truncation, down to shorter than the header
    for size in (len(good) - 1, 20, 0):
        path.write_bytes(good[:size])
        with pytest.raises(ValueError):
            read_spectrum(str(path))


def test_spectrum_cache_refuses_counts_past_32_bits(tmp_path):
    path = tmp_path / "spec.bin"
    write_spectrum(repcount.PairSpectrum(k=2, P=1, counts=np.array([0, 0, 2**32 - 1])), str(path))
    assert read_spectrum(str(path)).counts.tolist() == [0, 0, 2**32 - 1]
    path.unlink()
    with pytest.raises(ValueError, match="overflow the 32-bit cache format"):
        write_spectrum(repcount.PairSpectrum(k=2, P=1, counts=np.array([0, 0, 2**32])), str(path))
    assert not path.exists()


def test_range_uses_cache(tmp_path):
    rc1 = rep_count_range(400, cache_dir=str(tmp_path))
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    rc2 = rep_count_range(400, cache_dir=str(tmp_path))
    assert np.array_equal(rc1.values, rc2.values)


def test_range_recovers_from_corrupt_cache(tmp_path):
    expected = rep_count_range(400, cache_dir=str(tmp_path)).values
    (path,) = tmp_path.iterdir()
    good = path.read_bytes()
    for bad in (good[:20], good[:-1] + bytes([good[-1] ^ 1]), b""):
        path.write_bytes(bad)
        rc = rep_count_range(400, cache_dir=str(tmp_path))
        assert np.array_equal(rc.values, expected)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert path.read_bytes() == good  # rewritten whole


def test_scaling_guard():
    # doubling X across a transform-length boundary costs at most 2.6x in
    # CPU time; process time leaves out the time spent waiting for a CPU
    def best_of_three(X):
        times = []
        for _ in range(3):
            t0 = time.process_time()
            rep_count_range(X)
            times.append(time.process_time() - t0)
        return min(times)

    rep_count_range(10**5)  # warm-up
    t1 = best_of_three(3 * 10**5)
    t2 = best_of_three(6 * 10**5)
    assert t2 <= 2.6 * t1
