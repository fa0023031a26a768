import tracemalloc
from collections import Counter
from itertools import combinations_with_replacement
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circleforge import intmath
from circleforge.errors import BudgetError, PreconditionError
from circleforge.intmath import key_runs, pair_reduce, pair_values, powers, quad_reduce
from circleforge.moments import (
    _split_pair_sums,
    count_cube_sixth_correlation,
    count_sixth_pair_collisions,
    cube_multiplicity,
    shifted_cube_correlation,
    sixth_power_eighth_moment,
)

from oracles import (
    concat_runs,
    cube_multiplicity_brute,
    cube_sixth_correlation_brute,
    eighth_moment_brute,
    key_runs_unique,
    pair_collision_brute,
    pair_values_grid,
    shifted_correlation_brute,
)


def test_pair_collisions_examples():
    assert count_sixth_pair_collisions(1).count == 1
    assert count_sixth_pair_collisions(2).count == 6
    for P6 in (3, 5, 9):
        assert count_sixth_pair_collisions(P6).count == pair_collision_brute(P6)


def test_pair_collisions_split_keys():
    # the plain int64 pair spectrum is exact at P6 = 1200; from P6 = 1449 on,
    # x^6 >= 2^63 and the low words of a pair sum carry into the high word;
    # packed pair_values keys refuse these 6e18 sums, so the grid is the reference
    _, counts = pair_values_grid(powers(6, 1200))
    assert count_sixth_pair_collisions(1200).count == int(np.dot(counts, counts))
    assert 1448**6 < 2**63 <= 1449**6
    for P6 in (1201, 1460):
        assert count_sixth_pair_collisions(P6).count == pair_collision_brute(P6)
    # the keys are the exact sums of the triangle x <= y, row x after row x,
    # carries included
    P6 = 3000
    hi, lo = _split_pair_sums(P6)
    assert len(hi) == len(lo) == P6 * (P6 + 1) // 2
    for x in (1, 1448, 1449, 2000, 3000):
        row = (x - 1) * P6 - (x - 1) * (x - 2) // 2  # the cell (x, x)
        for y in range(x, P6 + 1):
            i = row + y - x
            assert int(hi[i]) * 2**64 + int(lo[i]) == x**6 + y**6


def test_split_pair_sums_hold_little_beside_their_output():
    # the rows are written into the outputs in place: two int64 triangle index
    # arrays and the full-size sums took the peak to 3.8 times the 40.5 MB
    # output at P6 = 3000 (153,216,576 bytes), against 40,685,090 row by row
    P6 = 1000
    tracemalloc.start()
    try:
        hi, lo = _split_pair_sums(P6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hi.nbytes + lo.nbytes == 9 * P6 * (P6 + 1) // 2
    assert peak < 1.1 * (hi.nbytes + lo.nbytes), peak


# counts and parts of the full-square collision keys and the weighted
# difference lattice that these counts replaced, at the same sizes
_PAIR_COLLISIONS = {1: 1, 2: 6, 3: 15, 4: 28, 5: 45, 6: 66, 7: 91, 8: 120, 9: 153, 10: 190,
                    11: 231, 12: 276, 100: 19900, 1200: 2878800, 1201: 2883601,
                    1448: 4191960, 1449: 4197753, 1460: 4261740, 3000: 17997000}
_CORRELATIONS = {1: (1, 1, 0, 0), 7: (1, 1, 0, 0), 8: (2, 2, 0, 0), 63: (3, 3, 0, 0),
                 64: (32, 24, 8, 0), 729: (183, 135, 48, 0), 10**4: (792, 588, 108, 96),
                 10**6: (22894, 19000, 3174, 720), 10**8: (439580, 399504, 32888, 7188)}


def test_moment_counts_pinned():
    for P6, count in _PAIR_COLLISIONS.items():
        assert count_sixth_pair_collisions(P6).count == count, P6
    for X, (count, *parts) in _CORRELATIONS.items():
        got = count_cube_sixth_correlation(X)
        assert got.count == count and list(got.parts.values()) == parts, X
        assert list(got.parts) == ["diagonal", "unique_representation",
                                   "multiple_representation"]


def test_pair_collisions_trend():
    r100 = count_sixth_pair_collisions(100).count / (2 * 100**2)
    r200 = count_sixth_pair_collisions(200).count / (2 * 200**2)
    assert abs(r200 - 1) <= 0.25
    assert abs(r200 - 1) <= abs(r100 - 1)


def test_correlation_count_examples():
    assert count_cube_sixth_correlation(1).count == 1
    got = count_cube_sixth_correlation(64)
    assert got.count == 32  # frozen from the 6-loop oracle
    assert got.count == cube_sixth_correlation_brute(64)
    assert got.parts["diagonal"] == 24


def test_correlation_decomposition():
    for X in (64, 729, 4096, 10**6):
        got = count_cube_sixth_correlation(X)
        P3 = got.parameters["P3"]
        P6 = got.parameters["P6"]
        assert got.parts["diagonal"] == P3 * count_sixth_pair_collisions(P6).count
        assert got.count == sum(got.parts.values())


def test_correlation_trend_guard():
    got = count_cube_sixth_correlation(10**6)
    assert got.count / (10**6) ** (2 / 3) <= 3.5


def test_eighth_moment_examples():
    assert sixth_power_eighth_moment(1).count == 1
    assert sixth_power_eighth_moment(2).count == 70
    for P6 in (3, 4, 6):
        assert sixth_power_eighth_moment(P6).count == eighth_moment_brute(P6)
    with pytest.raises(BudgetError):
        sixth_power_eighth_moment(301)


def test_eighth_moment_slopes():
    counts = {P6: sixth_power_eighth_moment(P6).count for P6 in (25, 50, 100)}
    assert np.log2(counts[50] / counts[25]) <= 5.0
    assert np.log2(counts[100] / counts[50]) <= 5.0


def test_cube_multiplicity_examples():
    assert cube_multiplicity(2).members.tolist() == []
    got = cube_multiplicity(16)
    assert 721 in got.members
    members, maxmult = cube_multiplicity_brute(16)
    assert got.members.tolist() == members
    assert got.max_multiplicity == maxmult == 2
    assert cube_multiplicity(1).members.tolist() == []


def test_cube_multiplicity_members_verified():
    got = cube_multiplicity(40)
    cubes = [x**3 for x in range(1, 41)]
    for m in got.members:
        reps = sum(1 for a in cubes for b in cubes if a - b == m)
        assert reps >= 2
    assert np.all(np.diff(got.members) > 0)


def test_cube_multiplicity_slope():
    cards = {P3: len(cube_multiplicity(P3).members) for P3 in (500, 1000, 2000)}
    assert np.log2(cards[1000] / cards[500]) <= 1.6
    assert np.log2(cards[2000] / cards[1000]) <= 1.6


def test_shifted_correlation_examples():
    got = shifted_cube_correlation(37, [12345])
    assert got.count == 37
    assert got.parts["diagonal"] == 37 and got.parts["off_diagonal"] == 0
    with pytest.raises(PreconditionError):
        shifted_cube_correlation(10, [5, 5, 7])


def test_shifted_correlation_refuses_non_integers():
    # int() would truncate 1.5 to 1 and count the shift set [1, 2, 9]
    for shifts in ([1.5, 2, 9], [2.0], np.array([1.0, 4.0])):
        with pytest.raises(PreconditionError):
            shifted_cube_correlation(10, shifts)
    assert shifted_cube_correlation(10, np.array([1, 2, 9])).count == \
        shifted_cube_correlation(10, [1, 2, 9]).count


def test_moment_counts_refuse_non_integer_bounds():
    # np.arange(1, P + 1) runs to ceil(P): P6 = 2.5 counted the P6 = 3 moment
    for count in (sixth_power_eighth_moment, cube_multiplicity,
                  lambda P: shifted_cube_correlation(P, [1, 8, 20])):
        for P in (2.5, 12.5, 3.0):
            with pytest.raises(PreconditionError):
                count(P)
    assert sixth_power_eighth_moment(np.int64(3)).count == sixth_power_eighth_moment(3).count
    assert powers(3, np.int64(4)).tolist() == [1, 8, 27, 64]


def test_shifted_correlation_brute_small():
    rng = np.random.default_rng(123)
    shifts = sorted(int(v) for v in rng.choice(np.arange(100, 400), 12, replace=False))
    got = shifted_cube_correlation(8, shifts)
    assert got.count == shifted_correlation_brute(8, shifts)
    assert got.count >= 8 * len(shifts)  # diagonal lower bound


def test_shifted_correlation_inequality():
    rng = np.random.default_rng(99)
    shifts = sorted(int(v) for v in rng.choice(np.arange(10**6 // 2 + 1, 10**6), 100, replace=False))
    got = shifted_cube_correlation(100, shifts)
    maxmult = cube_multiplicity(100).max_multiplicity
    z = len(shifts)
    assert got.count >= 100 * z
    assert got.count <= 100 * z + max(maxmult, 1) * z * z


def test_enumeration_order_independence():
    # recount with a shuffled enumeration order: totals must be identical
    rng = np.random.default_rng(7)
    P6 = 6
    powers = [x**6 for x in range(1, P6 + 1)]
    order = rng.permutation(P6)
    from collections import Counter

    tally = Counter()
    for i in order:
        for j in order[::-1]:
            tally[powers[i] + powers[j]] += 1
    shuffled = sum(c * c for c in tally.values())
    assert shuffled == count_sixth_pair_collisions(P6).count


def test_shifted_correlation_restricted_to_the_spread():
    # the cube differences are built only up to min(P3^3, spread): spreads
    # below and above P3^3 = 1000, and zero, one and two shifts
    rng = np.random.default_rng(29)
    cases = [[], [5], [5, 12], [5, 1005], [-(10**12), 10**12]]
    cases += [sorted(rng.choice(top, 40, replace=False).tolist()) for top in (300, 999, 1001, 5000)]
    for shifts in cases:
        got = shifted_cube_correlation(10, shifts)
        assert got.count == shifted_correlation_brute(10, shifts)
    assert shifted_cube_correlation(10, [5, 12]).parts["off_diagonal"] == 2  # 12 - 5 = 2^3 - 1^3
    # past 4e7 cells the join runs per difference: spreads below and above P3^3
    for P3, top in ((20, 7000), (12, 10**5)):
        shifts = sorted(rng.choice(top, 6400, replace=False).tolist())
        got = shifted_cube_correlation(P3, shifts)
        assert got.count == shifted_correlation_brute(P3, shifts)
        assert got.parts["off_diagonal"] > 0


def test_shifted_correlation_int64_edges():
    # 2^63 - 7 - (-2^63) wraps to 7 = 2^3 - 1^3 in int64; the true count has
    # no off-diagonal solution
    edges = [-(2**63), 2**63 - 7]
    assert shifted_cube_correlation(10, edges).count == 20
    # the same pair past the 4e7-cell limit goes through the per-difference join
    wide = edges + [10**7 * i for i in range(1, 6400)]
    assert shifted_cube_correlation(10, wide).count == 10 * len(wide)
    with pytest.raises(PreconditionError):
        shifted_cube_correlation(10, [2**63])
    with pytest.raises(PreconditionError):
        shifted_cube_correlation(10, [-(2**63) - 1, 5])


@st.composite
def _pair_lattices(draw):
    a = sorted(draw(st.sets(st.integers(-60, 200), max_size=25)))
    limit = draw(st.none() | st.integers(-150, 450))
    return np.array(a, dtype=np.int64), limit


@settings(max_examples=150, deadline=None)
@given(_pair_lattices(), st.sampled_from([1, -1]), st.sampled_from([7, intmath.PAIR_CHUNK]))
def test_pair_values_matches_grid(lattice, sign, chunk):
    a, limit = lattice
    saved = intmath.PAIR_CHUNK
    intmath.PAIR_CHUNK = chunk
    try:
        bands = pair_reduce(list, a, sign, limit)
        values = pair_values(a, sign, limit)
    finally:
        intmath.PAIR_CHUNK = saved
    runs = concat_runs(run for band in bands for run in band)
    expect = pair_values_grid(a, sign, limit)
    assert [r.tolist() for r in runs] == [v.tolist() for v in values] == [e.tolist() for e in expect]


@pytest.mark.parametrize("chunk", [1, intmath.PAIR_CHUNK])
def test_quad_reduce_against_sorted_quadruples(monkeypatch, chunk):
    # far-apart values give one sorted quadruple per sum, so each run shows
    # its weight alone; consecutive ones collide, negatives among them
    monkeypatch.setattr(intmath, "PAIR_CHUNK", chunk)
    weights = set()
    for a in ([], [7], [1, 10, 100, 1000, 10**4], list(range(-4, 9))):
        tally = Counter()
        for quad in combinations_with_replacement(a, 4):
            tally[sum(quad)] += 24 // prod(factorial(m) for m in Counter(quad).values())
        runs = concat_runs(run for part in quad_reduce(list, np.array(a, dtype=np.int64))
                           for run in part)
        assert [r.tolist() for r in runs] == [sorted(tally), [tally[v] for v in sorted(tally)]]
        if len(a) == 5:
            weights = set(runs[1].tolist())
    assert weights == {1, 4, 6, 12, 24}


def test_quad_reduce_refuses_int64_overflow():
    # a key is (4 a << 5) + weight - 1 for a one-value array
    for a in (2**56 - 1, -(2**56)):
        [[(values, sums)]] = quad_reduce(list, np.array([a], dtype=np.int64))
        assert values.tolist() == [4 * a] and sums.tolist() == [1]
    for a in (2**56, -(2**56) - 1):
        with pytest.raises(BudgetError):
            quad_reduce(list, np.array([a], dtype=np.int64))


def test_pair_values_refuses_int64_overflow():
    with pytest.raises(BudgetError):
        pair_values(powers(6, 1200))  # sums near 6e18 leave no room for a weight bit


def _packed_keys(rng, bits):
    """Sorted packed keys (value << bits) | code with random weight codes:
    distinct values, one value in a hundred repeated, one value throughout,
    runs of up to 59 keys, and distinct values beside long runs."""
    distinct = np.sort(rng.choice(np.arange(-5000, 5000), 2000, replace=False))
    few = np.r_[distinct, rng.choice(distinct, 20, replace=False)]
    long_runs = np.repeat(np.arange(-20, 20) * 3, rng.integers(1, 60, 40))
    for values in (distinct, few, np.full(300, -7), long_runs,
                   np.r_[distinct[:500], long_runs + 10**4]):
        yield np.sort((values << bits) | rng.integers(0, 1 << bits, len(values)))


@pytest.mark.parametrize("chunk", [1, 7, 16, 256])
@pytest.mark.parametrize("bits", [0, 5])
def test_key_runs_against_unique(monkeypatch, bits, chunk):
    # every chunk against np.unique; one fold adds each chunk's repeated keys
    # into their run's first key, and it meets both sparse chunks (at most
    # one key in 32 repeats a value) and dense ones; the sparse chunks meet
    # repeats only at 256 keys a chunk
    monkeypatch.setattr(intmath, "PAIR_CHUNK", chunk)
    rng = np.random.default_rng([bits, chunk])
    taken = set()
    for keys in _packed_keys(rng, bits):
        chunks = list(key_runs(keys, bits))
        values, sums = concat_runs(chunks)
        expect_values, expect_sums = key_runs_unique(keys, bits)
        assert values.tolist() == expect_values.tolist() and sums.tolist() == expect_sums.tolist()
        counts = dict(zip(*(part.tolist() for part in np.unique(keys >> bits, return_counts=True))))
        for chunk_values, _ in chunks:
            length = sum(counts[v] for v in chunk_values.tolist())
            repeats = length - len(chunk_values)
            taken.add(("sparse" if repeats * 32 <= length else "dense", repeats > 0))
    assert taken >= {("dense", True), ("sparse", False)}
    assert (("sparse", True) in taken) == (chunk == 256)


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_chunks_cut_at_run_starts(monkeypatch, chunk):
    # runs of up to 41 equal values, longer than every chunk: each chunk must
    # end where a run starts, so the chunks are value-disjoint and their runs,
    # laid end to end, are the np.unique reduction
    expect = [sixth_power_eighth_moment(P6).count for P6 in (6, 25)]
    cubes = cube_multiplicity(300)
    a = np.arange(-10, 31, dtype=np.int64)
    sums = np.sort((a[:, None] + a[None, :]).ravel())
    monkeypatch.setattr(intmath, "PAIR_CHUNK", chunk)
    values, counts = concat_runs(key_runs(sums, 0))
    expect_values, expect_counts = np.unique(sums, return_counts=True)
    assert counts.max() > chunk
    assert values.tolist() == expect_values.tolist() and counts.tolist() == expect_counts.tolist()
    for sign in (1, -1):
        bands = pair_reduce(list, a, sign)
        runs = concat_runs(run for band in bands for run in band)
        assert [r.tolist() for r in runs] == [e.tolist() for e in pair_values_grid(a, sign)]
    assert [sixth_power_eighth_moment(P6).count for P6 in (6, 25)] == expect
    chunked = cube_multiplicity(300)
    assert chunked.members.tolist() == cubes.members.tolist()
    assert chunked.max_multiplicity == cubes.max_multiplicity
