"""Exact counting engines for the mean-value diagnostics.

Everything here is a finite lattice-point count: collisions of sixth-power
pair sums, the mixed cube/sixth-power correlation, the eighth moment of the
sixth-power spectrum, cube-difference multiplicities and shifted-cube
correlations against an arbitrary shift set.  Each is a count of
coincidences among sums or differences x^k +- y^k on a P^2 lattice, and each
such lattice goes through the one pair enumerator ``intmath.pair_reduce``,
which hands each value window's runs of equal value, (values, sums) one
chunk at a time, to a reduction on the worker that wrote and sorted the
window; ``pair_values`` lays those runs end to end.  The eighth moment counts
sums of four sixth powers through ``intmath.quad_reduce``, one key per sorted
quadruple weighted by its number of orderings: a quadruple of distinct
entries is one key, not one for each of its three splits into two pairs, so
the keys are a third of the pairs of pair sums.  Both cut their lattice into
value windows of about ``intmath.WINDOW_KEYS`` keys, so no call holds a
whole key array.  No packed key reaches this module.  The exception is the
pair-collision count, whose sums pass 2^63 from P6 = 1449 on; it sorts exact
two-word (hi, lo) keys and reads their runs as plain sorted values.
"""

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import BudgetError, PreconditionError
from .intmath import iroot, key_runs, pair_reduce, pair_values, powers, quad_reduce

@dataclass(frozen=True)
class MomentCount:
    label: str
    parameters: dict
    count: int
    parts: dict | None = None


@dataclass(frozen=True, eq=False)
class MultiplicitySet:
    """Signed integers with >= 2 representations as x1^3 - x2^3, 1 <= xi <= P3.

    Zero is excluded: the diagonal always has exactly P3 representations.
    """

    P3: int
    members: np.ndarray  # int64, strictly increasing
    max_multiplicity: int


def _split_pair_sums(P6: int) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) = divmod(x^6 + y^6, 2^64) over the triangle 1 <= x <= y <= P6,
    row x after row x, each row from its diagonal y = x; hi fits uint8 while
    2 P6^6 < 2^72."""
    powers = [x**6 for x in range(1, P6 + 1)]
    lo = np.array([p & (2**64 - 1) for p in powers], dtype=np.uint64)
    hi = np.array([p >> 64 for p in powers], dtype=np.uint8)
    x, y = np.triu_indices(P6)
    lo_sum = lo[x] + lo[y]  # wraps mod 2^64; a wrap is a carry
    hi_sum = hi[x] + hi[y] + (lo_sum < lo[y])
    return hi_sum, lo_sum


def count_sixth_pair_collisions(P6: int) -> MomentCount:
    """Solutions of y1^6 + y2^6 = y3^6 + y4^6 in [1, P6]^4 (ordered).

    Pair sums pass 2^64 from P6 = 1449 on, so each sum of the triangle x <= y
    is held exactly as split keys (hi, lo).  Sorting by hi, then by lo within
    each hi, puts equal sums in runs.  A value with c triangle pairs, d <= 1
    of them on the diagonal (d = 1 just at 2 x^6), has 2c - d ordered pairs,
    so the count is sum (2c - d)^2 = 4 sum c^2 - 4 sum_x c(2 x^6) + P6.
    """
    if P6 < 1:
        raise PreconditionError("bound P6 must be >= 1")
    if P6 > 3000:
        raise BudgetError("pair-collision count budget is P6 <= 3000")
    hi, lo = _split_pair_sums(P6)
    rows = np.cumsum(np.r_[0, np.arange(P6, 1, -1)])  # the diagonal sums 2 x^6
    twice_hi, twice_lo = hi[rows], lo[rows]
    order = np.argsort(hi, kind="stable")
    hi = hi[order]
    cuts = np.flatnonzero(np.diff(hi)) + 1
    squares = diagonal = 0
    for h, group in zip(hi[np.r_[0, cuts]].tolist(), np.split(lo[order], cuts)):
        group.sort()
        squares += sum(int(c @ c) for _, c in key_runs(group, 0))
        twice = twice_lo[twice_hi == h]
        diagonal += int((group.searchsorted(twice, "right") - group.searchsorted(twice)).sum())
    count = 4 * squares - 4 * diagonal + P6
    return MomentCount(label="sixth_pair_collision", parameters={"P6": P6}, count=count)


def count_cube_sixth_correlation(X: int) -> MomentCount:
    """Solutions of x1^3 - x2^3 = y1^6 + y2^6 - y3^6 - y4^6 with
    1 <= x <= floor(X^(1/3)) and 1 <= y <= floor(X^(1/6)).

    The count is reported with its structural split: the diagonal x1 = x2,
    values with a unique cube-difference representation, and values with
    several.  Each positive difference s - t of two distinct sixth-pair sums,
    weighted r(s) r(t) by their ordered pairs, is looked up among the cube
    differences.
    """
    if X < 1:
        raise PreconditionError("bound X must be >= 1")
    if X > 10**8:
        raise BudgetError("correlation count budget is X <= 10**8")
    P3, P6 = iroot(X, 3), iroot(X, 6)
    uvals, ucounts = pair_values(powers(6, P6))
    dvals, dcounts = pair_values(powers(3, P3), -1)
    s, t = np.nonzero(uvals[:, None] > uvals)
    diffs, weights = uvals[s] - uvals[t], ucounts[s] * ucounts[t]
    order = diffs.argsort()  # sorted needles search faster
    diffs, weights = diffs[order], weights[order]
    # a difference past the last cube difference is clipped to it, and differs
    # from it; dvals is empty only at P3 = 1, where P6 = 1 and diffs is empty
    at = dvals.searchsorted(diffs)
    cx = np.take(dcounts, at, mode="clip") * (np.take(dvals, at, mode="clip") == diffs)
    # both sides are even in the value, so each positive difference counts
    # twice; cube-diff value 0 arises exactly from the P3 diagonal pairs, so
    # the zero difference is the full x1 = x2 contribution
    parts = {"diagonal": P3 * int(np.dot(ucounts, ucounts)),
             "unique_representation": 2 * int(weights[cx == 1].sum()),
             "multiple_representation": 2 * int(np.dot(cx[cx > 1], weights[cx > 1]))}
    return MomentCount(
        label="cube_sixth_correlation",
        parameters={"X": X, "P3": P3, "P6": P6},
        count=sum(parts.values()),
        parts=parts,
    )


def sixth_power_eighth_moment(P6: int) -> MomentCount:
    """Solutions of y1^6 + ... + y4^6 = y5^6 + ... + y8^6 in [1, P6]^8.

    Counted as the sum of squared quadruple-spectrum multiplicities, each
    quadruple sum taken once per sorted quadruple with its number of orderings.
    """
    if P6 < 1:
        raise PreconditionError("bound P6 must be >= 1")
    if P6 > 300:
        raise BudgetError("eighth-moment budget is P6 <= 300")
    # the keys go through value windows, and the lattice holds 2 C(P6 + 2, 3)
    # source keys (72 MB at 300): at P6 = 300, C(303, 4) = 349,707,150 keys
    # in 334 windows, the CLI took 4.6-5.1 s and 254 MiB on a 2-core VM
    total = sum(quad_reduce(lambda runs: sum(int(c @ c) for _, c in runs), powers(6, P6)))
    return MomentCount(
        label="sixth_eighth_moment", parameters={"P6": P6}, count=total
    )


def cube_multiplicity(P3: int) -> MultiplicitySet:
    """All integers with two or more representations as a difference of cubes
    from [1, P3], found by sorting the positive differences and scanning runs."""
    if P3 < 1:
        raise PreconditionError("bound P3 must be >= 1")
    if P3 > 10**4:
        raise BudgetError("cube-multiplicity budget is P3 <= 10**4")

    def repeats(runs):
        found, top = [np.empty(0, dtype=np.int64)], 0
        for values, mult in runs:
            found.append(values[mult >= 2])
            top = max(top, int(mult.max(initial=0)))
        return np.concatenate(found), top

    bands = pair_reduce(repeats, powers(3, P3), -1)
    repeated = np.concatenate([found for found, _ in bands])
    top = max(top for _, top in bands)
    members = np.concatenate([-repeated[::-1], repeated])
    return MultiplicitySet(P3=P3, members=members, max_multiplicity=top)


def check_shifted(P3: int, size: int) -> None:
    """The refusals of shifted_cube_correlation on P3 and a shift set of size
    entries, raised before any work (and before the CLI draws its sample)."""
    if P3 < 1:
        raise PreconditionError("bound P3 must be >= 1")
    if P3 > 10**4:
        raise BudgetError("correlation budget is P3 <= 10**4")
    if size > 10**5:
        raise BudgetError("shift set budget is 10**5 entries")


def shifted_cube_correlation(P3: int, shifts) -> MomentCount:
    """Solutions of x1^3 + n1 = x2^3 + n2 with x in [1, P3] and n1, n2 drawn
    from the shift set.  The diagonal n1 = n2 forces x1 = x2 and contributes
    exactly P3 * |shifts|; the off-diagonal part is reported separately."""
    values = list(shifts)
    check_shifted(P3, len(values))
    if not all(isinstance(v, Integral) for v in values):  # int() would truncate a float
        raise PreconditionError("shift set entries must be integers")
    values = sorted(map(int, values))
    if values and not -(2**63) <= values[0] <= values[-1] < 2**63:
        raise PreconditionError("shift set entries must lie in the int64 range")
    z = np.asarray(values, dtype=np.int64)
    if len(z) != len(set(values)):
        raise PreconditionError("shift set entries must be distinct")
    diagonal = P3 * len(z)
    off = 0
    if len(z) > 1:
        # a match is a cube difference below P3^3 and a shift difference at
        # most the spread; pair_values bounds both in exact integers, so no
        # difference can wrap
        limit = min(P3**3, values[-1] - values[0])
        dvals, dcounts = pair_values(powers(3, P3), -1, limit=limit)
        if len(z) * len(z) <= 4 * 10**7:
            zvals, zcounts = pair_values(z, -1, limit=limit)
            _, ix, iz = np.intersect1d(dvals, zvals, assume_unique=True, return_indices=True)
            off = 2 * int(np.dot(dcounts[ix], zcounts[iz]))
        else:
            if len(dvals) * len(z) > 5 * 10**8:
                raise BudgetError("shifted correlation join too large")
            for d, c in zip(dvals.tolist(), dcounts.tolist()):
                base = z[: np.searchsorted(z, 2**63 - 1 - d, "right")]  # z + d stays in int64
                off += 2 * c * int(np.isin(base + d, z, assume_unique=True).sum())
    total = diagonal + off
    return MomentCount(
        label="shifted_cube_correlation",
        parameters={"P3": P3, "sample_size": len(z)},
        count=total,
        parts={"diagonal": diagonal, "off_diagonal": off},
    )
