"""Exact counting engines for the mean-value diagnostics.

Everything here is a finite lattice-point count: collisions of sixth-power
pair sums, the mixed cube/sixth-power correlation, the eighth moment of the
sixth-power spectrum, cube-difference multiplicities and shifted-cube
correlations against an arbitrary shift set.  All joins run on exact integers;
value-indexed dense arrays are used only while ranges stay small, otherwise the
counts go through sorted 64-bit value joins.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, PreconditionError
from .intmath import iroot

@dataclass(frozen=True)
class MomentCount:
    label: str
    parameters: dict
    count: int
    parts: dict | None = None


@dataclass(frozen=True)
class MultiplicitySet:
    """Signed integers with >= 2 representations as x1^3 - x2^3, 1 <= xi <= P3.

    Zero is excluded: the diagonal always has exactly P3 representations.
    """

    P3: int
    members: np.ndarray  # int64, strictly increasing
    max_multiplicity: int


def _pair_sum_counts(P: int, k: int = 6) -> tuple[np.ndarray, np.ndarray]:
    powers = np.arange(1, P + 1, dtype=np.int64) ** k
    sums = (powers[:, None] + powers[None, :]).ravel()
    return np.unique(sums, return_counts=True)


def _split_pair_sums(P6: int) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) = divmod(x^6 + y^6, 2^64) over [1, P6]^2, flattened with x
    as the row; hi fits uint8 while 2 P6^6 < 2^72."""
    powers = [x**6 for x in range(1, P6 + 1)]
    lo = np.array([p & (2**64 - 1) for p in powers], dtype=np.uint64)
    hi = np.array([p >> 64 for p in powers], dtype=np.uint8)
    lo_sum = lo[:, None] + lo[None, :]  # wraps mod 2^64; a wrap is a carry
    hi_sum = hi[:, None] + hi[None, :] + (lo_sum < lo[:, None])
    return hi_sum.ravel(), lo_sum.ravel()


def count_sixth_pair_collisions(P6: int) -> MomentCount:
    """Solutions of y1^6 + y2^6 = y3^6 + y4^6 in [1, P6]^4 (ordered).

    Pair sums pass 2^64 from P6 = 1449 on, so each is held exactly as split
    keys (hi, lo).  Sorting by hi, then by lo within each hi, puts equal sums
    in runs; the count is the sum of the squared run lengths.
    """
    if P6 < 1:
        raise PreconditionError("bound P6 must be >= 1")
    if P6 > 3000:
        raise BudgetError("pair-collision count budget is P6 <= 3000")
    hi, lo = _split_pair_sums(P6)
    order = np.argsort(hi, kind="stable")
    total = 0
    for run in np.split(lo[order], np.flatnonzero(np.diff(hi[order])) + 1):
        run.sort()
        starts = np.flatnonzero(np.r_[True, run[1:] != run[:-1]])
        counts = np.diff(np.r_[starts, len(run)])
        total += int(np.dot(counts, counts))
    return MomentCount(
        label="sixth_pair_collision", parameters={"P6": P6}, count=total
    )


def _cube_diff_counts(P3: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of x1^3 - x2^3 over [1, P3]^2 with multiplicities."""
    cubes = np.arange(1, P3 + 1, dtype=np.int64) ** 3
    diffs = (cubes[:, None] - cubes[None, :]).ravel()
    return np.unique(diffs, return_counts=True)


def count_cube_sixth_correlation(X: int) -> MomentCount:
    """Solutions of x1^3 - x2^3 = y1^6 + y2^6 - y3^6 - y4^6 with
    1 <= x <= floor(X^(1/3)) and 1 <= y <= floor(X^(1/6)).

    The count is reported with its structural split: the diagonal x1 = x2,
    values with a unique cube-difference representation, and values with
    several.
    """
    if X < 1:
        raise PreconditionError("bound X must be >= 1")
    if X > 10**8:
        raise BudgetError("correlation count budget is X <= 10**8")
    P3, P6 = iroot(X, 3), iroot(X, 6)
    dvals, dcounts = _cube_diff_counts(P3)
    uvals, ucounts = _pair_sum_counts(P6)
    yvals = (uvals[:, None] - uvals[None, :]).ravel()
    yweights = (ucounts[:, None] * ucounts[None, :]).ravel()
    order = np.argsort(yvals, kind="stable")
    yvals = yvals[order]
    yweights = yweights[order]
    starts = np.concatenate([[0], np.flatnonzero(yvals[1:] != yvals[:-1]) + 1])
    ydistinct = yvals[starts]
    ycounts = np.add.reduceat(yweights, starts)

    shared, ix, iy = np.intersect1d(
        dvals, ydistinct, assume_unique=True, return_indices=True
    )
    cx = dcounts[ix]
    cy = ycounts[iy]
    total = int(np.dot(cx, cy))

    # cube-diff value 0 arises exactly from the P3 diagonal pairs, so the
    # zero bucket is the full x1 = x2 contribution
    zero = shared == 0
    diagonal = int(np.dot(cx[zero], cy[zero]))
    off = ~zero
    unique_rep = int(cy[off][cx[off] == 1].sum())
    multi_rep = int(np.dot(cx[off][cx[off] > 1], cy[off][cx[off] > 1]))
    parts = {
        "diagonal": diagonal,
        "unique_representation": unique_rep,
        "multiple_representation": multi_rep,
    }
    return MomentCount(
        label="cube_sixth_correlation",
        parameters={"X": X, "P3": P3, "P6": P6},
        count=total,
        parts=parts,
    )


def _sum_squared_group_weights(packed: np.ndarray, weight_bits: int) -> int:
    """packed is sorted; entry = (value << weight_bits) | weight.
    Returns sum over runs of equal value of (sum of weights)^2, chunked so that
    no run-boundary array of full length is ever materialised."""
    mask = (1 << weight_bits) - 1
    total = 0
    carry_value = None
    carry_weight = 0
    step = 1 << 24
    for lo in range(0, len(packed), step):
        chunk = packed[lo : lo + step]
        values = chunk >> weight_bits
        weights = chunk & mask
        starts = np.concatenate([[0], np.flatnonzero(values[1:] != values[:-1]) + 1])
        sums = np.add.reduceat(weights, starts)
        if carry_value is not None:
            if values[0] == carry_value:
                sums[0] += carry_weight
            else:
                total += carry_weight * carry_weight
        carry_value = int(values[-1])
        carry_weight = int(sums[-1])
        head = sums[:-1]
        total += int(np.dot(head, head))
    if carry_value is not None:
        total += carry_weight * carry_weight
    return total


def sixth_power_eighth_moment(P6: int) -> MomentCount:
    """Solutions of y1^6 + ... + y4^6 = y5^6 + ... + y8^6 in [1, P6]^8.

    Counted as the sum of squared quadruple-spectrum multiplicities; quadruple
    sums are generated from the compressed pair spectrum.
    """
    if P6 < 1:
        raise PreconditionError("bound P6 must be >= 1")
    if P6 > 200:
        raise BudgetError("eighth-moment budget is P6 <= 200")
    vals, counts = _pair_sum_counts(P6)
    u = len(vals)
    wmax = 2 * int(counts.max()) ** 2
    weight_bits = max(1, wmax.bit_length())
    top = 2 * int(vals[-1])
    if (top << weight_bits) >= 2**62:
        raise BudgetError("packed quadruple values would overflow int64")
    n_entries = u * (u + 1) // 2
    if n_entries * 8 > 3 * 2**30:
        raise BudgetError(
            f"quadruple join needs {n_entries} packed entries "
            f"({n_entries * 8 / 2**30:.1f} GiB)"
        )
    packed = np.empty(n_entries, dtype=np.int64)
    pos = 0
    for i in range(u):
        tail = u - i
        sums = vals[i] + vals[i:]
        weights = counts[i] * counts[i:] * 2
        weights[0] //= 2  # the (i, i) cell is not doubled
        packed[pos : pos + tail] = (sums << weight_bits) | weights
        pos += tail
    packed.sort()
    total = _sum_squared_group_weights(packed, weight_bits)
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
    cubes = np.arange(1, P3 + 1, dtype=np.int64) ** 3
    n_pairs = P3 * (P3 - 1) // 2
    diffs = np.empty(n_pairs, dtype=np.int64)
    pos = 0
    for i in range(1, P3):
        diffs[pos : pos + i] = cubes[i] - cubes[:i]
        pos += i
    diffs.sort()
    if len(diffs) == 0:
        return MultiplicitySet(P3=P3, members=np.empty(0, dtype=np.int64), max_multiplicity=0)
    starts = np.concatenate([[0], np.flatnonzero(diffs[1:] != diffs[:-1]) + 1])
    run_lengths = np.diff(np.concatenate([starts, [len(diffs)]]))
    repeated = diffs[starts[run_lengths >= 2]]
    members = np.concatenate([-repeated[::-1], repeated])
    return MultiplicitySet(
        P3=P3, members=members, max_multiplicity=int(run_lengths.max())
    )


def shifted_cube_correlation(P3: int, shifts) -> MomentCount:
    """Solutions of x1^3 + n1 = x2^3 + n2 with x in [1, P3] and n1, n2 drawn
    from the shift set.  The diagonal n1 = n2 forces x1 = x2 and contributes
    exactly P3 * |shifts|; the off-diagonal part is reported separately."""
    if P3 < 1:
        raise PreconditionError("bound P3 must be >= 1")
    if P3 > 10**4:
        raise BudgetError("correlation budget is P3 <= 10**4")
    z = np.asarray(sorted(int(v) for v in shifts), dtype=np.int64)
    if len(z) != len(set(z.tolist())):
        raise PreconditionError("shift set entries must be distinct")
    if len(z) > 10**5:
        raise BudgetError("shift set budget is 10**5 entries")
    diagonal = P3 * len(z)
    dvals, dcounts = _cube_diff_counts(P3)
    positive = dvals > 0
    dvals, dcounts = dvals[positive], dcounts[positive]
    off = 0
    if len(z) > 1 and len(dvals) > 0:
        if len(z) * len(z) <= 4 * 10**7:
            zdiffs = (z[:, None] - z[None, :]).ravel()
            zdiffs = zdiffs[zdiffs > 0]
            zvals, zcounts = np.unique(zdiffs, return_counts=True)
            shared, ix, iz = np.intersect1d(
                dvals, zvals, assume_unique=True, return_indices=True
            )
            off = 2 * int(np.dot(dcounts[ix], zcounts[iz]))
        else:
            if len(dvals) * len(z) > 5 * 10**8:
                raise BudgetError("shifted correlation join too large")
            for d, c in zip(dvals, dcounts):
                matched = int(np.isin(z + int(d), z, assume_unique=True).sum())
                off += 2 * int(c) * matched
    total = diagonal + off
    return MomentCount(
        label="shifted_cube_correlation",
        parameters={"P3": P3, "sample_size": len(z)},
        count=total,
        parts={"diagonal": diagonal, "off_diagonal": off},
    )
