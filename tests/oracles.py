"""Independent brute-force reference implementations.

Everything here is deliberately naive: nested loops, per-term phase sums,
midpoint rules.  These stay independent of the package's computational paths
so that agreement is evidence, not circularity.
"""

import cmath
import csv
import io
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from circleforge.errors import BudgetError, PreconditionError
from circleforge.intmath import factorize
from circleforge.powersums import gauss_sum_table, leading_constant
from circleforge.scan import PRE_ASYMPTOTIC_CUTOFF
from circleforge.sseries import _live_tables, series_term


def primes_up_to(n):
    """All primes <= n by a sieve of Eratosthenes on a bytearray."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if sieve[p]]


def prime_powers_up_to(n):
    """All prime powers p**h <= n as (p, h, p**h), sorted by value."""
    out = []
    for p in primes_up_to(n):
        q, h = p, 1
        while q <= n:
            out.append((p, h, q))
            q *= p
            h += 1
    return sorted(out, key=lambda t: t[2])


def gauss_direct(k, q, a):
    """Direct summation of e(a r^k / q) with exact integer phase reduction."""
    total = 0j
    for r in range(1, q + 1):
        m = a * pow(r, k, q) % q
        total += cmath.exp(2j * cmath.pi * m / q)
    return total


def weyl_direct(k, P, num, den):
    """Direct summation of e((num/den) x^k) term by term."""
    total = 0j
    for x in range(1, P + 1):
        m = num * pow(x, k, den) % den
        total += cmath.exp(2j * cmath.pi * m / den)
    return total


def series_term_direct(q, n):
    """Literal evaluation of A(q; n) from per-a Gauss sums."""
    if q < 1:
        raise PreconditionError("modulus q must be a positive integer")
    if q > 2000:
        raise BudgetError("direct path is reserved for small moduli")
    total = 0.0 + 0.0j
    for a in range(1, q + 1):
        if np.gcd(a, q) != 1:
            continue
        s2, s3, s6 = (gauss_direct(k, q, a) for k in (2, 3, 6))
        total += s2**2 * s3**2 * s6**2 * np.exp(-2j * np.pi * n * a / q) / q**6
    return total.real


def residue_histogram_direct(k, q):
    """Counts of each value of r**k mod q over r = 0..q-1, one pow at a time."""
    return np.bincount([pow(r, k, q) for r in range(q)], minlength=q)


def term_table_per_row(q):
    """A(q; n mod q) for all residues n, complex, from one transform call per
    Gauss-sum row: the float operations of the stacked transform it checks."""
    s2, s3, s6 = (gauss_sum_table(k, q) for k in (2, 3, 6))
    weights = s2**2 * s3**2 * s6**2 / float(q) ** 6
    weights[np.gcd(np.arange(q), q) != 1] = 0.0
    return np.fft.fft(weights)


def live_tables_per_row(top):
    """The live tables for q <= top, in ascending q, built as _live_tables
    builds them, but each prime power tested per exponent on its own
    histogram and its table taken from term_table_per_row."""
    tables = {1: np.ones(1)}
    for q in range(2, top + 1):
        p, h = factorize(q)[0]
        ppow, rest = p**h, q // p**h
        if ppow == q:
            rows = (residue_histogram_direct(k, q).reshape(p, q // p) for k in (2, 3, 6))
            if not any((r == r[0]).all() for r in rows):
                tables[q] = term_table_per_row(q).real
        elif ppow in tables and rest in tables:
            idx = np.arange(q)
            tables[q] = tables[ppow][idx % ppow] * tables[rest][idx % rest]
    return list(tables.values())


def series_sum_literal(n, W):
    """sum_{q<=W} A(q; n) from the package's per-q term tables: a path apart
    from the prime-power assembly of the truncation it checks."""
    if W < 1:
        raise PreconditionError("truncation W must be >= 1")
    if W > 500:
        raise BudgetError("literal summation is kept only for W <= 500")
    return float(sum(series_term(q, n).value for q in range(1, W + 1)))


def _add_periodic_whole_range(acc, tables):
    """acc[n] += table[n % len(table)] in place, for each table in turn."""
    for table in tables:
        q = len(table)
        full = len(acc) // q * q
        tiles = acc[:full].reshape(-1, q)  # a view: adds in place
        tiles += table
        acc[full:] += table[: len(acc) - full]


def series_batch_tiled(X, W):
    """(S_W, S_2W) over n = 0..X by one full pass over the range per live
    table, in ascending q: the float additions series_batch makes per
    n-block, in the same order, so the two agree bit for bit."""
    live = _live_tables(2 * W)
    cut = sum(len(table) <= W for table in live)
    acc = np.zeros(X + 1)
    _add_periodic_whole_range(acc, live[:cut])
    snapshot = acc.copy()
    _add_periodic_whole_range(acc, live[cut:])
    return snapshot, acc


def scan_report_whole(X, psi, counts, series_w, series_2w):
    """The fields of scan's report over n = 0..X from the exact counts and
    (S_W, S_2W), each by one whole-array numpy operation, in the order of the
    operations scan makes per n-block, so the two agree bit for bit."""
    n = np.arange(X + 1, dtype=np.float64)
    main = leading_constant().value * series_w * n
    abs_errs = np.abs(counts - main)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel_errs = np.where(main > 0, abs_errs / np.where(main > 0, main, 1.0), np.inf)
    psi_vals = psi(n)
    with np.errstate(divide="ignore"):
        thresholds = np.where(psi_vals > 0, n / np.where(psi_vals > 0, psi_vals, 1.0), np.inf)
    flags = abs_errs > thresholds
    flags[0] = False
    E = int(flags[1:].sum())
    edges = [0, 1]
    while edges[-1] < X:
        edges.append(min(2 * edges[-1], X))
    qs = np.percentile(rel_errs[1:], [50, 90, 99])
    asym = rel_errs[PRE_ASYMPTOTIC_CUTOFF:] if X >= PRE_ASYMPTOTIC_CUTOFF else rel_errs[1:]
    return dict(
        E=E,
        dyadic_counts=tuple((lo, hi, int(flags[lo + 1 : hi + 1].sum()))
                            for lo, hi in zip(edges, edges[1:])),
        rel_err_quantiles={"50": float(qs[0]), "90": float(qs[1]), "99": float(qs[2])},
        rel_err_median_asymptotic=float(np.median(asym)),
        exceptional_proportion=E / X,
        counts=counts,
        series=series_w,
        tails=np.abs(series_2w - series_w),
        flags=flags,
    )


def congruence_brute(q, n):
    count = 0
    for x1 in range(q):
        for x2 in range(q):
            s2 = x1 * x1 + x2 * x2
            for x3 in range(q):
                for x4 in range(q):
                    s4 = s2 + x3**3 + x4**3
                    for x5 in range(q):
                        for x6 in range(q):
                            if (s4 + x5**6 + x6**6 - n) % q == 0:
                                count += 1
    return count


def cyclic_convolution_kronecker(histograms, q):
    """Cyclic convolution mod q of integer histograms by Kronecker substitution.

    Each histogram becomes one big integer with a slot per residue, wide
    enough for the product of the masses; the running product is folded back
    to q slots after every multiplication.  Plain Python integers throughout,
    no floats and no transform.
    """
    mass = 1
    for h in histograms:
        mass *= max(1, int(sum(h)))
    slot_bytes = (mass.bit_length() + 1 + 7) // 8
    fold_shift = q * slot_bytes * 8
    fold_mask = (1 << fold_shift) - 1
    acc = None
    for h in histograms:
        packed = int.from_bytes(
            b"".join(int(v).to_bytes(slot_bytes, "little") for v in h), "little"
        )
        if acc is None:
            acc = packed
        else:
            acc *= packed
            while acc >> fold_shift:
                acc = (acc & fold_mask) + (acc >> fold_shift)
    raw = acc.to_bytes(q * slot_bytes, "little")
    return [
        int.from_bytes(raw[i * slot_bytes : (i + 1) * slot_bytes], "little")
        for i in range(q)
    ]


def poly_mod_horner(coeffs, r, p):
    """sum_i coeffs[i] * r**i mod p by Horner's rule on Python integers."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * r + int(c)) % p
    return acc


def rep_single_brute(n):
    """R(n) by full enumeration; fine up to n of a few hundred."""
    count = 0
    for x3 in range(1, n):
        if x3**3 + 5 > n:
            break
        for x4 in range(1, n):
            s4 = x3**3 + x4**3
            if s4 + 4 > n:
                break
            for x5 in range(1, n):
                if s4 + x5**6 + 3 > n:
                    break
                for x6 in range(1, n):
                    s6 = s4 + x5**6 + x6**6
                    if s6 + 2 > n:
                        break
                    for x1 in range(1, n):
                        rest = n - s6 - x1 * x1
                        if rest < 1:
                            break
                        r = math.isqrt(rest)
                        if r * r == rest:
                            count += 1
    return count


def rep_range_enumeration(X):
    """R(n) for all n <= X by enumerating every tuple with early pruning.

    Five explicit loops; the innermost variable is tallied with a bincount,
    which is still plain enumeration of all six coordinates.
    """
    counts = np.zeros(X + 1, dtype=np.int64)
    squares = np.arange(1, math.isqrt(X) + 1, dtype=np.int64) ** 2
    for x5 in range(1, X):
        p5 = x5**6
        if p5 + 5 > X:
            break
        for x6 in range(1, X):
            p56 = p5 + x6**6
            if p56 + 4 > X:
                break
            for x3 in range(1, X):
                p356 = p56 + x3**3
                if p356 + 3 > X:
                    break
                for x4 in range(1, X):
                    p = p356 + x4**3
                    if p + 2 > X:
                        break
                    for x1 in range(1, X):
                        base = p + x1 * x1
                        if base + 1 > X:
                            break
                        top = X - base
                        usable = squares[squares <= top]
                        counts[base + usable] += 1
    return counts


def cube_sixth_correlation_brute(X):
    P3 = round(X ** (1 / 3) + 1e-9)
    while P3**3 > X:
        P3 -= 1
    P6 = round(X ** (1 / 6) + 1e-9)
    while P6**6 > X:
        P6 -= 1
    count = 0
    for x1 in range(1, P3 + 1):
        for x2 in range(1, P3 + 1):
            lhs = x1**3 - x2**3
            for y1 in range(1, P6 + 1):
                for y2 in range(1, P6 + 1):
                    for y3 in range(1, P6 + 1):
                        for y4 in range(1, P6 + 1):
                            if lhs == y1**6 + y2**6 - y3**6 - y4**6:
                                count += 1
    return count


def eighth_moment_brute(P6):
    tally = Counter()
    for y1 in range(1, P6 + 1):
        for y2 in range(1, P6 + 1):
            for y3 in range(1, P6 + 1):
                for y4 in range(1, P6 + 1):
                    tally[y1**6 + y2**6 + y3**6 + y4**6] += 1
    return sum(c * c for c in tally.values())


def eighth_moment_unique(P6):
    """sum_v W(v)^2 over all P6^4 ordered sums y1^6 + ... + y4^6, reduced by
    np.unique."""
    u = np.arange(1, P6 + 1, dtype=np.int64) ** 6
    pairs = (u[:, None] + u[None, :]).ravel()
    _, counts = np.unique((pairs[:, None] + pairs[None, :]).ravel(), return_counts=True)
    return int(counts @ counts)


def pair_values_grid(a, sign=1, limit=None):
    """Distinct values of a[i] + a[j] over all ordered pairs (sign=1), or of
    the positive a[i] - a[j] (sign=-1), at most limit, each with its number
    of ordered pairs: the full P^2 grid in plain int64, reduced by
    np.unique."""
    a = np.asarray(a, dtype=np.int64)
    values = (a[:, None] + sign * a[None, :]).ravel()
    keep = values > 0 if sign == -1 else np.ones(len(values), dtype=bool)
    if limit is not None:
        keep &= values <= limit
    return np.unique(values[keep], return_counts=True)


def key_runs_unique(keys, bits):
    """(values, sums) of sorted packed keys (value << bits) | (weight - 1):
    each distinct value by np.unique, with its number of keys plus the sum of
    their weight codes."""
    keys = np.asarray(keys, dtype=np.int64)
    values, inverse, counts = np.unique(keys >> bits, return_inverse=True, return_counts=True)
    sums = counts.astype(np.int64)
    np.add.at(sums, inverse, keys & ((1 << bits) - 1))
    return values, sums


def concat_runs(chunks):
    """The (values, sums) chunks of a run reduction laid end to end, as two
    int64 arrays, after checking that no chunk is empty and that the values
    increase strictly within and across chunks, so no run is split."""
    chunks = list(chunks)
    assert all(len(values) for values, _ in chunks)
    empty = np.empty(0, dtype=np.int64)
    values, sums = (np.concatenate(part) for part in zip((empty, empty), *chunks))
    assert (np.diff(values) > 0).all()
    return values, sums


def pair_collision_brute(P6):
    tally = Counter()
    for y1 in range(1, P6 + 1):
        for y2 in range(1, P6 + 1):
            tally[y1**6 + y2**6] += 1
    return sum(c * c for c in tally.values())


def cube_multiplicity_brute(P3):
    tally = Counter()
    for a in range(1, P3 + 1):
        for b in range(1, P3 + 1):
            if a != b:
                tally[a**3 - b**3] += 1
    members = sorted(m for m, c in tally.items() if c >= 2)
    return members, (max(tally.values()) if tally else 0)


def shifted_correlation_brute(P3, shifts):
    """x1^3 + n1 = x2^3 + n2 counted over every x1, x2 and n1 in exact
    integers, n2 looked up in the set of distinct shifts."""
    members = set(shifts)
    return sum(x1**3 + n1 - x2**3 in members
               for x1 in range(1, P3 + 1) for x2 in range(1, P3 + 1) for n1 in shifts)


def weyl_integral_midpoint(k, P, beta, nodes=10**6):
    g = (np.arange(nodes) + 0.5) * (P / nodes)
    return complex(np.exp(2j * np.pi * beta * g**k).sum() * (P / nodes))


_GL8 = np.polynomial.legendre.leggauss(8)


def _phase_panel_bounds(k, P, panels):
    """Panel boundaries on [0, P]: an equal-phase grid (uniform increments of
    g^k) merged with a coarse uniform grid, so that neither the oscillatory
    region near P nor the wide leading panel is under-resolved."""
    j = np.arange(panels + 1, dtype=np.float64)
    phase_grid = P * (j / panels) ** (1.0 / k)
    uniform = np.linspace(0.0, float(P), 17)
    return np.unique(np.concatenate([phase_grid, uniform]))


def _initial_panels(k, P, beta):
    cycles = abs(beta) * float(P) ** k
    return max(8, int(math.ceil(4.0 * cycles)))


def weyl_integral_adaptive(k, P, mags, rel_tol):
    """v_k at offsets mags >= 0 by 8-point Gauss panels on one shared panel
    structure, doubled until no value moves by more than rel_tol * P."""
    mags = np.asarray(mags, dtype=np.float64)
    panels = _initial_panels(k, P, float(mags.max()))
    offsets, weights = _GL8
    previous = None
    for _ in range(24):
        bounds = _phase_panel_bounds(k, P, panels)
        half, mid = 0.5 * np.diff(bounds), 0.5 * (bounds[1:] + bounds[:-1])
        nodes = (mid[:, None] + half[:, None] * offsets).ravel()
        wts = (half[:, None] * weights).ravel()
        est = np.exp(2j * np.pi * np.outer(mags, nodes**k)) @ wts
        if previous is not None and np.abs(est - previous).max() <= rel_tol * P:
            return est
        previous = est
        panels *= 2
    raise AssertionError(f"panel quadrature did not meet {rel_tol:g}*P")


def exceptional_sum_direct(members, alpha, eta=None):
    total = 0j
    for i, n in enumerate(members):
        c = 1.0 if eta is None else eta[i]
        total += c * cmath.exp(-2j * cmath.pi * n * alpha)
    return total


def exceptional_sum_float_phases(members, alphas, eta=None):
    """K over a float grid by one rounded product alpha n per member, its
    nearest integer taken off, one np.exp per phase and numpy's row sums: the
    library's formula before its phase tables, within 5e-8 Z for |n| <= 2^26
    (the product alone is rounded by up to 2^-28 cycles)."""
    theta = np.zeros(len(members)) if eta is None else np.angle(eta) / (2 * np.pi)
    cycles = np.outer(np.asarray(alphas, dtype=np.float64), -np.asarray(members, dtype=np.float64))
    cycles = cycles - np.rint(cycles) + theta
    return np.exp(np.multiply(cycles, 2j * np.pi)).sum(axis=1)


def exceptional_sum_exact_phases(members, alphas, eta=None):
    """K with exact phases: a float alpha is a / 2^e exactly
    (float.as_integer_ratio), so alpha n mod 1 is ((a n) mod 2^e) / 2^e in
    Python integers, taken into [-1/2, 1/2) and rounded once to a float
    before one exponential per member; each eta_n is scaled to modulus 1,
    and each row's parts are added by math.fsum.  Each term errs by a few
    units in the last place, and the sum by one rounding."""
    units = None if eta is None else np.array([c / abs(c) for c in map(complex, eta)])
    out = np.empty(len(alphas), dtype=complex)
    for i, alpha in enumerate(alphas):
        a, scale = float(alpha).as_integer_ratio()
        half = scale // 2 if scale > 1 else 0
        phases = np.array([((a * n + half) % scale - half) / scale for n in members])
        terms = np.exp(-2j * np.pi * phases)
        if units is not None:
            terms *= units
        out[i] = complex(math.fsum(terms.real), math.fsum(terms.imag))
    return out


def two_density_two_calls(nodes, integrands, grid):
    """The grid-halving quadrature with one integrand call per density: the
    coarse and the fine node sets are integrated separately."""
    results = []
    for factor in (grid, 2 * grid):
        points, weights, *rest = nodes(factor)
        values = integrands(points, *rest)
        results.append(([complex(np.dot(weights, v)) for v in values],
                        (points, weights, *rest), values))
    (coarse, _, _), (fine, fine_nodes, values) = results
    changes = [abs(f - c) / max(abs(f), 1e-300) for c, f in zip(coarse, fine)]
    return fine, changes, fine_nodes, values


def dissect_midpoints(pairs, halfwidth, exclude=()):
    """The arc dissection by dense midpoint tests: every elementary segment's
    midpoint against every arc and every hole in (segments x arcs) matrices.
    The first covering arc in `pairs` (sorted by q) owns the segment."""
    centers = np.array([a / q for q, a in pairs])
    widths = np.array([halfwidth(q) for q, _ in pairs])
    ex_centers = np.array([a / q for q, a in exclude])
    ex_widths = np.array([halfwidth(q) for q, _ in exclude]) / 2
    events = [[0.0, 1.0], centers - widths, centers + widths, ex_centers - ex_widths,
              ex_centers + ex_widths]
    cuts = np.unique(np.clip(np.concatenate(events), 0.0, 1.0))
    mids = 0.5 * (cuts[1:] + cuts[:-1])
    cover = np.abs(mids[:, None] - centers[None, :]) <= widths[None, :]
    excluded = (np.abs(mids[:, None] - ex_centers[None, :]) <= ex_widths[None, :]).any(axis=1)
    assigned = cover.argmax(axis=1)
    keep = np.flatnonzero(cover.any(axis=1) & ~excluded)
    return [(float(cuts[i]), float(cuts[i + 1]), int(assigned[i])) for i in keep]


def quad_nodes_per_segment(segments, density):
    """Composite 4-point Gauss nodes, weights and owners built one segment at
    a time, each segment's panel bounds from np.linspace."""
    from circleforge.arcints import _GL4, _gauss_panels

    nodes, weights, owners = [], [], []
    for lo, hi, idx in segments:
        m = max(1, int(math.ceil((hi - lo) / (1.0 / density))))
        bounds = np.linspace(lo, hi, m + 1)
        x, w = _gauss_panels(bounds[:-1], bounds[1:], _GL4)
        nodes.append(x)
        weights.append(w)
        owners.append(np.full(4 * m, idx, dtype=np.int64))
    return tuple(map(np.concatenate, (nodes, weights, owners)))


def least_peak_arc_scan(alpha, W, X):
    """Least q <= W with |alpha - a/q| <= W/X and gcd(a, q) = 1, every
    numerator in the window tested; the nearest one wins, the smaller on a
    tie."""
    width = Fraction(W, X)
    for q in range(1, W + 1):
        lo = math.ceil((alpha - width) * q)
        hi = math.floor((alpha + width) * q)
        best = None
        for a in range(max(lo, 0), min(hi, q) + 1):
            if math.gcd(a, q) == 1:
                dist = abs(alpha - Fraction(a, q))
                if dist <= width and (best is None or dist < best[0]):
                    best = (dist, a)
        if best is not None:
            return q, best[1]
    return None


def record_rows(report):
    """A scan report's per-record CSV rows built one element at a time: the
    floats formatted to 12 significant digits, the flag as 0 or 1."""
    C = leading_constant().value
    for n in range(1, report.X + 1):
        main = C * report.series[n] * n
        abs_err = abs(report.counts[n] - main)
        rel_err = abs_err / main if main > 0 else math.inf
        floats = (report.series[n], report.tails[n], main, abs_err, rel_err)
        yield (n, int(report.counts[n]), *(f"{v:.12g}" for v in floats), int(report.flags[n]))


def csv_table(header, rows) -> str:
    """Header and rows as csv.writer writes them, one row at a time."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()
