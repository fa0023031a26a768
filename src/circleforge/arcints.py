"""Quadrature diagnostics over the arc dissection.

The unit interval is cut into elementary segments at all arc endpoints; every
segment knows the least-denominator arc covering it, so integrals over
overlapping arc families are integrals over disjoint assigned pieces.  All
quadratures carry a grid-refinement contract: each reported value is computed
at the requested grid and at twice the density, and the relative change is
part of the result.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import workers
from .arcs import (
    PHASE_BLOCK,
    PHASE_INTEGER_LIMIT,
    ExceptionalSample,
    exceptional_sum_grid,
    peak_majorant,
    weyl_integral_batch,
    weyl_sum,
)
from .errors import BudgetError, PreconditionError
from .intmath import iroot
from .powersums import gauss_sum, leading_constant

# quadrature nodes at one grid density, in each of the three integrals and the
# survey (29,064 in its annulus at X = 10**4, Q = 100).  On the two cores of a
# 2-core Xeon VM the largest singular integral admitted, 499,968 fine nodes at
# --n 10**6 --limit 10**6 --trunc 7812, takes 0.8 s and peaks at 144 MiB as a
# fresh CLI process (1.2 s on one core); 4.9e5 fine nodes take 0.85 s and
# 220 MiB in major_arc_integral(5000, 10**4, 6, grid=428), 1.2-1.4 s and
# 174 MiB in the pruned integral at X = 10**4, Q = 16, 100 members (grid=263)
QUAD_NODE_BUDGET = 5 * 10**5
# survey panels per 1/sqrt(X)
SURVEY_DENSITY = 40
# np.polynomial.legendre.leggauss(4), bit for bit (a test checks it); the call
# would import numpy.polynomial and run LAPACK's eigvalsh at package import
_GL4 = (
    np.array([-0.8611363115940526, -0.33998104358485626, 0.33998104358485626, 0.8611363115940526]),
    np.array([0.34785484513745357, 0.6521451548625464, 0.6521451548625464, 0.34785484513745357]),
)


@dataclass(frozen=True, eq=False)
class MajorArcIntegral:
    n: int
    X: int
    W: int
    value: complex            # integral of f2^2 f3^2 f6^2 e(-n a)
    approx: complex           # same with every f_k replaced by its arc model
    difference: float
    value_rel_change: float   # grid-halving stability of `value`
    approx_rel_change: float
    grid_points: int
    arc_columns: dict         # per-arc table, see _arc_columns


@dataclass(frozen=True)
class SingularIntegral:
    n: int
    X: int
    W: int
    value: float
    imag_residual: float
    rel_change: float
    reference: float          # leading constant times n
    grid_points: int


@dataclass(frozen=True, eq=False)
class PrunedDiagnostic:
    X: int
    Q: int
    sample_size: int
    raw: float                # |f2^2 f3^2 f6^2 K|
    square_majorant: float    # square factor replaced by its arc majorant
    cubic_approx: float       # additionally f3 replaced by its arc model
    raw_rel_change: float
    square_majorant_rel_change: float
    cubic_approx_rel_change: float
    grid_points: int
    bound_X_sqrtZ: float      # X sqrt(Z), Z the sample size
    bound_X_power_Z: float    # X^(1 - delta^2) Z
    arc_columns: dict


def _farey_pairs(bound: int) -> list[tuple[int, int]]:
    """Reduced (q, a), 0 <= a <= q <= bound, sorted by q."""
    return [(q, a) for q in range(1, bound + 1) for a in range(q + 1) if math.gcd(a, q) == 1]


def _dissect(pairs, halfwidth, exclude=()) -> list[tuple[float, float, int]]:
    """Cut [0, 1] at all arc endpoints; return (lo, hi, pair_index) for every
    elementary segment inside the union of the arcs |alpha - a/q| <= halfwidth(q),
    assigned to its least-q covering arc (pairs are sorted by q), and outside
    every exclusion arc, taken at half width.  Arc indices are painted over
    their ranges of sorted cuts, the least q last, then holes paint -1."""
    centers = np.array([a / q for q, a in pairs])
    widths = np.array([halfwidth(q) for q, _ in pairs])
    ex_centers = np.array([a / q for q, a in exclude])
    ex_widths = np.array([halfwidth(q) for q, _ in exclude]) / 2
    ends = np.clip(np.concatenate([centers - widths, ex_centers - ex_widths,
                                   centers + widths, ex_centers + ex_widths]), 0.0, 1.0)
    # sorted and deduplicated as np.unique does, which in numpy 2.4 would
    # import numpy.ma on its first call
    cuts = np.sort(np.concatenate([[0.0, 1.0], ends]))
    cuts = cuts[np.r_[True, cuts[1:] != cuts[:-1]]]
    first, last = np.searchsorted(cuts, ends).reshape(2, -1).tolist()
    owner = np.full(len(cuts) - 1, -1, dtype=np.int64)
    for i in range(len(pairs) - 1, -1, -1):
        owner[first[i] : last[i]] = i
    for i in range(len(pairs), len(first)):
        owner[first[i] : last[i]] = -1
    # all callers' cuts are a/q +- m/(2qX), m an integer, so distinct cuts differ by
    # >= 1/(2 q q' X) >= 1.2e-11 within the budgets (q <= 632, X <= 1e5): a segment
    # below 1e-12 joins two float paths to one cut, of exact width 0, and dropping it
    # moves an integral by at most its float width (an ulp) times the integrand's sup
    keep = np.flatnonzero((owner >= 0) & (np.diff(cuts) >= 1e-12))
    return [(float(cuts[i]), float(cuts[i + 1]), int(owner[i])) for i in keep]


def _annulus(Q: int, X: int):
    """Farey pairs of level Q and the annulus segments: the level-Q arcs
    |q alpha - a| <= Q/X minus the half-level arcs (q <= Q/2) at half width."""
    pairs = _farey_pairs(Q)
    return pairs, _dissect(pairs, lambda q: Q / (q * X), _farey_pairs(Q // 2))


def _gauss_panels(lo: np.ndarray, hi: np.ndarray, rule) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss nodes and weights over the panels [lo[i], hi[i]]."""
    offsets, weights = rule
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return (mid[:, None] + half[:, None] * offsets).ravel(), (half[:, None] * weights).ravel()


def _quad_nodes(segments, density: float):
    """Composite 4-point Gauss nodes with panel width <= 1 / density."""
    lo, hi, owners = np.array(segments, dtype=np.float64).T
    # the longest segment alone needs density x its length panels; an int compares
    # exactly with a float, so a density too large for a float never reaches 1 / density
    if density > QUAD_NODE_BUDGET / (4 * float((hi - lo).max())):
        raise BudgetError(f"quadrature budget is {QUAD_NODE_BUDGET} nodes, one segment exceeds it")
    panels = np.maximum(1, np.ceil((hi - lo) / (1.0 / density))).astype(np.int64)
    if 4 * int(panels.sum()) > QUAD_NODE_BUDGET:
        raise BudgetError(f"quadrature budget is {QUAD_NODE_BUDGET} nodes, here {4 * panels.sum()}")
    # all panels at once, bound j of a segment as np.linspace(lo, hi, m + 1)
    # computes it: lo + j * ((hi - lo) / m), and exactly hi for j = m
    seg = np.repeat(np.arange(len(panels)), panels)
    j = np.arange(len(seg)) - np.repeat(np.cumsum(panels) - panels, panels)
    step = ((hi - lo) / panels)[seg]

    def bound(i):
        return np.where(i == panels[seg], hi[seg], lo[seg] + i * step)

    alphas, weights = _gauss_panels(bound(j), bound(j + 1), _GL4)
    return alphas, weights, np.repeat(owners.astype(np.int64), 4 * panels)


def _rel_change(coarse, fine) -> float:
    """Grid-halving stability |fine - coarse| / |fine|."""
    return abs(fine - coarse) / max(abs(fine), 1e-300)


def _two_density(nodes, integrands, grid: int):
    """Integrate at densities grid and 2 * grid.  nodes(factor) gives
    (points, weights, *rest) and integrands(points, *rest) a tuple of pointwise
    arrays over those points, called once over both node sets; returns the fine
    integrals, their relative changes against the coarse ones, the fine nodes
    and the fine integrand arrays.  The sums are numpy's own reductions, not
    BLAS dot products, whose splitting across threads moves the last bits."""
    coarse, fine = nodes(grid), nodes(2 * grid)
    split = len(coarse[0])
    points, _, *rest = (np.concatenate(pair) for pair in zip(coarse, fine))
    values = integrands(points, *rest)
    low = [complex((coarse[1] * v[:split]).sum()) for v in values]
    high = [complex((fine[1] * v[split:]).sum()) for v in values]
    return high, [_rel_change(c, f) for c, f in zip(low, high)], fine, [v[split:] for v in values]


def weyl_sum_grid(k: int, P: int, alphas: np.ndarray) -> np.ndarray:
    """f_k over a float grid of alpha in [0, 1], by the forward-difference
    recurrence on e(alpha x^k): each point takes the k + 1 exponentials
    D_j = e(alpha d_j), d_j = Delta^j x^k at x = 1, and P - 1 steps
    D_j *= D_{j+1} (j < k, ascending), after which D_0 = e(alpha x^k).

    D_0 at x is the product of the D_j taken C(x - 1, j) times; these weights
    sum to at most x^k and weight the d_j to exactly x^k.  The starting phases
    are rounded as in a direct sum, by at most alpha d_j 2^-53 cycles, and each
    exponential and complex product adds a relative error of at most 3 * 2^-53,
    so to first order the term for x errs by (2 pi + 6) x^k 2^-53.  Summed by
    convexity, sum x^k <= P (P^k + 1) / 2, f_k is within
    (pi + 3) (P^k + 1) 2^-53 * P; refused with BudgetError unless P^k <= 2^26,
    a relative error below 5e-8."""
    if int(P) ** k > PHASE_INTEGER_LIMIT:
        raise BudgetError(f"P^k = {P}^{k} exceeds 2^26 for a float Weyl-sum grid")
    alphas = np.asarray(alphas, dtype=np.float64)
    out = np.zeros(len(alphas), dtype=complex)
    if P < 1:
        return out
    # d_j from the values 1^k .. (k + 1)^k, exact in int64
    powers = np.arange(1, k + 2, dtype=np.int64) ** k
    diffs = np.array([np.diff(powers, j)[0] for j in range(k + 1)], dtype=np.float64)

    def fill(lo, hi):
        D = list(np.exp(2j * np.pi * np.outer(diffs, alphas[lo:hi])))
        total = D[0].copy()
        for _ in range(P - 1):
            for j in range(k):
                # a new row: numpy rounds a one-entry product in place differently
                D[j] = D[j] * D[j + 1]
            total += D[0]
        out[lo:hi] = total

    workers.blocks(fill, len(alphas), max(1, PHASE_BLOCK // (k + 1)))
    return out


@lru_cache(maxsize=4096)
def _gauss_value(k: int, q: int, a: int) -> complex:
    return gauss_sum(k, q, a if a else q).value


def _arc_models(pairs, arc_idx, alphas, P_by_k):
    """q^{-1} S_k(q,a) v_k(alpha - a/q) per node, for k = 2, 3, 6."""
    centers = np.array([a / q for q, a in pairs])
    betas = alphas - centers[arc_idx]
    models = {}
    for k, P in P_by_k.items():
        v = weyl_integral_batch(k, P, betas)
        s = np.array([_gauss_value(k, q, a) / q for q, a in pairs])
        models[k] = s[arc_idx] * v
    return models


def _arc_columns(Q, pairs, arc_idx, weights, integrand) -> dict:
    """Each arc's integral and node count on the reported grid, as columns
    q, a, Q, integral_re, integral_im, abs, grid_points."""
    # a stable sort keeps each arc's terms in grid order, so each is summed as
    # the arc's own masked slice would be
    owners, counts = np.unique(arc_idx, return_counts=True)
    contrib = (weights * integrand)[np.argsort(arc_idx, kind="stable")]
    values = np.array([part.sum() for part in np.split(contrib, np.cumsum(counts)[:-1])],
                      dtype=complex)
    q, a = np.array(pairs, dtype=np.int64)[owners].T
    return {"q": q, "a": a, "Q": np.full(len(owners), Q), "integral_re": values.real,
            "integral_im": values.imag, "abs": np.abs(values), "grid_points": counts}


def major_arc_integral(n: int, X: int, W: int, grid: int = 10) -> MajorArcIntegral:
    """Integral of f2^2 f3^2 f6^2 e(-n alpha) over the peak arcs, against its
    fully modelled counterpart, with a grid-halving stability report."""
    if X < 16 or X > 10**5:
        raise BudgetError("major-arc quadrature budget is 16 <= X <= 10**5")
    if n < 1 or W < 1:
        raise PreconditionError("need n >= 1 and W >= 1")
    if grid < 1:
        raise PreconditionError("need grid >= 1")
    if W > 200:
        raise BudgetError("peak level budget is W <= 200")
    P_by_k = {2: iroot(X, 2), 3: iroot(X, 3), 6: iroot(X, 6)}
    pairs = _farey_pairs(W)
    segments = _dissect(pairs, lambda q: W / X)

    def integrands(alphas, arc_idx):
        phase = np.exp(-2j * np.pi * n * alphas)
        f = {k: weyl_sum_grid(k, P, alphas) for k, P in P_by_k.items()}
        direct = f[2] ** 2 * f[3] ** 2 * f[6] ** 2 * phase
        models = _arc_models(pairs, arc_idx, alphas, P_by_k)
        return direct, models[2] ** 2 * models[3] ** 2 * models[6] ** 2 * phase

    (value, approx), changes, (alphas, weights, arc_idx), (direct, _) = _two_density(
        lambda factor: _quad_nodes(segments, factor * X), integrands, grid
    )
    return MajorArcIntegral(
        n=n,
        X=X,
        W=W,
        value=value,
        approx=approx,
        difference=abs(value - approx),
        value_rel_change=changes[0],
        approx_rel_change=changes[1],
        grid_points=len(alphas),
        arc_columns=_arc_columns(W, pairs, arc_idx, weights, direct),
    )


def singular_integral(n: int, X: int, W: int) -> SingularIntegral:
    """int over |beta| <= W/X of v2^2 v3^2 v6^2 e(-beta n) d beta, compared to
    the closed-form leading constant times n.

    The archimedean factors integrate to the real-valued limits X^(1/k): with
    floored limits the comparison against the closed form carries an integer
    rounding deficit of up to ~13% at desk scale, which would swamp the
    truncation behaviour this diagnostic is meant to expose.
    """
    if X < 16 or X > 10**6:
        raise BudgetError("singular-integral budget is 16 <= X <= 10**6")
    if n < 1 or W < 1:
        raise PreconditionError("need n >= 1 and W >= 1")
    P_by_k = {k: X ** (1.0 / k) for k in (2, 3, 6)}
    width = W / X
    panels = max(64, -(-8 * W * max(n, X) // X))  # ceil(8 W max(1, n / X)), exactly
    panels += panels % 2  # symmetric node layout keeps the result real
    if 8 * panels > QUAD_NODE_BUDGET:  # 4 nodes per panel at the fine density
        raise BudgetError(f"quadrature budget is {QUAD_NODE_BUDGET} nodes, here {8 * panels}")

    def integrands(betas):
        prod = np.ones(len(betas), dtype=complex)
        for k, P in P_by_k.items():
            prod = prod * weyl_integral_batch(k, P, betas) ** 2
        prod *= np.exp(-2j * np.pi * betas * n)
        return (prod,)

    def nodes(m):
        bounds = np.linspace(-width, width, m + 1)
        return _gauss_panels(bounds[:-1], bounds[1:], _GL4)

    (value,), (change,), (betas, _), _ = _two_density(nodes, integrands, panels)
    return SingularIntegral(
        n=n,
        X=X,
        W=W,
        value=value.real,
        imag_residual=abs(value.imag) / max(abs(value.real), 1e-300),
        rel_change=change,
        reference=leading_constant().value * n,
        grid_points=len(betas),
    )


@dataclass(frozen=True)
class MajorantSurvey:
    X: int
    Q: int
    sup_ratio: float
    alpha_at: float
    q: int
    a: int


def peak_majorant_survey(X: int, Q: int) -> MajorantSurvey:
    """sup of |f_2(alpha)| over its arc majorant on an annulus grid at level Q."""
    if X < 16 or X > 10**5:
        raise BudgetError("majorant survey budget is 16 <= X <= 10**5")
    if Q < 2 or Q > 2 * math.isqrt(X):
        raise PreconditionError("need 2 <= Q <= 2 sqrt(X)")
    P2 = iroot(X, 2)
    pairs, segments = _annulus(Q, X)
    if not segments:
        raise PreconditionError(f"annulus at level Q={Q} is empty at X={X}")
    alphas, _, arc_idx = _quad_nodes(segments, SURVEY_DENSITY * math.sqrt(X))
    q_at, a_at = np.array(pairs, dtype=np.float64)[arc_idx].T
    ratios = np.abs(weyl_sum_grid(2, P2, alphas)) / peak_majorant(alphas, q_at, a_at, P2)
    best = int(np.argmax(ratios))
    pair = pairs[arc_idx[best]]
    return MajorantSurvey(
        X=X,
        Q=Q,
        sup_ratio=float(ratios[best]),
        alpha_at=float(alphas[best]),
        q=pair[0],
        a=pair[1],
    )


@dataclass(frozen=True)
class ModelErrorSurvey:
    k: int
    X: int
    q_max: int
    W: int
    sup_scaled_error: float  # max over arcs and offsets of |f_k - model| / sqrt(q)
    q: int
    a: int


def major_arc_error_survey(k: int, X: int, q_max: int, W: int) -> ModelErrorSurvey:
    """Exhaustive sampled comparison of f_k against q^{-1} S_k v_k near every
    rational with denominator up to q_max, at five offsets within W/X."""
    if X > 10**6:
        raise BudgetError("survey budget is X <= 10**6")
    if q_max > 50:
        raise BudgetError("survey budget is q_max <= 50")
    P = iroot(X, k)
    width = W / X
    worst = (0.0, 1, 0)
    for q, a in _farey_pairs(q_max):
        betas = np.linspace(-width, width, 5)
        centred = a / q + betas
        keep = (centred >= 0.0) & (centred < 1.0)
        if not keep.any():
            continue
        models = _gauss_value(k, q, a) / q * weyl_integral_batch(k, P, betas[keep])
        for alpha, model in zip(centred[keep], models):
            direct = weyl_sum(k, P, float(alpha))
            scaled = abs(direct - model) / math.sqrt(q)
            if scaled > worst[0]:
                worst = (scaled, q, a)
    return ModelErrorSurvey(
        k=k, X=X, q_max=q_max, W=W, sup_scaled_error=worst[0], q=worst[1], a=worst[2]
    )


def check_pruned(X: int, Q: int, grid: int) -> None:
    """The refusals of pruned_integral_diagnostic, raised before any work (and
    before the CLI draws its sample)."""
    if X < 16 or X > 10**4:
        raise BudgetError("pruned-diagnostic budget is 16 <= X <= 10**4")
    if Q < 1 or Q > math.isqrt(X):
        raise PreconditionError("need 1 <= Q <= sqrt(X)")
    if grid < 1:
        raise PreconditionError("need grid >= 1")


def pruned_integral_diagnostic(
    X: int, Q: int, sample: ExceptionalSample, grid: int = 10
) -> PrunedDiagnostic:
    """Numeric sizes of the three pruning integrands over the annulus at level
    Q (level-Q arcs minus half-level arcs), tabulated against the bound shapes
    they are compared with.  Purely diagnostic; no inequality is asserted."""
    check_pruned(X, Q, grid)
    P2, P3, P6 = iroot(X, 2), iroot(X, 3), iroot(X, 6)
    # for Q <= sqrt(X) the annulus is never empty: it keeps (Q/2X, Q/X] of the
    # q = 1 arc, which a half-level arc covers only if X <= Q^2/2 + Q/2
    pairs, segments = _annulus(Q, X)

    def integrands(alphas, arc_idx):
        absk = np.abs(exceptional_sum_grid(sample, alphas))
        f2 = np.abs(weyl_sum_grid(2, P2, alphas))
        f3 = np.abs(weyl_sum_grid(3, P3, alphas))
        f6 = np.abs(weyl_sum_grid(6, P6, alphas))
        q_at, a_at = np.array(pairs, dtype=np.float64)[arc_idx].T
        majorant2 = peak_majorant(alphas, q_at, a_at, P2)
        f3_model = np.abs(_arc_models(pairs, arc_idx, alphas, {3: P3})[3])
        raw = f2**2 * f3**2 * f6**2 * absk
        square = majorant2**2 * f3**2 * f6**2 * absk
        return raw, square, majorant2**2 * f3_model**2 * f6**2 * absk

    values, changes, (alphas, weights, arc_idx), (raw, _, _) = _two_density(
        lambda factor: _quad_nodes(segments, factor * X), integrands, grid
    )
    Z = sample.size
    # delta in the second bound shape is reported at 0.1; the analysis only
    # requires it to be a small positive number
    delta = 0.1
    return PrunedDiagnostic(
        X=X,
        Q=Q,
        sample_size=Z,
        raw=values[0].real,
        square_majorant=values[1].real,
        cubic_approx=values[2].real,
        raw_rel_change=changes[0],
        square_majorant_rel_change=changes[1],
        cubic_approx_rel_change=changes[2],
        grid_points=len(alphas),
        bound_X_sqrtZ=X * math.sqrt(Z),
        bound_X_power_Z=X ** (1 - delta**2) * Z,
        arc_columns=_arc_columns(Q, pairs, arc_idx, weights, raw),
    )
