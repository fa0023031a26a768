"""Predictions and empirical exceptional-set scans.

A prediction pairs the exact count R(n) with its main term
C * S(n; W) * n, where C is the closed-form leading constant and S(n; W) the
truncated singular series.  A record is flagged exceptional for a growth
function psi when |R(n) - main| > n / psi(n).  Scans compute all records up to
X, dyadic aggregates, and error quantiles; records below n = 1000 are kept in
reports but marked pre-asymptotic and excluded from trend statistics.
"""

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import sseries, workers
from .errors import PreconditionError
from .powersums import leading_constant
from .repcount import check_range, check_single_target, rep_count_range, rep_count_single
from .sseries import check_truncation, series_blocks, truncated_singular_series

PRE_ASYMPTOTIC_CUTOFF = 1000
DEFAULT_TRUNCATION = 1000


@dataclass(frozen=True)
class PsiSpec:
    """Growth function: (log t)^A for kind "log_power", t^delta for "power".

    The power exponent is capped at 0.1, keeping every admissible function
    slowly growing.
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind == "log_power":
            if not 0 < self.param < math.inf:
                raise PreconditionError("log exponent must be positive and finite")
        elif self.kind == "power":
            if not 0 < self.param <= 0.1:
                raise PreconditionError("power exponent must be in (0, 0.1]")
        else:
            raise PreconditionError(f"unknown psi kind {self.kind!r}")

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        if self.kind == "log_power":
            return np.log(np.maximum(t, 1.0)) ** self.param
        return t**self.param

    @staticmethod
    def parse(text: str) -> "PsiSpec":
        """Grammar: "log" | "log^A" | "pow:delta"."""
        text = text.strip()
        if text == "log":
            return PsiSpec("log_power", 1.0)
        kind = {"log^": "log_power", "pow:": "power"}.get(text[:4])
        try:
            param = float(text[4:])
        except ValueError:
            kind = None
        if kind is None:
            raise PreconditionError(f"cannot parse psi descriptor {text!r}")
        return PsiSpec(kind, param)

    def describe(self) -> str:
        if self.kind == "log_power":
            return "log" if self.param == 1.0 else f"log^{self.param:g}"
        return f"pow:{self.param:g}"


@dataclass(frozen=True)
class PredictionRecord:
    n: int
    R: int
    S_W: float
    tail_estimate: float
    main: float
    abs_err: float
    rel_err: float
    exceptional: bool | None = None


@dataclass(frozen=True, eq=False)
class ScanReport:
    X: int
    psi: str
    W: int
    E: int
    dyadic_counts: tuple      # ((lo, hi, count), ...) over intervals (lo, hi]
    rel_err_quantiles: dict   # percentiles 50/90/99 over all n
    rel_err_median_asymptotic: float  # median over n >= PRE_ASYMPTOTIC_CUTOFF
    exceptional_proportion: float
    # full per-n arrays, index n (entry 0 unused); _errors derives the rest
    counts: np.ndarray
    series: np.ndarray
    tails: np.ndarray
    flags: np.ndarray

    def record(self, n: int) -> PredictionRecord:
        if not isinstance(n, Integral) or not 1 <= n <= self.X:
            raise PreconditionError(f"record n must be an integer in 1..{self.X}, got {n!r}")
        errors = _errors(self.counts[n], self.series[n], n)
        return PredictionRecord(n, int(self.counts[n]), float(self.series[n]), float(self.tails[n]),
                                *map(float, errors), exceptional=bool(self.flags[n]))


def _errors(counts, series, n):
    """(main, abs_err, rel_err): main = C * S(n; W) * n, abs_err = |R - main|
    and rel_err = abs_err / main (inf where main <= 0), elementwise over
    arrays or at one n."""
    main = leading_constant().value * series * n
    abs_err = np.abs(counts - main)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel_err = np.where(main > 0, abs_err / np.where(main > 0, main, 1.0), np.inf)
    return main, abs_err, rel_err


def predict(n: int, W: int = DEFAULT_TRUNCATION) -> PredictionRecord:
    """Exact count against main term for a single target (no flag attached)."""
    if n < 6:
        raise PreconditionError("targets below 6 have no representations")
    check_single_target(n)
    check_truncation(W)
    count = rep_count_single(n)
    series = truncated_singular_series(n, W)
    return PredictionRecord(n, count, series.value, series.tail_estimate,
                            *map(float, _errors(count, series.value, n)))


def _dyadic_intervals(X: int):
    yield (0, 1)
    j = 0
    while 2**j < X:
        yield (2**j, min(2 ** (j + 1), X))
        j += 1


def percentiles(a: np.ndarray, q) -> np.ndarray:
    """np.percentile(a, q) of a non-empty 1-D float array a at a sequence of
    percentiles q, by numpy's default (linear) method, bit for bit, from one
    np.partition: at numpy's indices, floor((n - 1) q / 100) and the next,
    with numpy's interpolation lo + (hi - lo) g, or hi - (hi - lo)(1 - g)
    where g >= 0.5.  np.percentile itself imports numpy.ma on first use: that
    first call took 9 ms (median of five fresh processes, 9-14 ms, on a 2-core
    Xeon VM with numpy 2.4.6)."""
    n = len(a)
    virtual = (n - 1) * (np.asarray(q, dtype=np.float64) / 100)
    lo = np.floor(virtual).astype(np.intp)
    hi = lo + 1
    top = virtual >= n - 1
    lo[top] = hi[top] = -1  # numpy takes the maximum there
    # numpy's kth set, 0 and -1 among them, so the same entries land in place
    part = np.partition(a, sorted({0, -1, *lo.tolist(), *hi.tolist()}))
    if np.isnan(part[-1]):  # NaNs sort last; numpy returns that NaN throughout
        return np.full(len(virtual), part[-1])
    g = virtual - lo
    d = part[hi] - part[lo]
    out = part[lo] + d * g
    np.subtract(part[hi], d * (1 - g), out=out, where=g >= 0.5)
    return out


def median(a: np.ndarray) -> np.floating:
    """np.median(a) of a non-empty 1-D float array, bit for bit: the mean of
    its middle one or two entries after one np.partition, or the NaN that
    partition sorts last.  np.median itself imports numpy.ma on first use."""
    n = len(a)
    middle = [n // 2 - 1, n // 2] if n % 2 == 0 else [n // 2]
    part = np.partition(a, [*middle, -1])
    return part[-1] if np.isnan(part[-1]) else np.mean(part[middle[0] : middle[-1] + 1])


def scan(X: int, psi: PsiSpec, W: int = DEFAULT_TRUNCATION, cache_dir=None) -> ScanReport:
    """Full exceptional-set scan over 1 <= n <= X."""
    if X < 8:
        raise PreconditionError("scan range must reach at least 8")
    check_range(X)
    check_truncation(W)
    # neither uses the other; the count goes first, so it convolves on this
    # thread and the transform's temporaries stay in this thread's heap, while
    # the pool starts the series blocks; this thread takes back the rest
    counts, (series_w, series_2w), *_ = workers.run((
        lambda: rep_count_range(X, cache_dir=cache_dir).values,
        *series_blocks(X, W),
    ))
    rel_errs = np.empty(X + 1)
    flags = np.empty(X + 1, dtype=bool)
    tails = series_2w  # |S_2W - S_W| overwrites S_2W, block by block

    def fill(lo, hi):
        n = np.arange(lo, hi, dtype=np.float64)
        _, abs_err, rel_errs[lo:hi] = _errors(counts[lo:hi], series_w[lo:hi], n)
        psi_vals = psi(n)
        with np.errstate(divide="ignore"):
            thresholds = np.where(psi_vals > 0, n / np.where(psi_vals > 0, psi_vals, 1.0), np.inf)
        np.greater(abs_err, thresholds, out=flags[lo:hi])
        np.subtract(tails[lo:hi], series_w[lo:hi], out=tails[lo:hi])
        np.abs(tails[lo:hi], out=tails[lo:hi])

    # each entry gets the same elementwise operations whatever the block
    workers.blocks(fill, X + 1, sseries.SERIES_BLOCK)
    flags[0] = False

    E = int(flags[1:].sum())
    dyadic = []
    for lo, hi in _dyadic_intervals(X):
        dyadic.append((lo, hi, int(flags[lo + 1 : hi + 1].sum())))
    asym = rel_errs[PRE_ASYMPTOTIC_CUTOFF:] if X >= PRE_ASYMPTOTIC_CUTOFF else rel_errs[1:]
    qs, mid = workers.run((lambda: percentiles(rel_errs[1:], [50, 90, 99]),
                           lambda: median(asym)))
    return ScanReport(
        X=X,
        psi=psi.describe(),
        W=W,
        E=E,
        dyadic_counts=tuple(dyadic),
        rel_err_quantiles={"50": float(qs[0]), "90": float(qs[1]), "99": float(qs[2])},
        rel_err_median_asymptotic=float(mid),
        exceptional_proportion=E / X,
        counts=counts,
        series=series_w,
        tails=tails,
        flags=flags,
    )


def record_columns(report: ScanReport):
    """The records of n = 1..X as unformatted columns in PredictionRecord's
    field order; a generator, so the errors are derived only when read."""
    n = np.arange(report.X + 1)
    main, abs_err, rel_err = _errors(report.counts, report.series, n)
    for column in (n, report.counts, report.series, report.tails, main, abs_err, rel_err,
                   report.flags):
        yield column[1:]
