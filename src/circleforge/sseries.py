"""Singular-series machinery for the sum of two squares, two cubes and two
sixth powers.

The q-th term, for the exponent multiset ``powersums.FORM`` and s = len(FORM), is

    A(q; n) = sum_{a=1..q, gcd(a,q)=1} q^{-s} prod_{k in FORM} S_k(q,a) e(-n a / q)

and the truncation sums A(q; n) over q <= W.  A is multiplicative in q, so one
cached set of tables built from prime powers, ``_live_tables``, serves both a
target and a range.  Exact congruence counts M_n(q), by cyclic convolution of
residue histograms in exact integers, are an oracle via the divisor-sum identity

    sum_{d | q} A(d; n) = q^{1-s} M_n(q).
"""

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import workers
from .errors import BudgetError, PreconditionError, check_count
from .exactconv import cyclic_histogram_convolution
from .intmath import ADD_BUFSIZE, factorize
from .powersums import FORM, SUPPORTED_EXPONENTS, form_product, residue_histograms

# cost bounds: exact congruence spectra and per-q term tables are O(q log q)
# to O(q^1.6); these stops keep single calls interactive
CONGRUENCE_BUDGET = 10**4
TERM_BUDGET = 10**5
TRUNCATION_BUDGET = 5000
# the range series is filled in n-blocks of SERIES_BLOCK entries, 1 MiB of
# float64 that stays in a 2 MiB L2 cache while every table is added; a table
# shorter than _TILE is tiled up to it, since numpy's inner loop is slow on
# short rows
SERIES_BLOCK = 2**17
_TILE = 1024  # at least ADD_BUFSIZE: every tiled table takes the unbuffered add


@dataclass(frozen=True)
class SeriesTerm:
    q: int
    n: int
    value: float


@dataclass(frozen=True)
class SingularSeriesValue:
    n: int
    W: int
    value: float
    tail_estimate: float  # |value at 2W - value at W|


@dataclass(frozen=True)
class CongruenceCount:
    q: int
    n: int
    count: int


def _term_table_complex(q: int) -> np.ndarray:
    """A(q; n mod q) for all residues n, before discarding the imaginary part.

    The Gauss sums S_k(q, .) = conj(DFT of the histogram of r^k mod q) come from
    one transform over the stacked rows; ``form_product`` multiplies them in place,
    in the literal product's operand order, which keeps the literal's bits."""
    sums = dict(zip(SUPPORTED_EXPONENTS, np.conj(np.fft.fft(residue_histograms(q), axis=1))))
    weights = form_product(sums) / float(q) ** len(FORM)
    weights[np.gcd(np.arange(q), q) != 1] = 0.0
    return np.fft.fft(weights)


@lru_cache(maxsize=4096)
def _term_table(q: int) -> np.ndarray:
    table = _term_table_complex(q).real
    table.setflags(write=False)
    return table


def series_term(q: int, n: int) -> SeriesTerm:
    """A(q; n); the target n is reduced mod q internally."""
    q = check_count(q, "modulus q")
    n = check_count(n, "target n", least=None)
    if q > TERM_BUDGET:
        raise BudgetError(f"series term modulus {q} beyond budget {TERM_BUDGET}")
    return SeriesTerm(q=q, n=n, value=float(_term_table(q)[n % q]))


@lru_cache(maxsize=512)
def _congruence_spectrum(q: int) -> tuple:
    """M_n(q) for every residue n, as exact integers."""
    rows = dict(zip(SUPPORTED_EXPONENTS, residue_histograms(q)))
    return tuple(cyclic_histogram_convolution([rows[k] for k in FORM], q))


def congruence_count(q: int, n: int) -> CongruenceCount:
    """Exact number of solutions of sum_i x_i^(FORM[i]) = n (mod q), each x_i
    over a complete residue system."""
    q = check_count(q, "modulus q", budget=CONGRUENCE_BUDGET)
    n = check_count(n, "target n", least=None)
    return CongruenceCount(q=q, n=n, count=_congruence_spectrum(q)[n % q])


def local_density(p: int, n: int, h: int) -> float:
    """p^{(1-s)h} M_n(p^h), s = len(FORM); stabilises in h once lifting obstructions clear."""
    p = check_count(p, "prime p", least=2)
    h = check_count(h, "exponent h")
    if p > CONGRUENCE_BUDGET or h >= CONGRUENCE_BUDGET.bit_length() or p**h > CONGRUENCE_BUDGET:
        raise BudgetError(f"p**h = {p}**{h} beyond budget {CONGRUENCE_BUDGET}")
    if factorize(p) != [(p, 1)]:
        raise PreconditionError(f"p={p} is not prime")
    return float(congruence_count(p**h, n).count) / float(p) ** ((len(FORM) - 1) * h)


def _vanishes(q: int, p: int) -> bool:
    """Whether A(q; .) = 0 identically, decided exactly for q = p^h.

    S_k(q, a) is the image of S_k(q, 1) under zeta -> zeta^a, so the term
    vanishes exactly when some S_k(q, 1) = 0.  That sum is the histogram
    polynomial of r^k mod q evaluated at a primitive q-th root of unity; its
    degree is below q, so it is zero exactly when Phi_q(x) = sum_j x^(j q / p)
    divides it, that is when the histogram has period q / p.
    """
    rows = residue_histograms(q).reshape(-1, p, q // p)
    return bool((rows == rows[:, :1]).all(axis=(1, 2)).any())


@lru_cache(maxsize=2)  # 70 MiB of tables at the top truncation, W = 5000
def _live_tables(top: int) -> tuple[np.ndarray, ...]:
    """A(q; r) for r < q, for each q <= top whose term is not identically 0, in
    ascending q.  A prime power is live unless ``_vanishes``; any other q is live
    when p^h || q and q / p^h are, and its table is their product.
    """
    tables = {1: np.ones(1)}
    for q in range(2, top + 1):
        p, h = factorize(q)[0]  # the smallest prime comes first
        ppow = p**h
        rest = q // ppow
        if ppow == q:
            if not _vanishes(q, p):
                tables[q] = _term_table(q)
        elif ppow in tables and rest in tables:
            idx = np.arange(q)
            tables[q] = tables[ppow][idx % ppow] * tables[rest][idx % rest]
    for table in tables.values():
        table.setflags(write=False)
    return tuple(tables.values())


def check_truncation(W: int) -> int:
    """The refusals of a truncation level W, raised before any work."""
    return check_count(W, "truncation W", budget=TRUNCATION_BUDGET)


def truncated_singular_series(n: int, W: int) -> SingularSeriesValue:
    """sum_{q<=W} A(q; n), read off ``_live_tables``; the tail estimate is the
    change when the truncation is doubled.  The terms are added in ascending
    q, as ``series_blocks`` adds them, so the bits equal ``series_batch``'s."""
    n = check_count(n, "target n")
    W = check_truncation(W)
    value = value2 = 0.0
    for table in _live_tables(2 * W):
        value2 += float(table[n % len(table)])
        if len(table) <= W:
            value = value2
    return SingularSeriesValue(n=n, W=W, value=value, tail_estimate=abs(value2 - value))


def _add_periodic(acc: np.ndarray, lo: int, tables) -> None:
    """acc[i] += table[(lo + i) % len(table)] in place, for each table in turn:
    the part up to the next multiple of len(table), whole rows, the rest.
    The ufunc buffer is ADD_BUFSIZE while it runs and is restored after; the
    setting is per thread (errstate does not scope it before numpy 2.0)."""
    n = len(acc)
    old = np.setbufsize(ADD_BUFSIZE)
    try:
        for table in tables:
            q = len(table)
            start, head = lo % q, min(-lo % q, n)
            acc[:head] += table[start : start + head]
            rows = (n - head) // q
            tiles = acc[head : head + rows * q].reshape(rows, q)  # a view: adds in place
            tiles += table
            acc[head + rows * q :] += table[: n - head - rows * q]
    finally:
        np.setbufsize(old)


def series_blocks(X: int, W: int) -> list:
    """The calls that fill (S_W, S_2W) over n = 0..X, as ``series_batch``
    defines them, one per block of SERIES_BLOCK entries; each returns the
    pair, which is complete once every call has returned.

    The first call to run takes the tables from ``_live_tables``, tiles each
    one shorter than _TILE to a whole number of periods of at least _TILE
    entries, and allocates both arrays, so in ``scan`` a pool thread, not
    the counting thread, allocates them (see the README); a call that
    starts meanwhile waits on a lock.  A block adds every table, in ascending q, into its slice of
    S_2W and copies the slice to S_W at the cut q = W, so each entry gets
    the same float additions in the same order whatever the block size and
    whichever thread runs the block.
    """
    X = check_count(X, "range bound X", least=0)
    W = check_truncation(W)
    lock = threading.Lock()
    state = []

    def setup():
        with lock:
            if not state:
                live = _live_tables(2 * W)
                cut = sum(len(table) <= W for table in live)
                tiled = [np.tile(table, -(-_TILE // len(table))) if len(table) < _TILE else table
                         for table in live]
                state.append((tiled[:cut], tiled[cut:], np.empty(X + 1), np.empty(X + 1)))
        return state[0]

    def block(lo, hi):
        def call():
            low, high, series_w, series_2w = setup()
            acc = series_2w[lo:hi]
            acc[:] = 0.0
            _add_periodic(acc, lo, low)
            series_w[lo:hi] = acc
            _add_periodic(acc, lo, high)
            return series_w, series_2w
        return call

    return [block(lo, min(lo + SERIES_BLOCK, X + 1)) for lo in range(0, X + 1, SERIES_BLOCK)]


def series_batch(X: int, W: int) -> tuple[np.ndarray, np.ndarray]:
    """(S_W, S_2W) arrays over n = 0..X, S_W[n] = sum_{q<=W} A(q; n).

    The tables of ``_live_tables``, the ones ``truncated_singular_series``
    reads, are added in ascending q, one n-block of SERIES_BLOCK entries at
    a time (``series_blocks``), the blocks spread over ``workers.run``.  The
    bits do not depend on the block size or the worker count.
    """
    return workers.run(series_blocks(X, W))[0]
