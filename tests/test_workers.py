"""The worker pool: results never depend on the worker count, one CPU starts
no thread, and an error raised on a worker reaches the caller and the CLI.
This holds for the pair lattices, the scan with its series and report
blocks, the single-target count and the arc quadrature's blocks."""

import contextlib
import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import circleforge
from circleforge import arcints, arcs, intmath, moments, repcount, sseries, workers
from circleforge.cli import main
from circleforge.errors import BudgetError
from circleforge.intmath import iroot, pair_reduce, pair_values, powers
from circleforge.scan import PRE_ASYMPTOTIC_CUTOFF, PsiSpec, predict, scan

from oracles import (concat_runs, cube_multiplicity_brute, eighth_moment_unique, pair_values_grid,
                     rep_single_brute, scan_report_whole, series_batch_tiled,
                     shifted_correlation_brute)

scanmod = sys.modules["circleforge.scan"]  # circleforge.scan is the function


@contextlib.contextmanager
def worker_count(count):
    """Run the block with `count` workers and a fresh pool, shut down after."""
    saved = workers.WORKERS, workers._executor
    workers.WORKERS, workers._executor = count, None
    try:
        yield
    finally:
        if workers._executor is not None:
            workers._executor.shutdown()
        workers.WORKERS, workers._executor = saved


def _lattices():
    cubes = powers(3, 1500)  # 1.1e6 differences, 3 bands of 2^18 keys at 3 workers
    sixths, _ = pair_values(powers(6, 60))
    rng = np.random.default_rng(5)
    mixed = np.unique(rng.integers(-2**40, 2**40, 1400))
    return [
        (cubes, 1, None),
        (cubes, -1, None),
        (cubes, 1, 2 * 10**9),
        (cubes, -1, 10**9),
        (sixths, 1, None),
        (sixths, -1, 10**12),
        (mixed, 1, 2**39),
        (mixed, -1, None),
    ]


def _runs_and_values(case):
    """The runs of every band of pair_reduce laid end to end, the band count,
    and pair_values, all as plain lists."""
    bands = pair_reduce(list, *case)
    runs = concat_runs(run for band in bands for run in band)
    return [r.tolist() for r in runs], len(bands), [v.tolist() for v in pair_values(*case)]


def test_pair_reduce_independent_of_worker_count():
    cases = _lattices()
    with worker_count(1):
        expect = [_runs_and_values(case) for case in cases]
    for count in (2, 3):
        with worker_count(count):
            got = [_runs_and_values(case) for case in cases]
        # the full cube lattices are cut into one band per worker
        assert [bands for _, bands, _ in got[:2]] == [count, count]
        for (runs, _, values), (expect_runs, _, expect_values) in zip(got, expect):
            assert runs == expect_runs == values == expect_values


def _window_sizes(monkeypatch):
    """The key count of each value window the lattices write, in order of
    writing, recorded by a spy on intmath._cells."""
    sizes = []
    cells = intmath._cells

    def spy(keys, head, source, lo, hi):
        sizes.append(int((hi - lo).sum()))
        return cells(keys, head, source, lo, hi)

    monkeypatch.setattr(intmath, "_cells", spy)
    return sizes


@pytest.mark.parametrize("count", [1, 2])
def test_pair_reduce_temporaries_are_bounded(monkeypatch, count):
    # each worker writes its windows one at a time into one buffer of the
    # largest window's keys, sorts it in place and reduces it a chunk at a
    # time: besides that buffer, a call holds per-row edges and the fill and
    # reduction temporaries of one chunk per worker, at most eight int64
    # arrays of PAIR_CHUNK entries, never the whole key array
    sizes = _window_sizes(monkeypatch)
    cubes = powers(3, 1500)
    sixths, _ = pair_values(powers(6, 60))
    chunk_bytes = 8 * 8 * intmath.PAIR_CHUNK

    def squares(runs):
        return sum(int(c @ c) for _, c in runs)

    with worker_count(count):
        for case in ((cubes, 1), (cubes, -1), (sixths, 1)):
            n = len(case[0])
            keys = n * (n + 1) // 2 if case[1] == 1 else n * (n - 1) // 2
            expect = pair_reduce(squares, *case)
            sizes.clear()
            tracemalloc.start()
            try:
                assert pair_reduce(squares, *case) == expect
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(sizes) >= 2 and sum(sizes) == keys
            assert peak <= count * (8 * max(sizes) + chunk_bytes)


@pytest.mark.parametrize("count", [2, 3])
def test_small_bands_against_grid(monkeypatch, count):
    # 16-key chunks cut lattices of a few dozen values into bands, with runs,
    # limits and negative values on both sides of every band edge
    monkeypatch.setattr(intmath, "PAIR_CHUNK", 16)
    rng = np.random.default_rng(count)
    with worker_count(count):
        for _ in range(40):
            a = np.unique(rng.integers(-60, 200, rng.integers(1, 40)))
            limit = int(rng.integers(-150, 450)) if rng.random() < 0.5 else None
            for sign in (1, -1):
                runs, _, values = _runs_and_values((a, sign, limit))
                expect = pair_values_grid(a, sign, limit)
                assert runs == values == [e.tolist() for e in expect]


@pytest.mark.parametrize("chunk", [1, 7])
def test_eighth_moment_against_unique(monkeypatch, chunk):
    # the sorted quadruples partitioned into one band per worker, and each
    # sorted band reduced in chunks of one or seven keys
    expect = {P6: eighth_moment_unique(P6) for P6 in (7, 12, 30)}
    monkeypatch.setattr(intmath, "PAIR_CHUNK", chunk)
    for count in (1, 2, 3):
        with worker_count(count):
            assert {P6: moments.sixth_power_eighth_moment(P6).count for P6 in expect} == expect


@pytest.mark.parametrize("count", [1, 2, 3])
def test_quad_reduce_temporaries_are_bounded(monkeypatch, count):
    # 2^15-key windows cut the 123,410 keys of P6 = 40 into one result per
    # window, over the pool: each worker writes, sorts and reduces one
    # window at a time in its own buffer, so besides the lattice (the
    # quadruple source of 2 C(42, 3) keys, and per row (i, j) its end at
    # every window bound and a few more int64) a call holds one window and
    # the temporaries of one chunk per worker, never the whole key array
    monkeypatch.setattr(intmath, "PAIR_CHUNK", 1 << 10)
    monkeypatch.setattr(intmath, "WINDOW_KEYS", 1 << 15)
    sizes = _window_sizes(monkeypatch)
    sixths = powers(6, 40)
    keys = math.comb(len(sixths) + 3, 4)
    windows = count * -(-keys // (count * intmath.WINDOW_KEYS))
    lattice_bytes = 16 * math.comb(42, 3) + 8 * (windows + 12) * math.comb(41, 2)
    chunk_bytes = 8 * 8 * intmath.PAIR_CHUNK

    def squares(runs):
        return sum(int(c @ c) for _, c in runs)

    with worker_count(count):
        expect = intmath.quad_reduce(squares, sixths)
        sizes.clear()
        tracemalloc.start()
        try:
            assert intmath.quad_reduce(squares, sixths) == expect
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(expect) == len(sizes) == windows and sum(sizes) == keys
    assert sum(expect) == moments.sixth_power_eighth_moment(40).count
    assert peak <= count * (8 * max(sizes) + chunk_bytes) + lattice_bytes, peak


@pytest.mark.parametrize("count", [1, 2, 3])
def test_benchmark_moments_peak_at_their_windows(monkeypatch, count):
    # the scan task's eighth moment and cube differences, 4,421,275 and
    # 4,498,500 keys, peaked at 54.6 and 51.5 MiB under tracemalloc (two
    # workers) with each lattice in one key array.  Now each peaks at the
    # in-flight window bytes, one buffer of the largest window per worker,
    # plus one chunk's fill and reduction per worker, and the lattice: the
    # eighth moment's quadruple source of 2 C(102, 3) keys, and per row its
    # end at every window bound and a few more int64
    sizes = _window_sizes(monkeypatch)
    chunk_bytes = 8 * 8 * intmath.PAIR_CHUNK
    cases = ((lambda: moments.sixth_power_eighth_moment(100), 4_421_275, math.comb(101, 2),
              16 * math.comb(102, 3)),
             (lambda: moments.cube_multiplicity(3000), 4_498_500, 3000, 0))
    with worker_count(count):
        for run, keys, rows, source_bytes in cases:
            run()
            sizes.clear()
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sum(sizes) == keys and max(sizes) <= intmath.WINDOW_KEYS
            lattice_bytes = source_bytes + 8 * (len(sizes) + 12) * rows
            assert peak <= count * (8 * max(sizes) + chunk_bytes) + lattice_bytes, peak


@pytest.mark.parametrize("budget", [1, 7, 2**10, intmath.WINDOW_KEYS])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_results_independent_of_window_budget(monkeypatch, budget, count):
    # 16-key chunks put lattices of a few dozen values into windows, down to
    # about one distinct value each at a one-key budget, with limits and
    # negative values on both sides of every window edge; every
    # count matches its oracle, so all budgets and worker counts agree
    monkeypatch.setattr(intmath, "PAIR_CHUNK", 16)
    monkeypatch.setattr(intmath, "WINDOW_KEYS", budget)
    sizes = _window_sizes(monkeypatch)
    rng = np.random.default_rng(35)
    shifts = sorted(rng.choice(np.arange(-3000, 3000), 40, replace=False).tolist())
    with worker_count(count):
        for _ in range(8):
            a = np.unique(rng.integers(-60, 200, rng.integers(1, 40)))
            limit = int(rng.integers(-150, 450)) if rng.random() < 0.5 else None
            for sign in (1, -1):
                runs, _, values = _runs_and_values((a, sign, limit))
                assert runs == values == [e.tolist() for e in pair_values_grid(a, sign, limit)]
        sizes.clear()
        multiplicity = moments.cube_multiplicity(60)
        assert len(sizes) >= (200 if budget < 10 else count)
        got = (multiplicity.members.tolist(), multiplicity.max_multiplicity,
               moments.shifted_cube_correlation(12, shifts).count,
               moments.sixth_power_eighth_moment(12).count)
    assert got == (*cube_multiplicity_brute(60), shifted_correlation_brute(12, shifts),
                   eighth_moment_unique(12))


def _bench_sample(seed):
    members = np.random.default_rng(seed).choice(np.arange(1, 10**4 + 1), 100, replace=False)
    return arcs.ExceptionalSample(members=tuple(int(v) for v in members))


def _quadrature(sample):
    """The three arc integrals at the benchmark's quadrature sizes."""
    return (
        arcints.singular_integral(10**4, 10**4, 50),
        arcints.major_arc_integral(5000, 10**4, 6),
        arcints.pruned_integral_diagnostic(10**4, 16, sample),
    )


def _bytes(result):
    """Every field of a result, dict and array entries included, as raw bytes."""
    if dataclasses.is_dataclass(result):
        return [_bytes(getattr(result, f.name)) for f in dataclasses.fields(result)]
    if isinstance(result, (dict, tuple)):
        items = result.items() if isinstance(result, dict) else enumerate(result)
        return [(key, _bytes(value)) for key, value in items]
    return np.asarray(result).tobytes()


def _arc_kernels():
    """The block kernels on inputs of many blocks, each with a partial last block."""
    rng = np.random.default_rng(11)
    alphas = rng.random(20_001)
    # offsets of up to 200 cycles, over a quarter of them on the series side of z = 8
    betas = rng.random(150_001) ** 4 * 2e-4
    return (
        arcs.exceptional_sum_grid(_bench_sample(1), alphas),  # 91 blocks of 221 rows
        arcints.weyl_sum_grid(2, 100, rng.random(100_001)),  # 5 blocks of 21,845 columns
        arcints.weyl_sum_grid(6, 4, alphas),  # 3 blocks of 9,362 columns
        arcs.weyl_integral_batch(2, 1000, betas),  # 3 blocks of 65,536 offsets
    )


def _scan_task_moments():
    shifts = np.random.default_rng(7).choice(10**7, 500, replace=False).tolist()
    multiplicity = moments.cube_multiplicity(3000)
    correlation = moments.count_cube_sixth_correlation(10**8)
    return (
        moments.sixth_power_eighth_moment(100).count,
        multiplicity.members.tolist(),
        multiplicity.max_multiplicity,
        correlation.count,
        correlation.parts,
        moments.shifted_cube_correlation(2000, shifts).count,
    )


def _scan_arrays():
    report = scan(2 * 10**4, PsiSpec.parse("log"), 100)
    arrays = (report.counts, report.series, report.tails, report.flags)
    summary = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)
               if not isinstance(getattr(report, f.name), np.ndarray)}
    return summary, [a.tobytes() for a in arrays]


def _single_counts():
    """R(n) at n = 6..200 and at two targets of several value windows and
    dozens of gather blocks."""
    return [repcount.rep_count_single(n) for n in (*range(6, 201), 2_000_003, 3_141_592)]


def test_results_independent_of_worker_count():
    sample = _bench_sample(2)
    results = {}
    for count in (1, 2, 3):
        with worker_count(count):
            results[count] = (_scan_task_moments(), _scan_arrays(), _single_counts(),
                              _bytes((_quadrature(sample), _arc_kernels())))
    assert results[1] == results[2] == results[3]
    assert results[1][2][:195] == [rep_single_brute(n) for n in range(6, 201)]


def test_totals_independent_of_blas_threads():
    # OpenBLAS splits a product across its threads, which moves its last bits;
    # the library's float sums are numpy reductions, which do not: the
    # integrals' totals, a Gauss sum, an exact Weyl sum, and K over the pruned
    # integral's nodes (the benchmark's sample) at the benchmark's size
    script = """
from fractions import Fraction
import numpy as np
from circleforge import arcints, arcs
from circleforge.powersums import gauss_sum
r = arcints.major_arc_integral(5000, 10**4, 6)
print(repr((r.value, r.approx, r.value_rel_change, r.approx_rel_change)))
print(repr(gauss_sum(2, 999983, 5).value))
print(repr(arcs.weyl_sum(3, 10**5, Fraction(5, 524287))))
members = np.random.default_rng(2).choice(np.arange(1, 10**4 + 1), 100, replace=False)
sample = arcs.ExceptionalSample(members=tuple(int(v) for v in members))
nodes = arcints._quad_nodes(arcints._annulus(16, 10**4)[1], 20 * 10**4)[0]
print(arcs.exceptional_sum_grid(sample, nodes).tobytes().hex())
"""
    src = os.path.dirname(os.path.dirname(circleforge.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        outputs.append(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                      capture_output=True, text=True).stdout)
    assert outputs[0] == outputs[1]


def test_pool_imports_neither_logging_nor_futures():
    # the pool is threads and one queue.SimpleQueue: concurrent.futures
    # imports logging, which took 4.8-7.5 ms inside the first pooled call
    script = """
import sys
from circleforge import workers
workers.WORKERS = 3
assert workers.run([lambda: 1, lambda: 2, lambda: 3]) == [1, 2, 3]
assert workers._executor is not None
print(sorted(name for name in ("logging", "concurrent.futures") if name in sys.modules))
"""
    src = os.path.dirname(os.path.dirname(circleforge.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=HOLD_S).stdout
    assert out == "[]\n"


def test_idle_pool_thread_holds_no_call():
    # a pool thread lets go of each call once it has run: holding the last
    # one kept its closure and result alive until the next pooled call (a
    # single target's whole spectrum g, 12 MiB on the predict task's peak)
    class Token:
        pass

    token = Token()
    ref = weakref.ref(token)
    with worker_count(2):
        job = workers._pool().submit(lambda token=token: token)
        assert job.result(timeout=HOLD_S) is token
        del token, job
        deadline = time.perf_counter() + HOLD_S
        while ref() is not None and time.perf_counter() < deadline:
            time.sleep(0.01)
        assert ref() is None


def test_one_worker_starts_no_thread():
    with worker_count(1):
        before = threading.active_count()
        moments.sixth_power_eighth_moment(60)
        moments.cube_multiplicity(1500)
        scan(2 * 10**4, PsiSpec.parse("log"), 100)
        predict(10**6)
        _quadrature(_bench_sample(3))
        assert threading.active_count() == before
        assert workers._executor is None


def test_more_workers_than_cores_under_fast_switching(monkeypatch):
    # disjoint slices of one key array sorted and reduced by six threads,
    # disjoint shares of the quadruple key fill written by six threads,
    # disjoint row blocks of each arc kernel's output, and disjoint value
    # windows and gather sums of a single target written by six threads,
    # with a switch interval that interleaves them
    monkeypatch.setattr(intmath, "PAIR_CHUNK", 1 << 12)
    case = (powers(3, 1200), -1)
    with worker_count(1):
        runs, _, values = _runs_and_values(case)
        kernels = _bytes(_arc_kernels())
        single = repcount.rep_count_single(3_141_592)
        eighth = moments.sixth_power_eighth_moment(40).count
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with worker_count(6):
            start = time.perf_counter()
            got_runs, bands, got_values = _runs_and_values(case)
            got_kernels = _bytes(_arc_kernels())
            got_single = repcount.rep_count_single(3_141_592)
            got_eighth = moments.sixth_power_eighth_moment(40).count
            assert time.perf_counter() - start < 30
    finally:
        sys.setswitchinterval(interval)
    assert bands == 6
    assert got_runs == runs == got_values == values
    assert got_kernels == kernels
    assert got_single == single
    assert got_eighth == eighth


HOLD_S = 30  # the longest a held pool thread waits before it lets go


@contextlib.contextmanager
def one_thread_held():
    """Hold one thread of the pool on an event until the block ends."""
    started, release = threading.Event(), threading.Event()

    def hold():
        started.set()
        release.wait(HOLD_S)

    held = workers._pool().submit(hold)
    try:
        assert started.wait(HOLD_S)
        yield held
    finally:
        release.set()
        held.result()


def test_caller_runs_calls_no_worker_started():
    # with the pool's only thread held, the caller runs the queued calls
    # itself; the range count's pair_reduce cuts its square pairs into two
    # bands, and its cube/sixth spectrum into two windows
    X = 12 * 10**5
    P2 = iroot(X, 2)
    assert P2 * (P2 + 1) // 2 >= intmath.PAIR_CHUNK * 2
    with worker_count(1):
        expect = repcount.rep_count_range(X).values
    with worker_count(2), one_thread_held():
        start = time.perf_counter()
        main = threading.main_thread()
        assert workers.run([threading.current_thread] * 3) == [main] * 3
        got = repcount.rep_count_range(X).values
        assert time.perf_counter() - start < HOLD_S / 3
    assert np.array_equal(got, expect)


class _Token:
    pass


def _holding(fn=lambda: None):
    """A call of fn whose closure alone holds a fresh object, and a weak
    reference to that object."""
    token = _Token()

    def call():
        return fn() if token else None

    return call, weakref.ref(token)


def test_taken_back_call_lets_go_of_its_closure():
    # the caller takes back a call queued behind the held pool thread; the
    # call stays in the queue until that thread pops it, and held its closure
    # (in `scan`, the range count's spectra) until then
    with worker_count(2), one_thread_held() as held:
        call, ref = _holding()
        assert workers.run([lambda: 1, call]) == [1, None]
        del call
        assert ref() is None
        assert not held.done.is_set()


def test_call_run_on_the_pool_lets_go_of_its_closure():
    # a call run on the pool drops its closure before its result is read,
    # so a finished call whose result waits holds nothing else
    where = []

    def on_pool():
        where.append(threading.current_thread() is threading.main_thread())

    with worker_count(2):
        call, ref = _holding(on_pool)
        job = workers._pool().submit(call)
        assert job.result(timeout=HOLD_S) is None
        del call
        assert where == [False]
        assert ref() is None


def test_call_taken_back_on_an_error_lets_go_of_its_closure():
    # the caller's own call fails, and `run` takes back the queued call that
    # the held pool thread never started
    def fail():
        raise BudgetError("refused here")

    with worker_count(2), one_thread_held() as held:
        call, ref = _holding()
        with pytest.raises(BudgetError, match="refused here"):
            workers.run([fail, call])
        del call
        assert ref() is None
        assert not held.done.is_set()


def test_scan_peak_memory_holds_no_taken_back_call():
    # scan(10**6) on 2 workers: the count takes back its queued transforms,
    # products and inverses from behind the pool thread's series blocks.
    # Held in the queue, their closures kept the transform's spectra (32X
    # bytes) alive through the certificate and after the count, and the
    # tracemalloc peak read 84.0-84.7 MB; with them let go, and the square
    # pairs in int16, it read 54.6-61.9 MB, by which thread reached the
    # transforms' plateau first
    X, psi = 10**6, PsiSpec.parse("log")
    with worker_count(2):
        scan(X, psi)  # warm-up, so lazy imports and term tables do not count
        tracemalloc.start()
        try:
            scan(X, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 72 * 10**6, peak


def test_call_on_a_busy_pool_runs_its_own_blocks():
    # a single-target count on a pool thread, while the pool's other thread
    # is held: its value windows and gather blocks, queued behind the held
    # thread, are run by the thread that queued them
    n = 2_000_003
    with worker_count(1):
        expect = repcount.rep_count_single(n)
    with worker_count(3), one_thread_held():
        start = time.perf_counter()
        on_pool = workers._pool().submit(
            lambda: (threading.current_thread(), repcount.rep_count_single(n)))
        thread, got = on_pool.result(timeout=HOLD_S)
        assert time.perf_counter() - start < HOLD_S / 3
    assert thread is not threading.main_thread()
    assert got == expect


@pytest.mark.parametrize("count", [2, 3])
def test_small_gather_blocks_against_range(monkeypatch, count):
    # blocks of a few rows, and of one row wider than the block, in windows
    # of 997 entries, on each side of every cut between workers
    monkeypatch.setattr(repcount, "GATHER_BLOCK", 50)
    monkeypatch.setattr(repcount, "_window_length", lambda n: 997)
    values = repcount.rep_count_range(4000).values
    with worker_count(count):
        for n in range(6, 4001, 37):
            assert repcount.rep_count_single(n) == values[n]


@pytest.mark.parametrize("block", [1, 7, 2**16, sseries.SERIES_BLOCK])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_series_blocks_match_whole_range_tiling(monkeypatch, block, count):
    # X + 1 entries below, at and across a block edge, and over several
    # blocks, with blocks of 64 Ki entries as well as the default size; W = 403 = 13 * 31 is live, so the S_W cut falls on a table;
    # at W = 1000 tables on both sides of _TILE are added (not at one entry
    # a block, where 700 blocks of 435 tables would take seconds)
    monkeypatch.setattr(sseries, "SERIES_BLOCK", block)
    with worker_count(count):
        for X in {max(block - 2, 0), block - 1, block, 3 * block + 5, 700}:
            for W in (1, 403, 1000) if block > 1 else (1, 403):
                got = sseries.series_batch(X, W)
                expect = series_batch_tiled(X, W)
                assert [a.tobytes() for a in got] == [a.tobytes() for a in expect], (X, W)


def test_series_restores_the_ufunc_buffer():
    # the series adds narrow numpy's ufunc buffer and put it back, on the
    # calling thread, on a pool thread that calls series_batch, and on every
    # pool thread that ran a block
    def sizes():
        before = np.getbufsize()
        sseries.series_batch(5 * sseries.SERIES_BLOCK, 1000)
        return before, np.getbufsize()

    both = threading.Barrier(2)

    def pool_size():
        both.wait(timeout=HOLD_S)  # each of the two pool threads takes one
        return np.getbufsize()

    default = np.getbufsize()
    with worker_count(3):
        here = sizes()
        there = workers._pool().submit(sizes).result()
        after = [f.result() for f in [workers._pool().submit(pool_size) for _ in range(2)]]
    assert here == there == (default, default)
    assert after == [default, default]


def test_quad_fill_restores_the_ufunc_buffer(monkeypatch):
    # the quadruple key fill runs its value windows on the pool threads, and
    # leaves no pool thread, nor the caller, with a changed ufunc buffer
    monkeypatch.setattr(intmath, "PAIR_CHUNK", 16)
    both = threading.Barrier(2)

    def pool_size():
        both.wait(timeout=HOLD_S)  # each of the two pool threads takes one
        return np.getbufsize()

    default = np.getbufsize()
    with worker_count(3):
        assert moments.sixth_power_eighth_moment(12).count == eighth_moment_unique(12)
        here = np.getbufsize()
        after = [f.result() for f in [workers._pool().submit(pool_size) for _ in range(2)]]
    assert [here, *after] == [default] * 3


@pytest.mark.parametrize("block", [7, 2**16, sseries.SERIES_BLOCK])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_scan_report_matches_whole_array_oracle(monkeypatch, block, count):
    # X + 1 entries below, at and across a block edge (of 64 Ki entries as
    # well as of the default size), and X on both sides of the
    # pre-asymptotic cutoff, which decides the median's range
    monkeypatch.setattr(sseries, "SERIES_BLOCK", block)
    psi, W = PsiSpec.parse("log"), 403

    def bits(value):
        return (value.dtype.str, value.tobytes()) if isinstance(value, np.ndarray) else value

    with worker_count(count):
        for X in (2 * block - 2, 2 * block - 1, 2 * block,
                  PRE_ASYMPTOTIC_CUTOFF - 1, PRE_ASYMPTOTIC_CUTOFF):
            report = scan(X, psi, W)
            expect = scan_report_whole(X, psi, repcount.rep_count_range(X).values,
                                       *series_batch_tiled(X, W))
            got = {name: bits(getattr(report, name)) for name in expect}
            assert got == {name: bits(value) for name, value in expect.items()}, X


def test_series_builds_its_tables_once(monkeypatch):
    # three threads start blocks at once; whichever comes second waits for
    # the first to build the tables, and none builds them again
    monkeypatch.setattr(sseries, "SERIES_BLOCK", 500)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with worker_count(3):
            sseries._live_tables.cache_clear()
            sseries.series_batch(20000, 300)
            info = sseries._live_tables.cache_info()
    finally:
        sys.setswitchinterval(interval)
    assert (info.hits, info.misses) == (0, 1)


def test_worker_error_reaches_caller():
    def fail():
        raise BudgetError("refused on a worker")

    raised = []

    def fill(lo, hi):
        if threading.current_thread() is not threading.main_thread():
            raised.append(lo)
            fail()
        time.sleep(0.01)

    with worker_count(2):
        with pytest.raises(BudgetError, match="refused on a worker"):
            workers.run([lambda: 1, fail])
        with pytest.raises(BudgetError, match="refused on a worker"):
            workers.run([fail, lambda: time.sleep(0.1)])
        assert workers.run([lambda: 1, lambda: 2, lambda: 3]) == [1, 2, 3]
        # the second run of blocks is the pool's, and stops at its first error
        with pytest.raises(BudgetError, match="refused on a worker"):
            workers.blocks(fill, 100, 10)
    assert raised == [50]


def test_memory_error_on_a_worker_reaches_caller():
    # the caller's own call waits until the pool has started the failing one
    started, where = threading.Event(), []

    def fail():
        where.append(threading.current_thread() is threading.main_thread())
        started.set()
        raise MemoryError("no room on a worker")

    with worker_count(2):
        with pytest.raises(MemoryError, match="no room on a worker"):
            workers.run([lambda: started.wait(HOLD_S), fail])
    assert where == [False]


def test_refused_thread_start_runs_calls_here(monkeypatch):
    # CPython's Thread.start raises RuntimeError("can't start new thread")
    # when the system refuses a thread, as under an address-space limit; the
    # pool then has no thread, and every call runs on the calling thread
    def refuse(self):
        raise RuntimeError("can't start new thread")

    expect = _scan_arrays()
    monkeypatch.setattr(threading.Thread, "start", refuse)
    with worker_count(2):
        before = threading.active_count()
        assert workers.run([lambda: 1, lambda: 2, lambda: 3]) == [1, 2, 3]
        assert _scan_arrays() == expect
        assert workers._executor._threads == []
        assert threading.active_count() == before


@pytest.mark.parametrize("count", [1, 2, 3])
def test_blocks_cut_independent_of_worker_count(count):
    # blocks of `step` rows, the last holding what is left
    cases = {(0, 4): [], (1, 4): [(0, 1)], (5, 4): [(0, 4), (4, 5)], (6, 4): [(0, 4), (4, 6)],
             (8, 4): [(0, 4), (4, 8)], (9, 4): [(0, 4), (4, 8), (8, 9)],
             (1000, 6): [(lo, lo + 6) for lo in range(0, 996, 6)] + [(996, 1000)]}
    with worker_count(count):
        for (n, step), expect in cases.items():
            seen = []
            workers.blocks(lambda lo, hi: seen.append((lo, hi)), n, step)
            assert sorted(seen) == expect


@pytest.mark.parametrize("count", [1, 2, 3])
def test_exceptional_sum_grid_peak_memory(count):
    # K at the benchmark's size: 100 members over the pruned integral's nodes
    # at both densities.  With its phase matrix in blocks of PHASE_BLOCK
    # phases, tracemalloc saw peaks of 2,162,084, 3,868,908 and 5,442,804
    # bytes at 1, 2 and 3 workers; the phase tables hold the output and one
    # scratch of at most PHASE_BLOCK complex entries per worker
    segments = arcints._annulus(16, 10**4)[1]
    nodes = np.concatenate([arcints._quad_nodes(segments, f * 10**4)[0] for f in (10, 20)])
    sample = _bench_sample(2)
    with worker_count(count):
        arcs.exceptional_sum_grid(sample, nodes)  # the pool is started
        tracemalloc.start()
        try:
            arcs.exceptional_sum_grid(sample, nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= {1: 2_162_084, 2: 3_868_908, 3: 5_442_804}[count]
    assert peak <= 16 * len(nodes) + count * (16 * arcs.PHASE_BLOCK + 2**15)


@pytest.mark.parametrize("count", [1, 2, 3])
def test_blocks_make_one_scratch_per_run(count):
    # each run of blocks calls scratch() once, on the thread that fills them,
    # and passes the same object to each of its blocks
    made, filled = {}, []

    def scratch():
        token = object()
        made[token] = threading.get_ident()
        return token

    def fill(lo, hi, token):
        filled.append((lo, hi, token, threading.get_ident()))

    with worker_count(count):
        workers.blocks(fill, 1000, 6, scratch)
    assert len(made) == count
    assert sorted((lo, hi) for lo, hi, _, _ in filled) == [
        (lo, min(lo + 6, 1000)) for lo in range(0, 1000, 6)]
    for lo, hi, token, thread in filled:
        assert made[token] == thread
    runs = [sorted(lo for lo, _, t, _ in filled if t is token) for token in made]
    assert all(run == list(range(run[0], run[-1] + 1, 6)) for run in runs)


@pytest.mark.parametrize("count", [1, 2])
def test_empty_grids_keep_their_shape(count):
    empty = np.array([])
    with worker_count(count):
        assert arcs.exceptional_sum_grid(_bench_sample(4), empty).shape == (0,)
        assert arcints.weyl_sum_grid(3, 20, empty).shape == (0,)
        assert arcs.weyl_integral_batch(2, 100, empty).shape == (0,)


def test_array_results_compare_without_raising():
    # results holding numpy arrays compare by identity: numpy gives an array
    # comparison no single truth value
    sample = arcs.ExceptionalSample(members=(700, 951))
    for make in (
        lambda: repcount.pair_spectrum(3, 20),
        lambda: repcount.rep_count_range(1000),
        lambda: moments.cube_multiplicity(200),
        lambda: scan(1000, PsiSpec.parse("log"), 10),
        lambda: arcints.major_arc_integral(500, 1000, 2),
        lambda: arcints.pruned_integral_diagnostic(400, 5, sample),
    ):
        first, second = make(), make()
        assert first == first and first != second


def _run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_worker_budget_error_exits_3(capsys, monkeypatch):
    # a band of pair_reduce, and a series block of scan, raise on a pool thread
    where = []
    started = threading.Event()

    def refuse(*args, **kwargs):
        started.set()
        where.append(threading.current_thread() is not threading.main_thread())
        raise BudgetError("refused on a worker")

    real_run = workers.run

    def run_pool_first(calls):
        # the first call waits until the pool has started a later one, so
        # the caller never takes that one back to run it itself
        calls = list(calls)
        if len(calls) < 2:
            return real_run(calls)

        def wait_then_head():
            started.wait(HOLD_S)
            return calls[0]()

        return real_run([wait_then_head, *calls[1:]])

    with worker_count(2):
        monkeypatch.setattr(workers, "run", lambda calls: run_pool_first(
            [call if i == 0 else refuse for i, call in enumerate(calls)]))
        first = _run_cli(capsys, "moments", "--moment", "eighth", "--P", "100")
        started.clear()
        monkeypatch.setattr(workers, "run", run_pool_first)
        monkeypatch.setattr(scanmod, "series_blocks", lambda X, W: [refuse])
        second = _run_cli(capsys, "scan", "--limit", "20000", "--trunc", "100")
    assert where == [True, True]
    for code, out, err in (first, second):
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "budget", "message": "refused on a worker"}
