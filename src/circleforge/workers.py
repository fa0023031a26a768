"""The worker pool: independent calls spread over the CPUs this process may use.

WORKERS is the size of the process's CPU affinity mask, read once at import;
nothing else sets it.  The pool is created on the first call that needs it and
holds WORKERS - 1 threads, since the calling thread always runs one of the
calls itself.  With one CPU every call runs inline, in order, and no thread is
ever started; so does a call made from a pool thread, which must never wait
on the pool it runs in.  The calls handed out here spend their time in numpy
kernels (sorts, ufuncs, FFTs) that release the GIL, and no result depends on
WORKERS.

`blocks` cuts n rows of work into fixed blocks, laid out by the row count and
block size alone, and each worker fills one contiguous run of them.  It serves
the arc quadrature's dense kernels and the single-target count, whose value
windows of the cube/sixth spectrum and blocks of square-pair rows it hands
out.
"""

import os
import threading

WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

_executor = None
_lock = threading.Lock()
_local = threading.local()


def _mark_worker() -> None:
    _local.on_worker = True


def _pool():
    global _executor
    # imported on first use: concurrent.futures would add about 6 ms to
    # every import of the package, pool or not
    from concurrent.futures import ThreadPoolExecutor

    with _lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(WORKERS - 1, "circleforge", _mark_worker)
        return _executor


def run(calls) -> list:
    """The results of the zero-argument calls, in order.  The first runs on the
    calling thread and the others on the pool; an error raised by any call is
    raised here once no call is left running."""
    calls = list(calls)
    if WORKERS < 2 or len(calls) < 2 or getattr(_local, "on_worker", False):
        return [call() for call in calls]
    from concurrent.futures import wait

    futures = [_pool().submit(call) for call in calls[1:]]
    try:
        head = calls[0]()
    except BaseException:
        for future in futures:
            future.cancel()
        raise
    finally:
        wait(futures)
    return [head, *(future.result() for future in futures)]


def blocks(fill, n: int, step: int) -> None:
    """fill(lo, hi) for every block [lo, hi) of `step` rows that covers range(n)
    (the last may be shorter), the blocks handed to `run` as contiguous runs,
    one per worker.  The blocks depend only on n and step, never on WORKERS."""
    edges = [*range(0, n, step), n]
    count = len(edges) - 1
    parts = min(WORKERS, count)

    def part(i):
        def call():
            for j in range(count * i // parts, count * (i + 1) // parts):
                fill(edges[j], edges[j + 1])
        return call

    run(part(i) for i in range(parts))
