"""The worker pool: independent calls spread over the CPUs this process may use.

WORKERS is the size of the process's CPU affinity mask, read once at import;
nothing else sets it.  The pool is created on the first call that needs it and
holds WORKERS - 1 threads.  One rule, in `run`, decides where a call runs: the
calling thread runs the first call, then takes back and runs each call that no
worker has started, and waits only on calls already running, so no caller, on
the pool or off it, waits on queued work.  With one CPU every call runs
inline, in order, and no thread is ever started.  The calls spend their time
in numpy kernels (sorts, ufuncs, FFTs) that release the GIL, and no result
depends on WORKERS.

`blocks` cuts n rows of work into fixed blocks, laid out by the row count and
block size alone, and each worker fills one contiguous run of them.  It serves
the arc quadrature's dense kernels and the counts, whose value windows of the
cube/sixth spectrum and blocks of square-pair rows it hands out.
"""

import os
import threading

WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

_executor = None
_lock = threading.Lock()


def _pool():
    global _executor
    # imported on first use: concurrent.futures would add about 6 ms to
    # every import of the package, pool or not
    from concurrent.futures import ThreadPoolExecutor

    with _lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(WORKERS - 1, "circleforge")
        return _executor


def run(calls) -> list:
    """The results of the zero-argument calls, in order, each run on the
    calling thread unless a pool thread started it first; an error raised by
    any call is raised here once no call is left running."""
    calls = list(calls)
    if WORKERS < 2 or len(calls) < 2:
        return [call() for call in calls]
    from concurrent.futures import wait

    futures = [_pool().submit(call) for call in calls[1:]]
    got = []  # cancel() takes back only a call that no worker has started
    try:
        got.append(calls[0]())
        for call, future in zip(calls[1:], futures):
            got.append(call() if future.cancel() else future)
    except BaseException:
        for future in futures:
            future.cancel()
        raise
    finally:
        # wait counts a cancelled future as done only once a pool thread
        # dequeues it, so it gets the running ones alone
        wait([future for future in futures if not future.cancelled()])
    return [got[0], *(r.result() if r is f else r for r, f in zip(got[1:], futures))]


def blocks(fill, n: int, step: int, scratch=None) -> None:
    """fill(lo, hi) for every block [lo, hi) of `step` rows that covers range(n)
    (the last may be shorter), the blocks handed to `run` as contiguous runs,
    one per worker.  The blocks depend only on n and step, never on WORKERS.
    With `scratch`, each run calls scratch() once, on its own thread, and
    passes the result to each of its blocks as fill(lo, hi, buffers)."""
    edges = [*range(0, n, step), n]
    count = len(edges) - 1
    parts = min(WORKERS, count)

    def part(i):
        def call():
            extra = () if scratch is None else (scratch(),)
            for j in range(count * i // parts, count * (i + 1) // parts):
                fill(edges[j], edges[j + 1], *extra)
        return call

    run(part(i) for i in range(parts))
