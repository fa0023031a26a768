"""The worker pool: independent calls spread over the CPUs this process may use.

WORKERS is the size of the process's CPU affinity mask, read once at import;
nothing else sets it.  The pool is created on the first call that needs it and
holds WORKERS - 1 threads that take calls off one queue.SimpleQueue (no
concurrent.futures, whose import brings in logging).  One rule, in `run`,
decides where a call runs: the calling thread runs the first call, then takes
back and runs each call that no worker has started, and waits only on calls
already running, so no caller, on the pool or off it, waits on queued work.
With one CPU every call runs inline, in order, and no thread is ever
started; so do they when the system refuses to start any pool thread.  A
call taken back or run holds no closure: one taken back may sit in the queue
behind a busy pool thread, and would otherwise keep the arrays its closure
names alive until that thread pops it.  The calls spend their time in numpy
kernels (sorts, ufuncs, FFTs) that release the GIL, and no result depends on
WORKERS.

`blocks` cuts n rows of work into fixed blocks, laid out by the row count and
block size alone, and each worker fills one contiguous run of them.  It serves
the arc quadrature's dense kernels and the counts: it hands out the value
windows of the lattices and of the cube/sixth spectrum, those of a single
target each filled and summed in its run's one scratch buffer.
"""

import os
import queue
import threading

WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

_executor = None
_lock = threading.Lock()


class _Call:
    """A call queued on the pool, run by whichever thread claims it first: a
    pool thread, or the thread that queued it, taking it back.  `done` is set
    once it has run on the pool, or at once when it is taken back."""

    def __init__(self, fn):
        self.fn, self.done, self._claim = fn, threading.Event(), threading.Lock()
        self._value = self._error = None

    def take_back(self) -> bool:
        """True if no pool thread has started the call, which is then the
        caller's to run; the queued call lets go of its closure at once, not
        when a busy pool thread pops it."""
        if self._claim.acquire(blocking=False):
            self.fn = None
            self.done.set()
            return True
        return False

    def run(self) -> None:
        """Run the call on a pool thread, unless it was taken back; the
        closure is dropped before `done` is set, so a result that waits to
        be read holds nothing else."""
        if not self._claim.acquire(blocking=False):
            return
        try:
            self._value = self.fn()
        except BaseException as exc:
            self._error = exc
        finally:
            self.fn = None
            self.done.set()

    def result(self, timeout=None):
        """The call's value, or its error raised, once it has run."""
        if not self.done.wait(timeout):
            raise TimeoutError("pool call still running")
        if self._error is not None:
            raise self._error
        return self._value


class _Pool:
    """Up to WORKERS - 1 daemon threads that take calls off one queue: as
    many as the system lets start.  A refused start (RuntimeError, "can't
    start new thread", as under an address-space limit) ends the pool there;
    with no thread, every call runs on the calling thread."""

    def __init__(self, size: int):
        self._queue = queue.SimpleQueue()
        self._threads = []
        for i in range(size):
            thread = threading.Thread(target=self._work, name=f"circleforge_{i}", daemon=True)
            try:
                thread.start()
            except RuntimeError:
                break
            self._threads.append(thread)

    def _work(self):
        while (call := self._queue.get()) is not None:
            call.run()
            del call  # an idle thread holds no call's closure or result

    def submit(self, fn) -> _Call:
        call = _Call(fn)
        self._queue.put(call)
        return call

    def shutdown(self) -> None:
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join()


def _pool() -> _Pool:
    global _executor
    with _lock:
        if _executor is None:
            _executor = _Pool(WORKERS - 1)
        return _executor


def run(calls) -> list:
    """The results of the zero-argument calls, in order, each run on the
    calling thread unless a pool thread started it first; an error raised by
    any call is raised here once no call is left running."""
    calls = list(calls)
    pool = _pool() if WORKERS > 1 and len(calls) > 1 else None
    if pool is None or not pool._threads:
        return [call() for call in calls]
    queued = [pool.submit(call) for call in calls[1:]]
    try:
        got = [calls[0]()]
        got += [call() if job.take_back() else job for call, job in zip(calls[1:], queued)]
    except BaseException:
        for job in queued:
            job.take_back()
        raise
    finally:
        for job in queued:  # set at once for a call taken back
            job.done.wait()
    return [got[0], *(r.result() if r is job else r for r, job in zip(got[1:], queued))]


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
