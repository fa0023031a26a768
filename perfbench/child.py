"""One fresh process of a benchmark run: set up, run one task, check it.

Usage (normally started by run.py):

    python3 perfbench/child.py --workload NAME --seed N --index I \
        --mode {setup,task} --trace {0,1} --t0 MONOTONIC --workdir DIR --out FILE

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so ``setup_s`` covers interpreter start,
the package import, input generation and, for ``scan``, the spectrum cache
fill.  In ``setup`` mode the child stops there.  In ``task`` mode it runs the
task's operations back to back, timing each, then checks every result with
tracing paused, and writes one JSON object to ``--out``.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
CACHES = (
    ("sseries.term_table", "circleforge.sseries", "_term_table"),
    ("sseries.congruence", "circleforge.sseries", "_congruence_spectrum"),
    ("arcints.gauss_value", "circleforge.arcints", "_gauss_value"),
)


def cache_counters() -> dict:
    """Hits, misses and hit ratio of the library's lru caches, read from outside."""
    out = {}
    for label, module, attr in CACHES:
        info = getattr(sys.modules[module], attr).cache_info()
        total = info.hits + info.misses
        out[f"{label}.hits"] = info.hits
        out[f"{label}.misses"] = info.misses
        out[f"{label}.hit_ratio"] = info.hits / total if total else 0.0
    return out


def machine() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} "
                f"({' '.join(str(blas.get('openblas configuration', '')).split())})",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "task"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import circleforge  # the import is part of set-up

    from spans import Tracer
    from workloads import WORKLOADS

    root_src = os.path.join(os.path.dirname(HERE), "src")
    if not os.path.abspath(circleforge.__file__).startswith(root_src + os.sep):
        raise SystemExit(f"circleforge imported from {circleforge.__file__}, not {root_src}")

    tracer = Tracer()
    if args.trace:
        tracer.install()
    prepare, latency_kind, dominant = WORKLOADS[args.workload]
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    ops = prepare(args.seed, args.index, args.workdir, ref)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if args.mode == "task":
        results, latencies = [], []
        start = time.perf_counter()
        for i, op in enumerate(ops):
            tracer.op = i
            t = time.perf_counter()
            try:
                results.append(op.run())
            except Exception:
                traceback.print_exc()
                results.append(None)
            latencies.append((op.kind, time.perf_counter() - t))
        wall_s = time.perf_counter() - start
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer.active = False

        # read the cache counters before the checks touch the caches
        layers = cache_counters() if args.trace else {}
        failed = 0
        for op, value in zip(ops, results):
            try:
                ok = value is not None and op.check(value)
            except Exception:
                traceback.print_exc()
                ok = False
            failed += not ok
        if args.trace:
            for op, value in zip(ops, results):
                if op.layers is not None and value is not None:
                    layers.update(op.layers(value))
            for name, agg in tracer.totals().items():
                for key, value in agg.items():
                    layers[f"{name}.{key}"] = value
            layers["bench.dominant_self_share"] = (
                sum(layers.get(f"{name}.self_s", 0.0) for name in dominant) / wall_s
            )
            tracer.write(os.path.join(os.path.dirname(args.out), f"spans-{args.index}.jsonl"))
        result.update(
            wall_s=wall_s,
            op_s=[s for kind, s in latencies if kind == latency_kind],
            attempted=len(ops),
            failed=failed,
            peak_rss_mib=peak_rss_mib,
            layers=layers,
            machine=machine(),
        )
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
