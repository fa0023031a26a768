"""circleforge benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload {scan,predict,quadrature} \
        --seed N --seconds S --trace {0,1}

Run from the repository root or anywhere else; the package is imported from
``src/`` next to this directory, never from an installed copy.

A run is a sequence of fresh child processes (child.py), one at a time, so
every task starts with cold ``lru_cache`` tables as a CLI invocation does.
First come SETUP_PROBES children that only set up; then task children, at
least MIN_TASKS, until the next one would end after ``--seconds``.  The
end-to-end metrics are medians over the children (``setup_s`` over probes and
untraced task children), latency percentiles over every timed operation of
every task child, and peak RSS the median ``ru_maxrss`` of the task children.

With ``--trace 1`` the task children alternate traced and untraced, the
traced ones record spans (spans.py) and the printed metrics are the
per-layer medians over traced children, plus the tracing overhead measured
against the untraced children of the same run.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, holding exactly the metrics that
BENCHMARK.json lists for the mode.  The lines before it give every metric
with its unit and sample count, ``fail_ratio`` and the machine.  Everything
a run writes stays under ``.perfbench_out/`` in the repository root.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("scan", "predict", "quadrature")

SETUP_PROBES = 5
MIN_TASKS = 2
MAX_TASKS = 12
DEADLINE_S = 170.0  # every run must end within 180 s
# one BLAS thread (never above nproc): weyl_integral_batch runs zgemv, and a
# single thread keeps the figures steady on a shared machine
BLAS_THREADS = 1


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(args, run_dir, mode, index, traced, deadline) -> dict:
    workdir = os.path.join(run_dir, f"{mode}-{index}")
    os.makedirs(workdir)
    out = os.path.join(run_dir, f"{mode}-{index}.json")
    t0 = time.monotonic()
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--index", str(index),
        "--mode", mode, "--trace", str(int(traced)), "--t0", repr(t0),
        "--workdir", workdir, "--out", out,
    ]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise ChildFailed(f"{mode} child {index} passed the run deadline") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not os.path.exists(out):
        raise ChildFailed(f"{mode} child {index} exited with code {proc.returncode}")
    with open(out) as fh:
        result = json.load(fh)
    result["traced"] = traced
    return result


def quantile(values, q: int) -> float:
    """q-th percentile, linear between order statistics (numpy's default)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(probes, tasks) -> dict:
    untraced = [t for t in tasks if not t["traced"]]
    ops = [s for t in tasks for s in t["op_s"]]
    attempted = sum(t["attempted"] for t in tasks)
    failed = sum(t["failed"] for t in tasks)
    setups = [c["setup_s"] for c in probes + untraced]
    return {
        "wall_s": (statistics.median(t["wall_s"] for t in untraced), len(untraced)),
        "setup_s": (statistics.median(setups), len(setups)),
        "op_p50_ms": (1000 * quantile(ops, 50), len(ops)),
        "op_p90_ms": (1000 * quantile(ops, 90), len(ops)),
        "peak_rss_mib": (statistics.median(t["peak_rss_mib"] for t in tasks), len(tasks)),
        "fail_ratio": (failed / attempted, attempted),
    }


def per_layer(tasks) -> dict:
    traced = [t for t in tasks if t["traced"]]
    untraced = [t for t in tasks if not t["traced"]]
    keys = sorted({k for t in traced for k in t["layers"]})
    out = {k: (statistics.median(t["layers"].get(k, 0.0) for t in traced), len(traced))
           for k in keys}
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    untraced_wall = statistics.median(t["wall_s"] for t in untraced)
    out["bench.traced_wall_s"] = (traced_wall, len(traced))
    out["bench.untraced_wall_s"] = (untraced_wall, len(untraced))
    out["bench.trace_overhead_ratio"] = (traced_wall / untraced_wall - 1.0, len(tasks))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "circleforge", "__init__.py")):
        print(f"perfbench: no circleforge package under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    start = time.monotonic()
    deadline = start + DEADLINE_S
    os.makedirs(OUT_ROOT, exist_ok=True)
    with open(os.path.join(OUT_ROOT, ".lock"), "w") as lock:
        # never measure two workloads at once in one checkout
        fcntl.flock(lock, fcntl.LOCK_EX)
        run_dir = os.path.join(
            OUT_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
        os.makedirs(run_dir)
        try:
            # set-up is reported from untraced runs only
            probes = [run_child(args, run_dir, "setup", i, False, deadline)
                      for i in range(0 if args.trace else SETUP_PROBES)]
            tasks = []
            task_start = time.monotonic()
            while True:
                tasks.append(run_child(args, run_dir, "task", len(tasks),
                                       bool(args.trace) and len(tasks) % 2 == 0, deadline))
                now = time.monotonic()
                per_task = (now - task_start) / len(tasks)
                if len(tasks) >= MAX_TASKS or now + per_task > deadline:
                    if len(tasks) < MIN_TASKS:
                        raise ChildFailed(f"only {len(tasks)} task(s) fit before the deadline")
                    break
                if len(tasks) >= MIN_TASKS and now - start + per_task > args.seconds:
                    break
        except ChildFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1

    metrics = per_layer(tasks) if args.trace else end_to_end(probes, tasks)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.setdefault("fail_ratio", "ratio")
    attempted = sum(t["attempted"] for t in tasks)
    failed = sum(t["failed"] for t in tasks)

    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "machine": tasks[0]["machine"],
                   "metrics": {k: {"value": v, "samples": n, "unit": units.get(k)}
                               for k, (v, n) in metrics.items()},
                   "children": probes + tasks}, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"tasks={len(tasks)} setup_probes={len(probes)} "
          f"elapsed={time.monotonic() - start:.1f}s")
    print("machine " + json.dumps(tasks[0]["machine"]))
    for name, (value, samples) in metrics.items():
        unit = units.get(name) or ("s" if name.endswith(("_s", ".s")) else "count")
        print(f"  {name:<52} {value:>16.6g} {unit:<6} (n={samples})")

    if not args.trace:
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
            return 1
    # a layer the workload never enters reports 0
    final = {m["name"]: {"value": metrics.get(m["name"], (0.0, 0))[0], "unit": m["unit"]}
             for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
