import dataclasses
import io
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circleforge import repcount
from circleforge.arcints import QUAD_NODE_BUDGET
from circleforge.arcs import WEYL_POINT_BUDGET
from circleforge.cli import ARC_OPS, COMMANDS, MOMENTS, main
from circleforge.powersums import MODULUS_BUDGET
from circleforge.repcount import RANGE_BUDGET, SINGLE_TARGET_BUDGET
from circleforge.sseries import TERM_BUDGET, TRUNCATION_BUDGET
from circleforge.repcount import rep_count_range
from circleforge.scan import PredictionRecord, PsiSpec, scan
from oracles import csv_table, record_rows


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_single(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "9")
    assert code == 0
    assert json.loads(out) == {"n": 9, "R": 2}


def test_gauss_example(capsys):
    code, out, _ = run_cli(capsys, "gauss", "--k", "2", "--q", "4", "--a", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["re"] == pytest.approx(2.0, abs=1e-9)
    assert payload["im"] == pytest.approx(2.0, abs=1e-9)


def test_scan_smoke(capsys):
    code, out, _ = run_cli(capsys, "scan", "--limit", "100", "--psi", "log", "--trunc", "100")
    assert code == 0
    payload = json.loads(out)
    assert payload["X"] == 100
    assert payload["E"] == sum(c for _, _, c in payload["dyadic_counts"])


def test_determinism_byte_identical(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "arcs", "--op", "pruned", "--limit", "400", "--Q", "5",
            "--sample", "8", "--seed", "31",
        )
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]

    # a different seed changes the sample, hence the report
    _, other, _ = run_cli(
        capsys, "arcs", "--op", "pruned", "--limit", "400", "--Q", "5",
        "--sample", "8", "--seed", "32",
    )
    assert other != runs[0]


def test_precondition_exit_code(capsys):
    code, out, err = run_cli(capsys, "count", "--n", "0")
    assert code == 2
    assert json.loads(err)["error"] == "precondition"
    code, _, err = run_cli(capsys, "gauss", "--k", "2", "--q", "6", "--a", "2")
    assert code == 2
    major = ("arcs", "--op", "major-integral", "--n", "5", "--limit", "40", "--trunc", "2")
    pruned = ("arcs", "--op", "pruned", "--limit", "40", "--Q", "3")
    for argv in (
        *(("scan", "--limit", "100", "--psi", psi) for psi in ("log^abc", "pow:", "log^nan")),
        # --grid below 1 and a negative --sample or --seed are refused
        major + ("--grid", "0"),
        major + ("--grid", "-1"),
        pruned + ("--grid", "0"),
        pruned + ("--sample", "-2"),
        pruned + ("--sample", "2", "--seed", "-1"),
        # argparse errors keep the contract: one line, exit 2
        ("count", "--limit", "x"),
        ("arcs", "--op", "nope"),
        (),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "precondition"


def test_sample_from_a_huge_range(capsys):
    # the draw never builds the X/2 candidates, so a 5e9-wide range costs nothing
    shifted = ("moments", "--moment", "shifted", "--P", "10", "--sample", "5")
    code, out, err = run_cli(capsys, *shifted, "--limit", "10000000000")
    assert code == 0 and err == ""
    assert json.loads(out)["param_sample_size"] == 5
    # members beyond int64 are refused before any draw
    code, out, err = run_cli(capsys, *shifted, "--limit", "100000000000000000000")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "precondition"


_SHIFTED = ("moments", "--moment", "shifted")
_PRUNED = ("arcs", "--op", "pruned")
_REFUSED_UNDRAWN = [
    # --sample 5000000 took 6.8 s and 527 MiB to draw before the shift-set
    # budget refused it, and --sample 2000000 1.7 s and 239 MiB before the
    # pruned X budget did
    ((*_SHIFTED, "--P", "10", "--limit", str(10**8), "--sample", str(5 * 10**6)),
     "budget", "shift set budget is 10**5 entries"),
    ((*_SHIFTED, "--P", "10001", "--limit", "100", "--sample", "5"),
     "budget", "correlation budget is P3 <= 10**4"),
    ((*_SHIFTED, "--P", "0", "--limit", "100", "--sample", "5"),
     "precondition", "bound P3 must be >= 1"),
    ((*_PRUNED, "--limit", str(10**12), "--Q", "5", "--sample", str(2 * 10**6)),
     "budget", "pruned-diagnostic budget is 16 <= X <= 10**4"),
    ((*_PRUNED, "--limit", "400", "--Q", "30", "--sample", "5"),
     "precondition", "need 1 <= Q <= sqrt(X)"),
    ((*_PRUNED, "--limit", "400", "--Q", "5", "--grid", "0", "--sample", "5"),
     "precondition", "grid must be >= 1"),
]


def _no_draw(monkeypatch):
    """Make any draw of a sample raise AssertionError, which the CLI does not
    catch."""
    def draw(*_, **__):
        raise AssertionError("a sample was drawn")
    monkeypatch.setattr(np.random, "default_rng", draw)


@pytest.mark.parametrize("argv, kind, message", _REFUSED_UNDRAWN,
                         ids=[" ".join(argv) for argv, _, _ in _REFUSED_UNDRAWN])
def test_refused_before_the_sample_is_drawn(capsys, monkeypatch, argv, kind, message):
    _no_draw(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert code == {"budget": 3, "precondition": 2}[kind] and out == ""
    assert err == json.dumps({"error": kind, "message": message}) + "\n"


_CLASSIFY = ("arcs", "--op", "classify", "--q", "3", "--a", "1")
# out-of-range inputs of the handlers, each refused with its one stderr line
_REFUSED = [
    (("scan", "--limit", "7"), "precondition", "scan range must reach at least 8"),
    (("count", "--limit", "0"), "precondition", "range bound X must be >= 1"),
    (("moments", "--moment", "pair-collisions", "--P", "0"), "precondition",
     "bound P6 must be >= 1"),
    (("moments", "--moment", "eighth", "--P", "0"), "precondition", "bound P6 must be >= 1"),
    (("moments", "--moment", "multiplicity", "--P", "0"), "precondition",
     "bound P3 must be >= 1"),
    (("moments", "--moment", "cube-sixth", "--limit", "0"), "precondition",
     "bound X must be >= 1"),
    ((*_CLASSIFY, "--Q", "2", "--limit", "0"), "precondition", "bound X must be >= 1"),
    ((*_CLASSIFY, "--Q", "50", "--limit", "100"), "precondition",
     "level Q must satisfy Q <= 2 sqrt(X)"),
    (("arcs", "--op", "major-integral", "--n", "0", "--limit", "100", "--trunc", "2"),
     "precondition", "target n must be >= 1"),
    (("arcs", "--op", "singular-integral", "--n", "0", "--limit", "100", "--trunc", "2"),
     "precondition", "target n must be >= 1"),
    # cost ceilings refuse as budgets
    (("arcs", "--op", "weyl", "--k", "2", "--P", "10000001", "--q", "3", "--a", "1"), "budget",
     "bound P=10000001 beyond budget 10000000"),
    ((*_CLASSIFY, "--Q", "2", "--limit", "100", "--trunc", "1001"), "budget",
     "peak level W=1001 beyond budget 1000"),
    (("arcs", "--op", "major-integral", "--n", "5", "--limit", "100", "--trunc", "201"), "budget",
     "peak level W=201 beyond budget 200"),
]


@pytest.mark.parametrize("argv, kind, message", _REFUSED,
                         ids=[" ".join(argv) for argv, _, _ in _REFUSED])
def test_refused_with_one_line(capsys, argv, kind, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == {"budget": 3, "precondition": 2}[kind] and out == ""
    assert err == json.dumps({"error": kind, "message": message}) + "\n"


def test_sample_checks_come_before_the_budgets(capsys, monkeypatch):
    # the sample's own preconditions keep their place ahead of the command's
    # refusals, and a command that passes both draws its sample
    _no_draw(monkeypatch)
    for argv, message in (
        ((*_SHIFTED, "--P", "10001", "--limit", "100", "--sample", "-1"),
         "--sample and --seed must be >= 0"),
        ((*_SHIFTED, "--P", "10001", "--limit", str(2**63), "--sample", "5"),
         "sampling needs --limit below 2^63"),
        ((*_PRUNED, "--limit", str(10**12 + 1), "--Q", "5", "--sample", str(10**12)),
         "sample larger than the admissible range (X/2, X]"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", json.dumps({"error": "precondition",
                                                       "message": message}) + "\n")
    for argv in ((*_SHIFTED, "--P", "10", "--limit", "1000", "--sample", "7"),
                 (*_PRUNED, "--limit", "400", "--Q", "5", "--sample", "8")):
        with pytest.raises(AssertionError, match="a sample was drawn"):
            main(list(argv))


def test_budget_exit_code(capsys):
    code, _, err = run_cli(capsys, "sseries", "--n", "10", "--q", "2000000")
    assert code == 3
    assert json.loads(err)["error"] == "budget"


def test_sseries_term_and_truncation(capsys):
    code, out, _ = run_cli(capsys, "sseries", "--n", "10", "--q", "6")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.0, abs=1e-9)
    code, out, _ = run_cli(capsys, "sseries", "--n", "6", "--trunc", "500")
    payload = json.loads(out)
    assert code == 0 and payload["value"] > 0 and payload["W"] == 500


def test_moments_cli(capsys):
    code, out, _ = run_cli(capsys, "moments", "--moment", "eighth", "--P", "2")
    assert code == 0
    assert json.loads(out)["count"] == 70
    code, out, _ = run_cli(capsys, "moments", "--moment", "multiplicity", "--P", "16")
    assert code == 0
    assert json.loads(out)["least_positive"] == 721


def test_arcs_weyl_classify(capsys):
    code, out, _ = run_cli(capsys, "arcs", "--op", "weyl", "--k", "2",
                           "--P", "11", "--a", "1", "--q", "2")
    assert code == 0
    assert json.loads(out)["re"] == pytest.approx(-1.0, abs=1e-9)
    code, out, _ = run_cli(capsys, "arcs", "--op", "classify", "--a", "1", "--q", "2",
                           "--Q", "2", "--limit", "100", "--trunc", "2")
    assert code == 0
    payload = json.loads(out)
    assert (payload["q"], payload["a"]) == (2, 1)


def test_predict_cli(capsys):
    code, out, _ = run_cli(capsys, "predict", "--n", "6", "--trunc", "200")
    assert code == 0
    payload = json.loads(out)
    assert payload["R"] == 1 and payload["main"] > 0


def test_csv_format(capsys):
    code, out, _ = run_cli(capsys, "count", "--limit", "12", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,R"
    assert lines[6] == "6,1"
    assert len(lines) == 13


def test_block_writer_matches_per_element_reference(tmp_path, capsys):
    # 2^16 + 17 rows fill sixteen 2^12-row blocks and end on a 17-row one
    X, W = 2**16 + 17, 100
    header = [f.name for f in dataclasses.fields(PredictionRecord)]
    records = csv_table(header, record_rows(scan(X, PsiSpec.parse("log"), W)))
    scan_argv = ("scan", "--limit", str(X), "--trunc", str(W))
    for fmt in ("json", "csv"):
        path = tmp_path / f"{fmt}.csv"
        code, out, _ = run_cli(capsys, *scan_argv, "--format", fmt, "--out", str(path))
        assert code == 0 and path.read_bytes().decode() == records
        # under JSON the summary stays on stdout
        assert (json.loads(out)["X"] == X) if fmt == "json" else out == ""
    code, out, _ = run_cli(capsys, *scan_argv, "--format", "csv")
    assert code == 0 and out == records
    values = rep_count_range(X).values
    counts = csv_table(("n", "R"), ((n, int(values[n])) for n in range(1, X + 1)))
    code, out, _ = run_cli(capsys, "count", "--limit", str(X), "--format", "csv")
    assert code == 0 and out == counts


def test_cache_dir_flag_and_env(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache1"
    code, out1, _ = run_cli(capsys, "count", "--limit", "50", "--cache-dir", str(cache))
    assert code == 0
    files = list(cache.iterdir())
    assert len(files) == 1 and files[0].name.startswith("wspc_")
    code, out2, _ = run_cli(capsys, "count", "--limit", "50", "--cache-dir", str(cache))
    assert out1 == out2

    env_cache = tmp_path / "cache2"
    monkeypatch.setenv("CIRCLEFORGE_CACHE", str(env_cache))
    code, out3, _ = run_cli(capsys, "count", "--limit", "50")
    assert code == 0
    assert out3 == out1
    assert len(list(env_cache.iterdir())) == 1


def test_scan_records_to_file(tmp_path, capsys):
    out_path = tmp_path / "records.csv"
    code, out, _ = run_cli(
        capsys, "scan", "--limit", "64", "--psi", "log", "--trunc", "64",
        "--out", str(out_path),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["X"] == 64
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].startswith("n,R,S_W")
    assert len(lines) == 65


def test_unusable_paths_exit_code(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for argv in (
        ("scan", "--limit", "64", "--trunc", "64", "--out", str(tmp_path / "no" / "x.csv")),
        ("count", "--limit", "50", "--cache-dir", str(blocker / "cache")),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "io"


def test_scan_out_checked_before_scanning(tmp_path, capsys, monkeypatch):
    from circleforge import cli

    calls = []
    monkeypatch.setattr(cli, "run_scan", lambda *args, **kwargs: calls.append(args))
    code, out, err = run_cli(capsys, "scan", "--limit", "300000",
                             "--out", str(tmp_path / "no" / "x.csv"))
    assert calls == []
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "io"


def test_out_checked_before_work(tmp_path, capsys, monkeypatch):
    from circleforge import arcints, repcount

    calls = []
    monkeypatch.setattr(repcount, "rep_count_range", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(arcints, "major_arc_integral", lambda *a, **k: calls.append(a))
    missing = str(tmp_path / "no" / "x")
    for argv in (
        ("count", "--limit", "300000", "--out", missing),
        ("arcs", "--op", "major-integral", "--n", "5000", "--limit", "10000", "--trunc", "3",
         "--out", missing),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "io"
    assert calls == []


def test_budgets_checked_before_work(capsys, monkeypatch):
    # scan and predict refuse an X, n or W beyond budget before any count or
    # series is computed, X (or n) first, each with its own message
    import sys

    scanmod = sys.modules["circleforge.scan"]  # circleforge.scan is the function

    def never(*args, **kwargs):
        raise AssertionError("work started before a budget check")

    for name in ("rep_count_range", "rep_count_single", "series_blocks",
                 "truncated_singular_series"):
        monkeypatch.setattr(scanmod, name, never)
    for argv, message in (
        (("scan", "--limit", "3000000", "--psi", "log", "--trunc", "6000"),
         "truncation W=6000 beyond budget 5000"),
        (("scan", "--limit", "30000001", "--trunc", "6000"),
         "range bound X=30000001 beyond budget 30000000"),
        (("predict", "--n", "100000000", "--trunc", "6000"),
         "truncation W=6000 beyond budget 5000"),
        (("predict", "--n", "10000000001", "--trunc", "6000"),
         "single target n=10000000001 beyond budget 10000000000 "
         "(a time budget: it sums 10000000000 cube/sixth counts, one window at a time)"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "budget", "message": message}


# 10^400 overflows a float: a count or density is refused before any float division
_HUGE = "1" + "0" * 400


def test_singular_integral_budget_on_trunc(capsys):
    # the default --trunc 1000 at n = 60, X = 16 takes 240,000 fine nodes, within
    # the node budget; at n = 10^6 it would take 5e8, and 10^400 has no float
    for n, expect in (("60", 0), ("1000000", 3), (_HUGE, 3)):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "arcs", "--op", "singular-integral",
                                 "--n", n, "--limit", "16")
        assert time.perf_counter() - start < 5
        assert code == expect
        if expect:
            assert out == "" and len(err.splitlines()) == 1
            assert json.loads(err)["error"] == "budget"
        else:
            assert err == "" and json.loads(out)["grid_points"] == 240_000


def test_out_of_memory_exits_3(capsys, monkeypatch):
    # a MemoryError is a budget refusal: exit 3, one stderr line, in both formats
    def no_room(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(repcount, "exact_convolve", no_room)
    for fmt, line in (("json", json.dumps({"error": "budget", "message": "out of memory"})),
                      ("csv", 'error,budget,"out of memory"')):
        code, out, err = run_cli(capsys, "count", "--limit", "1000", "--format", fmt)
        assert (code, out, err) == (3, "", line + "\n")


def test_scan_under_an_address_space_limit_exits_3():
    # scan(10^7) needs about 620-650 MiB of memory; limited to 512 MiB of
    # address space (in the child only), its first allocation that does not
    # fit raises MemoryError, which the CLI reports as a budget refusal
    limit = 512 * 2**20
    src = os.path.dirname(os.path.dirname(repcount.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "circleforge.cli", "scan", "--limit", "10000000"],
        capture_output=True, text=True, env=env, timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 3 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert json.loads(proc.stderr)["error"] == "budget"


def test_predict_peak_memory_is_bounded():
    # predict at 2e8 holds a few windows of g, where all of g, int16, would
    # take 381 MiB alone; the CLI runs in a grandchild, so the peak read from
    # RUSAGE_CHILDREN is its own and no other test's
    script = """
import resource, subprocess, sys
proc = subprocess.run([sys.executable, "-m", "circleforge.cli", "predict",
                       "--n", "200000000", "--trunc", "1"], capture_output=True, text=True)
print(proc.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
print(proc.stdout, end="")
"""
    src = os.path.dirname(os.path.dirname(repcount.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=300, check=True).stdout.splitlines()
    code, peak_kib = map(int, out[0].split())
    assert code == 0 and json.loads(out[1])["R"] == 95327210
    assert peak_kib <= 128 * 1024, peak_kib


# every integer budget a handler reaches, each at the budget plus one, with the
# error the library raises there
_BUDGET_PLUS_ONE = [
    (("count", "--limit", str(RANGE_BUDGET + 1)), "budget"),
    (("scan", "--limit", str(RANGE_BUDGET + 1)), "budget"),
    (("count", "--n", str(SINGLE_TARGET_BUDGET + 1)), "budget"),
    (("predict", "--n", str(SINGLE_TARGET_BUDGET + 1)), "budget"),
    (("sseries", "--n", "10", "--trunc", str(TRUNCATION_BUDGET + 1)), "budget"),
    (("predict", "--n", "100", "--trunc", str(TRUNCATION_BUDGET + 1)), "budget"),
    (("scan", "--limit", "100", "--trunc", str(TRUNCATION_BUDGET + 1)), "budget"),
    (("sseries", "--n", "10", "--q", str(TERM_BUDGET + 1)), "budget"),
    (("gauss", "--k", "2", "--q", str(MODULUS_BUDGET + 1), "--a", "1"), "budget"),
    (("arcs", "--op", "weyl", "--k", "2", "--P", str(WEYL_POINT_BUDGET + 1), "--q", "3",
      "--a", "1"), "budget"),
    # a denominator of 2^31 or more that is not a power of two
    (("arcs", "--op", "weyl", "--k", "2", "--P", "200001", "--q", str(2**31 + 1), "--a", "1"),
     "budget"),
    (("arcs", "--op", "classify", "--limit", "100", "--Q", "2", "--q", "3", "--a", "1",
      "--trunc", "1001"), "budget"),
    (("moments", "--moment", "pair-collisions", "--P", "3001"), "budget"),
    (("moments", "--moment", "cube-sixth", "--limit", str(10**8 + 1)), "budget"),
    (("moments", "--moment", "eighth", "--P", "301"), "budget"),
    (("moments", "--moment", "multiplicity", "--P", "10001"), "budget"),
    (("moments", "--moment", "shifted", "--P", "10001", "--limit", "100"), "budget"),
    (("moments", "--moment", "shifted", "--P", "10", "--limit", str(10**6),
      "--sample", str(10**5 + 1)), "budget"),
    (("arcs", "--op", "major-integral", "--n", "5", "--limit", str(10**5 + 1)), "budget"),
    (("arcs", "--op", "major-integral", "--n", "5", "--limit", "1000", "--trunc", "201"),
     "budget"),
    (("arcs", "--op", "singular-integral", "--n", "5", "--limit", str(10**6 + 1)), "budget"),
    (("arcs", "--op", "pruned", "--limit", str(10**4 + 1), "--Q", "5"), "budget"),
    # 8 W panels of 4 nodes at the fine density: W = 7812 takes 499,968 nodes,
    # W = 7813 the first count above QUAD_NODE_BUDGET
    (("arcs", "--op", "singular-integral", "--n", "1000", "--limit", "1000",
      "--trunc", str(QUAD_NODE_BUDGET // 64 + 1)), "budget"),
]


@pytest.mark.parametrize("argv, kind", _BUDGET_PLUS_ONE,
                         ids=[" ".join(argv) for argv, _ in _BUDGET_PLUS_ONE])
def test_each_budget_plus_one(capsys, argv, kind):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert code == {"budget": 3, "precondition": 2}[kind] and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == kind




@pytest.mark.parametrize("argv", [
    # 3.2e8 quadrature nodes at the coarse density
    ("--op", "major-integral", "--n", "5", "--limit", "1000", "--trunc", "2",
     "--grid", "10000000"),
    # 12,233 arcs: a small dissection, but 8e6 fine nodes
    ("--op", "major-integral", "--n", "1", "--limit", "100000", "--trunc", "200"),
    ("--op", "major-integral", "--n", "5", "--limit", "1000", "--trunc", "2",
     "--grid", _HUGE),
    ("--op", "pruned", "--limit", "400", "--Q", "5", "--grid", _HUGE),
])
def test_major_integral_quadrature_budget(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "arcs", *argv)
    assert time.perf_counter() - start < 5
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "budget"


_INT_FLAGS = ("--limit", "--n", "--k", "--q", "--a", "--P", "--Q", "--sample", "--seed", "--grid")
# 2^63 and +-10^30 lie outside int64; each flag must still exit 0, 2 or 3 at once
_VALUES = st.one_of(st.integers(-3, 60).map(str),
                    st.sampled_from(["x", "1.5", "", "nan", str(2**63), str(10**30), str(-10**30)]))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    selector = {"arcs": ("--op", sorted(ARC_OPS)), "moments": ("--moment", sorted(MOMENTS))}
    argv = [command, "--format", draw(st.sampled_from(["json", "csv"]))]
    if command in selector:
        flag, names = selector[command]
        argv += [flag, draw(st.sampled_from(names + ["nope"]))]
    if draw(st.booleans()):
        argv += ["--trunc", draw(_VALUES)]
    for flag, value in draw(st.dictionaries(st.sampled_from(_INT_FLAGS), _VALUES)).items():
        argv += [flag, value]
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=_argv())
def test_cli_fuzz_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert err.getvalue().count("\n") <= 1
    if code != 0:
        assert out.getvalue() == ""
