import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circleforge
from circleforge.cli import main
from circleforge.errors import PreconditionError
from circleforge.powersums import leading_constant
from circleforge.scan import PsiSpec, median, percentiles, predict, record_columns, scan
from circleforge.sseries import truncated_singular_series
from circleforge.repcount import rep_count_single


def test_psi_parse_and_evaluate():
    psi = PsiSpec.parse("log")
    assert psi.kind == "log_power" and psi.param == 1.0
    assert PsiSpec.parse("log^2.5").param == 2.5
    assert PsiSpec.parse("pow:0.05").kind == "power"
    with pytest.raises(PreconditionError):
        PsiSpec.parse("exp")
    with pytest.raises(PreconditionError):
        PsiSpec.parse("pow:0.5")  # exceeds the slow-growth cap
    with pytest.raises(PreconditionError):
        PsiSpec("log_power", -1.0)


def test_psi_monotone():
    for spec in (PsiSpec.parse("log"), PsiSpec.parse("log^3"), PsiSpec.parse("pow:0.1")):
        ts = np.linspace(3, 10**7, 64)
        vals = spec(ts)
        assert np.all(np.diff(vals) > 0)


def test_predict_consistency():
    record = predict(6, 1000)
    assert record.R == 1
    series = truncated_singular_series(6, 1000)
    assert record.S_W == pytest.approx(series.value)
    assert record.main == pytest.approx(leading_constant().value * series.value * 6)
    assert record.abs_err == pytest.approx(abs(record.R - record.main))
    assert record.rel_err == pytest.approx(record.abs_err / record.main)
    assert record.exceptional is None
    with pytest.raises(PreconditionError):
        predict(5)


def test_predict_larger_target():
    record = predict(10**6, 1000)
    assert record.R == rep_count_single(10**6)
    assert np.isfinite(record.rel_err)


def test_scan_report_well_formed():
    report = scan(100, PsiSpec.parse("log"), 100)
    assert report.X == 100 and report.W == 100
    assert report.E == sum(c for _, _, c in report.dyadic_counts)
    hi_prev = 0
    for lo, hi, _ in report.dyadic_counts:
        assert lo == hi_prev
        hi_prev = hi
    assert hi_prev == 100
    q = report.rel_err_quantiles
    assert q["50"] <= q["90"] <= q["99"]


def test_scan_flags_recomputable():
    psi = PsiSpec.parse("log")
    report = scan(300, psi, 150)
    n = np.arange(301, dtype=np.float64)
    main = leading_constant().value * report.series * n
    abs_err = np.abs(report.counts - main)
    with np.errstate(divide="ignore"):
        thr = np.where(psi(n) > 0, n / np.where(psi(n) > 0, psi(n), 1.0), np.inf)
    flags = abs_err > thr
    flags[0] = False
    assert np.array_equal(flags, report.flags)
    # every stored record reproduces its flag from its own fields
    for n_test in (1, 2, 17, 300):
        rec = report.record(n_test)
        expected = rec.abs_err > (n_test / psi(n_test) if psi(n_test) > 0 else np.inf)
        assert rec.exceptional == bool(expected)


def test_scan_order_invariance():
    # E is a set count: evaluating records in any order gives the same E
    report = scan(200, PsiSpec.parse("log"), 100)
    rng = np.random.default_rng(5)
    order = rng.permutation(np.arange(1, 201))
    assert int(sum(report.flags[n] for n in order)) == report.E


def _csv_records(capsys, X, W):
    """The data rows of `scan --format csv`, split into fields."""
    assert main(["scan", "--limit", str(X), "--trunc", str(W), "--format", "csv"]) == 0
    return [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]


def test_scan_record_columns_schema(capsys):
    report = scan(64, PsiSpec.parse("log"), 64)
    columns = list(record_columns(report))
    assert len(columns) == 8 and all(len(c) == 64 for c in columns)
    n, R, s_w, tail, main_term, abs_err, rel_err, fl = (c[5] for c in columns)
    assert n == 6 and R == 1 and fl in (0, 1)
    assert s_w > 0 and main_term > 0
    rows = _csv_records(capsys, 64, 64)
    assert len(rows) == 64
    n, R, s_w, tail, main_term, abs_err, rel_err, fl = rows[5]
    assert n == "6" and R == "1" and fl in ("0", "1")
    assert float(s_w) > 0 and float(main_term) > 0


def test_scan_record_refuses_n_outside_range():
    report = scan(100, PsiSpec.parse("log"), 100)
    assert report.record(1).n == 1 and report.record(100).n == 100
    # a float inside the range would reach numpy's IndexError
    for n in (-1, 0, 101, 5.0, 5.5):
        with pytest.raises(PreconditionError):
            report.record(n)


# W = 403 = 13 * 31 is live, so the S_W cut falls on a table; at W = 1 the
# cut follows the first table, q = 1
@pytest.mark.parametrize("X, W", [(3000, 100), (3000, 403), (5000, 1), (20000, 1000)])
def test_scan_record_matches_predict(X, W):
    # series_batch and truncated_singular_series add the terms in one order,
    # so a record is predict's, bit for bit, but for the flag predict omits
    report = scan(X, PsiSpec.parse("log"), W)
    for n in np.random.default_rng(X).choice(np.arange(6, X + 1), 25, replace=False):
        rec = report.record(int(n))
        assert dataclasses.replace(rec, exceptional=None) == predict(int(n), W)


def test_scan_record_matches_record_columns(capsys):
    report = scan(300, PsiSpec.parse("log"), 150)
    columns = list(record_columns(report))
    rows = _csv_records(capsys, 300, 150)
    assert len(rows) == 300
    for i, row in enumerate(rows):
        rec = dataclasses.astuple(report.record(i + 1))
        assert rec == tuple(c[i] for c in columns)
        floats = [f"{v:.12g}" for v in rec[2:7]]
        assert row == [str(rec[0]), str(rec[1]), *floats, str(int(rec[7]))]


def test_series_stability_feeding_predictions():
    # rel_err moves by <= 1% for >= 95% of sampled targets when W doubles
    rng = np.random.default_rng(21)
    ns = [int(v) for v in rng.integers(10**3, 10**6, 40)]
    stable = 0
    for n in ns:
        r1 = predict(n, 1000)
        r2 = predict(n, 2000)
        if abs(r1.rel_err - r2.rel_err) <= 0.01:
            stable += 1
    assert stable >= 0.95 * len(ns)


def _bits(value):
    value = np.asarray(value)
    return value.dtype.str, value.shape, value.tobytes()


_entries = st.sampled_from([0.0, -0.0, 1.0, 2.5, math.inf, -math.inf, math.nan, 1e300]) | st.floats()


@settings(max_examples=400, deadline=None)
@given(st.lists(_entries, min_size=1, max_size=12), st.lists(st.floats(0, 100), max_size=4))
def test_quantile_helpers_match_numpy(entries, q):
    # lengths 1 and 2, odd and even, with infinities, NaNs and ties (repeats
    # and both zeros); inf - inf and inf * 0 make NaNs inside the
    # interpolation as numpy's own do
    a = np.array(entries)
    q = [50, 90, 99, *q]
    with np.errstate(invalid="ignore"):
        assert _bits(percentiles(a, q)) == _bits(np.percentile(a, q))
        assert _bits(median(a)) == _bits(np.median(a))


def test_scan_leaves_numpy_ma_unimported():
    # np.percentile and np.median import numpy.ma on first use (numpy 2.4),
    # 5-6 ms inside every timed scan
    script = """
import sys
from circleforge.scan import PsiSpec, scan
report = scan(10**4, PsiSpec.parse("log"), 100)
print(report.E > 0, "numpy.ma" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(circleforge.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "True False"


def test_lattice_windows_leave_numpy_ma_unimported():
    # a lattice of several value windows dedupes its sampled window bounds
    # with a mask, since a plain np.unique imports numpy.ma (numpy 2.4): the
    # eighth moment at 100 takes 5 windows, and at two workers the scan's
    # square pairs take 2
    script = """
import sys
from circleforge import workers
workers.WORKERS = 2
from circleforge.moments import sixth_power_eighth_moment
from circleforge.scan import PsiSpec, scan
sixth_power_eighth_moment(100)
scan(10**6, PsiSpec.parse("log"), 1000)
print("numpy.ma" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(circleforge.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "False"
