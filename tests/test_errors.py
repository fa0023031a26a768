"""Integer arguments: every integer argument of a public entry passes
errors.check_count, so a float is a PreconditionError that names the argument
(never a numpy TypeError or IndexError), and a numpy integer is converted to
the Python int, with the int's result or refusal."""

import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import circleforge
from circleforge.arcints import major_arc_error_survey, peak_majorant_survey
from circleforge.errors import BudgetError, PreconditionError, check_count
from circleforge.moments import (
    count_cube_sixth_correlation,
    count_sixth_pair_collisions,
    cube_multiplicity,
    shifted_cube_correlation,
    sixth_power_eighth_moment,
)
from circleforge.powersums import gauss_sum, gauss_sum_majorant, gauss_sum_table
from circleforge.repcount import pair_spectrum, rep_count_range, rep_count_single
from circleforge.scan import PsiSpec, predict, scan
from circleforge.sseries import (
    congruence_count,
    series_batch,
    series_term,
    truncated_singular_series,
)

PSI = PsiSpec.parse("log")

# (entry and argument, the call with that argument, what its refusal names,
# an admitted value)
ENTRIES = [
    ("rep_count_single", rep_count_single, "target n", 100),
    ("rep_count_range", rep_count_range, "range bound X", 100),
    ("pair_spectrum", lambda P: pair_spectrum(2, P), "bound P", 7),
    ("predict.n", lambda n: predict(n, 10), "target n", 100),
    # below 8 the scan's own floor refuses first
    ("scan.X", lambda X: scan(X, PSI, 10), "scan range|range bound X", 100),
    ("scan.W", lambda W: scan(100, PSI, W), "truncation W", 10),
    ("series_batch.X", lambda X: series_batch(X, 10), "range bound X", 100),
    ("series_batch.W", lambda W: series_batch(100, W), "truncation W", 10),
    ("truncated_singular_series.n", lambda n: truncated_singular_series(n, 10), "target n", 100),
    ("truncated_singular_series.W", lambda W: truncated_singular_series(100, W),
     "truncation W", 10),
    ("series_term", lambda q: series_term(q, 5), "modulus q", 12),
    ("congruence_count", lambda q: congruence_count(q, 5), "modulus q", 12),
    ("gauss_sum", lambda q: gauss_sum(2, q, 1), "modulus q", 12),
    ("gauss_sum_table", lambda q: gauss_sum_table(2, q), "modulus q", 12),
    ("gauss_sum_majorant", lambda q: gauss_sum_majorant(2, q), "modulus q", 12),
    ("count_sixth_pair_collisions", count_sixth_pair_collisions, "bound P6", 10),
    ("count_cube_sixth_correlation", count_cube_sixth_correlation, "bound X", 64),
    ("sixth_power_eighth_moment", sixth_power_eighth_moment, "bound P6", 3),
    ("cube_multiplicity", cube_multiplicity, "bound P3", 10),
    ("shifted_cube_correlation", lambda P3: shifted_cube_correlation(P3, [1, 8, 20]),
     "bound P3", 10),
]


def _same(a, b) -> bool:
    """Equal, and of the same type down to every field, entry and scalar: a
    numpy integer that leaked into a result differs from the int."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("call, names", [entry[1:3] for entry in ENTRIES],
                         ids=[entry[0] for entry in ENTRIES])
@pytest.mark.parametrize("value", [7.5, 7.0, np.float64(7.0), 100.5], ids=repr)
def test_floats_are_refused_by_name(call, names, value):
    # before check_count, 13 of these let the float reach numpy, which raised
    # TypeError or IndexError
    with pytest.raises(PreconditionError, match=names):
        call(value)


@pytest.mark.parametrize("call, good", [entry[1::2] for entry in ENTRIES],
                         ids=[entry[0] for entry in ENTRIES])
def test_numpy_integers_count_as_ints(call, good):
    assert _same(call(np.int64(good)), call(good))


def test_check_count_messages():
    for value in (np.int64(3), np.uint8(3), 3, True):  # bool is an Integral
        got = check_count(value, "bound P", least=0, budget=3)
        assert got == value and type(got) is int
    assert check_count(np.int16(-7), "target n", least=None) == -7
    for value, least, budget, kind, text in (
        (2.5, 1, None, PreconditionError, "bound P=2.5 must be an integer"),
        (np.float64(7.0), 1, None, PreconditionError,
         f"bound P={np.float64(7.0)!r} must be an integer"),
        ("7", 1, None, PreconditionError, "bound P='7' must be an integer"),
        (0, 1, None, PreconditionError, "bound P must be >= 1"),
        (-1, 0, 10, PreconditionError, "bound P must be >= 0"),
        (11, 1, 10, BudgetError, "bound P=11 beyond budget 10"),
        (np.int64(11), 1, 10, BudgetError, "bound P=11 beyond budget 10"),
    ):
        with pytest.raises(kind) as raised:
            check_count(value, "bound P", least, budget)
        assert str(raised.value) == text


SAMPLE = circleforge.ExceptionalSample(members=(700, 951))

# each call failed outside the documented errors before every integer argument
# went through check_count: a wrapped int64 length that passed the budget, a
# result at a non-integer target, a TypeError or IndexError from numpy or
# math, or a refusal naming an argument that the caller never passed
# (local_density's "modulus q=11.180339887498949")
DEFECTS = [
    (lambda: circleforge.pair_spectrum(6, np.int64(2048)), BudgetError,
     "pair spectrum needs 147573952589676412929 entries (1099511627776.0 GiB), budget is 200000000"),
    (lambda: circleforge.major_arc_integral(100.5, 5000, 6), PreconditionError,
     "target n=100.5 must be an integer"),
    (lambda: circleforge.singular_integral(100.5, 10**4, 50), PreconditionError,
     "target n=100.5 must be an integer"),
    (lambda: circleforge.gauss_sum(2, 7, 3.0), PreconditionError, "residue a=3.0 must be an integer"),
    (lambda: circleforge.series_term(7, 5.0), PreconditionError, "target n=5.0 must be an integer"),
    (lambda: circleforge.congruence_count(7, 5.5), PreconditionError,
     "target n=5.5 must be an integer"),
    (lambda: circleforge.weyl_sum(2, 10.5, 0.25), PreconditionError, "bound P=10.5 must be an integer"),
    (lambda: circleforge.classify_arc(0.25, 10.5, 1000, 5), PreconditionError,
     "level Q=10.5 must be an integer"),
    (lambda: circleforge.major_arc_integral(100, 5000.5, 6), PreconditionError,
     "bound X=5000.5 must be an integer"),
    (lambda: circleforge.singular_integral(100, 10**4, 50.5), PreconditionError,
     "level W=50.5 must be an integer"),
    (lambda: circleforge.pruned_integral_diagnostic(10**4, 16.5, SAMPLE), PreconditionError,
     "level Q=16.5 must be an integer"),
    (lambda: circleforge.majorant_ratio_survey(2, 10.5), PreconditionError,
     "modulus bound q_max=10.5 must be an integer"),
    (lambda: circleforge.major_arc_approx(2, 7.0, 3, 0.001, 100), PreconditionError,
     "modulus q=7.0 must be an integer"),
    (lambda: peak_majorant_survey(1000.5, 10), PreconditionError, "bound X=1000.5 must be an integer"),
    (lambda: major_arc_error_survey(2, 1000.5, 5, 2), PreconditionError,
     "bound X=1000.5 must be an integer"),
    (lambda: circleforge.local_density(5, 3, 1.5), PreconditionError,
     "exponent h=1.5 must be an integer"),
    # cost ceilings that were PreconditionErrors
    (lambda: circleforge.weyl_sum(2, 10**7 + 1, 0.25), BudgetError,
     "bound P=10000001 beyond budget 10000000"),
    (lambda: circleforge.classify_arc(0.25, 10, 1000, 1001), BudgetError,
     "peak level W=1001 beyond budget 1000"),
    (lambda: circleforge.majorant_ratio_survey(2, 10**4 + 1), BudgetError,
     "modulus bound q_max=10001 beyond budget 10000"),
]


@pytest.mark.parametrize("call, kind, text", DEFECTS, ids=[d[2] for d in DEFECTS])
def test_defects_are_refused(call, kind, text):
    with pytest.raises(kind) as raised:
        call()
    assert type(raised.value) is kind and str(raised.value) == text


def test_no_numpy_integer_leaks_into_a_result():
    assert type(circleforge.predict(np.int64(1000)).n) is int
    assert type(circleforge.count_sixth_pair_collisions(np.int64(1500)).count) is int
    assert type(circleforge.truncated_singular_series(np.int64(1000), np.int64(10)).W) is int
    sample = circleforge.ExceptionalSample(members=(np.int64(3), np.uint16(5)))
    assert sample.members == (3, 5) and {type(m) for m in sample.members} == {int}


# a small valid call, by keyword, of every public function that the package
# exports, and of the two arc surveys; its int-annotated arguments are the
# ones under test
PUBLIC_CALLS = {
    "classify_arc": dict(alpha=0.25, Q=10, X=1000, W=5),
    "congruence_count": dict(q=12, n=5),
    "count_cube_sixth_correlation": dict(X=64),
    "count_sixth_pair_collisions": dict(P6=10),
    "cube_multiplicity": dict(P3=10),
    "exceptional_sum": dict(sample=SAMPLE, alpha=0.25),
    "gauss_sum": dict(k=2, q=7, a=3),
    "gauss_sum_majorant": dict(k=2, q=12),
    "leading_constant": dict(),
    "local_density": dict(p=5, n=3, h=1),
    "major_arc_approx": dict(k=2, q=7, a=3, beta=0.001, P=100),
    "major_arc_integral": dict(n=100, X=100, W=2, grid=1),
    "majorant_ratio_survey": dict(k=2, q_max=10),
    "pair_spectrum": dict(k=2, P=3),  # drawn up to P = 8: 2 * 8^6 entries at k = 6
    "peak_majorant": dict(alpha=0.25, q=4, a=1, P2=100),
    "predict": dict(n=100, W=10),
    "pruned_integral_diagnostic": dict(X=64, Q=4, sample=SAMPLE, grid=1),
    "read_spectrum": None,  # no integer argument
    "rep_count_range": dict(X=100),
    "rep_count_single": dict(n=100),
    "scan": dict(X=100, psi=PSI, W=10),
    "series_term": dict(q=12, n=5),
    "shifted_cube_correlation": dict(P3=10, shifts=[1, 8, 20]),
    "singular_integral": dict(n=100, X=100, W=2),
    "sixth_power_eighth_moment": dict(P6=3),
    "truncated_singular_series": dict(n=100, W=10),
    "weyl_integral": dict(k=2, P=100, beta=0.001),
    "weyl_sum": dict(k=2, P=10, alpha=0.25),
    "write_spectrum": None,  # no integer argument
}
SURVEYS = {peak_majorant_survey: dict(X=100, Q=10),
           major_arc_error_survey: dict(k=2, X=1000, q_max=5, W=2)}


def _int_arguments():
    """(id, function, valid keyword call, name of one int-annotated argument)."""
    calls = {getattr(circleforge, name): kwargs for name, kwargs in PUBLIC_CALLS.items()}
    for fn, kwargs in {**calls, **SURVEYS}.items():
        for name, param in inspect.signature(fn).parameters.items():
            if param.annotation is int:
                yield f"{fn.__name__}.{name}", fn, kwargs, name


INT_ARGUMENTS = list(_int_arguments())


def test_every_exported_function_has_a_valid_call():
    exported = {name for name, value in vars(circleforge).items() if inspect.isfunction(value)}
    assert exported == set(PUBLIC_CALLS)
    for fn, kwargs in SURVEYS.items():
        fn(**kwargs)
    for name, kwargs in PUBLIC_CALLS.items():
        if kwargs is not None:
            getattr(circleforge, name)(**kwargs)


@pytest.mark.parametrize("fn, kwargs, name", [a[1:] for a in INT_ARGUMENTS],
                         ids=[a[0] for a in INT_ARGUMENTS])
def test_every_int_argument_refuses_a_fraction(fn, kwargs, name):
    value = kwargs[name] + 0.5
    with pytest.raises(PreconditionError) as raised:
        fn(**{**kwargs, name: value})
    assert f"={value!r}" in str(raised.value)


NUMPY_INTEGERS = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def _outcome(fn, kwargs):
    try:
        return fn(**kwargs)
    except (PreconditionError, BudgetError) as exc:  # compared by class and text
        return type(exc), str(exc)


@pytest.mark.parametrize("fn, kwargs, name", [a[1:] for a in INT_ARGUMENTS],
                         ids=[a[0] for a in INT_ARGUMENTS])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_numpy_integer_arguments_act_as_the_int(fn, kwargs, name, data):
    # drawn from -2 to twice the valid value plus 2, refusals among them,
    # wherever the numpy type holds the value
    kind = data.draw(st.sampled_from(NUMPY_INTEGERS))
    info = np.iinfo(kind)
    value = data.draw(st.integers(max(-2, info.min), min(2 * kwargs[name] + 2, info.max)))
    expect = _outcome(fn, {**kwargs, name: value})
    assert _same(_outcome(fn, {**kwargs, name: kind(value)}), expect)
