"""Integer arguments: every target, bound and modulus is refused through
errors.check_count, so a float is a PreconditionError that names the argument
(never a numpy TypeError or IndexError), and a numpy integer counts as the int."""

import dataclasses

import numpy as np
import pytest

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
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
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
    check_count(np.int64(3), "bound P", budget=3)
    check_count(True, "flag", least=0)  # bool is an Integral
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
