"""circleforge: exact and numerical diagnostics for representations of
integers as two squares, two cubes and two sixth powers.

The package computes, exactly where possible and numerically elsewhere, the
explicit objects attached to the counting problem: complete power-residue
exponential sums, the singular series and its local-density oracles, exact
representation counts for single targets and full ranges, mean-value counts,
Weyl sums with the arc dissection and its quadrature diagnostics, and
empirical exceptional-set scans.
"""

from .arcs import (
    ArcLabel,
    ExceptionalSample,
    classify_arc,
    exceptional_sum,
    major_arc_approx,
    peak_majorant,
    weyl_integral,
    weyl_sum,
)
from .arcints import (
    MajorArcIntegral,
    PrunedDiagnostic,
    SingularIntegral,
    major_arc_integral,
    pruned_integral_diagnostic,
    singular_integral,
)
from .errors import BudgetError, PreconditionError
from .moments import (
    MomentCount,
    MultiplicitySet,
    count_cube_sixth_correlation,
    count_sixth_pair_collisions,
    cube_multiplicity,
    shifted_cube_correlation,
    sixth_power_eighth_moment,
)
from .powersums import (
    GaussSumValue,
    LeadingConstant,
    MajorantValue,
    gauss_sum,
    gauss_sum_majorant,
    leading_constant,
    majorant_ratio_survey,
)
from .repcount import (
    PairSpectrum,
    RangeCounts,
    pair_spectrum,
    read_spectrum,
    rep_count_range,
    rep_count_single,
    write_spectrum,
)
from .scan import PredictionRecord, PsiSpec, ScanReport, predict, scan
from .sseries import (
    CongruenceCount,
    SeriesTerm,
    SingularSeriesValue,
    congruence_count,
    local_density,
    series_term,
    truncated_singular_series,
)

__version__ = "0.1.0"
