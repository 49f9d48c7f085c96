"""pcf-lab: exact and certified-numeric tools for the unicritical family z^d + c.

Computes the parameters with finite critical orbit exactly (critical-orbit
polynomials and their period/preperiod factors), isolates their complex
embeddings with certified ball arithmetic, evaluates escape rates and heights
at all places, decides S-integrality relative to an algebraic base point, and
runs desk-scale equidistribution and bound-shape experiments.
"""

__version__ = "0.1.0"

from .balls import ComplexBall
from .critical_orbit import (
    FactorDescriptor,
    exact_period_factor,
    enumerate_factors,
    gleason,
    misiurewicz_factor,
)
from .equidist import (
    DiscrepancyReport,
    avg_log_distance_roots,
    avg_log_distance_vieta,
    discrepancy_report,
)
from .heights import (
    AlgebraicNumber,
    EscapeRateResult,
    escape_rate_arch,
    green_nonarch,
    is_pcf_parameter,
    local_height_functional_check,
    weil_height,
)
from .integrality import (
    IntegralityVerdict,
    PrimeSet,
    census,
    is_S_integral,
    meeting_test_exact,
)
from .bounds import (
    BoundReport,
    LinearFormInput,
    beg_lower_bound,
    degree_lower_bound_check,
    mahler_separation_bound,
    pcf_modulus_bound,
    prop31_bound,
    thm15_threshold,
)
from .polynomials import (
    IntPolynomial,
    divide_exact,
    evaluate_exact,
    resultant,
    squarefree_part,
)
from .rootfinder import PCFParameterSet, all_roots, min_pairwise_distance

__all__ = [
    "AlgebraicNumber",
    "BoundReport",
    "ComplexBall",
    "DiscrepancyReport",
    "EscapeRateResult",
    "FactorDescriptor",
    "IntPolynomial",
    "IntegralityVerdict",
    "LinearFormInput",
    "PCFParameterSet",
    "PrimeSet",
    "all_roots",
    "avg_log_distance_roots",
    "avg_log_distance_vieta",
    "beg_lower_bound",
    "census",
    "degree_lower_bound_check",
    "discrepancy_report",
    "divide_exact",
    "enumerate_factors",
    "escape_rate_arch",
    "evaluate_exact",
    "exact_period_factor",
    "gleason",
    "green_nonarch",
    "is_S_integral",
    "is_pcf_parameter",
    "local_height_functional_check",
    "mahler_separation_bound",
    "meeting_test_exact",
    "min_pairwise_distance",
    "misiurewicz_factor",
    "pcf_modulus_bound",
    "prop31_bound",
    "resultant",
    "squarefree_part",
    "thm15_threshold",
    "weil_height",
]
