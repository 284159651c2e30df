"""Exact classification of non-dominated points of finite outcome sets.

Minimization convention throughout.  Every decision - dominance,
weighted-sum witnesses, frontier and boundary membership, vertex tests,
weight-space cells - is made in exact rational arithmetic, so the
distinction between supported and weakly supported points survives
untouched by rounding.
"""

from .classify import (
    Classification,
    CrossCheckReport,
    Label,
    WeightVector,
    barycenter,
    classify_all,
    cross_check,
    is_extreme_supported,
    is_on_boundary_upper_image,
    is_on_frontier,
    supported_witness,
    weakly_supported_witness,
)
from .dichotomic import DichotomicResult, dichotomic_extremes, weighted_sum_argmin
from .errors import (
    ConsistencyError,
    EnumerationCapError,
    NdsupportError,
    ParseError,
    ValidationError,
)
from .instances import (
    AssignmentSpec,
    KnapsackSpec,
    enumerate_assignment,
    enumerate_instance,
    enumerate_knapsack,
    generate_assignment,
    generate_knapsack,
    generate_points,
    lift_zero_objective,
    parse_instance,
    serialize_instance,
)
from .outcomes import (
    OutcomePoint,
    OutcomeSet,
    ParetoFilterResult,
    dominates,
    filter_nondominated,
    validate_instance,
)
from .ratlp import (
    LinearConstraint,
    LinearProgram,
    LpOutcome,
    lp_solve,
    rational,
)
from .weightspace import WeightCell, cell_interval, cell_membership, decompose, weight_cell

__version__ = "0.1.0"
