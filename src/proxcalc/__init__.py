"""proxcalc: finite-dimensional proximal calculus.

Closed-form prox maps, Moreau envelopes, and Fenchel conjugates for a
catalog of convex functions; grid-based numerical conjugation; recovery of
a convex function (up to an additive constant) from oracle access to its
prox map; and empirical checkers for the comparison and determination
principles that make the recovery work.
"""

from .engine import (
    ProxResult,
    SolverBudget,
    envelope_gradient,
    moreau_decomposition_residual,
    moreau_envelope,
    numerical_prox,
    prox,
)
from .functions import (
    AddConst,
    AddQuadratic,
    Affine,
    ConvexFunction,
    Envelope,
    IndicatorBall,
    IndicatorBox,
    IndicatorHalfspace,
    IndicatorPoint,
    Quadratic,
    ScaledNorm,
    SupportBall,
    SupportBox,
    Tilt,
    Translate,
    conjugate_closed_form,
    evaluate,
    evaluate_many,
    minimal_selection,
    prox_closed_form,
    subdifferential,
)
from .conjugation import conjugate_argmax, numerical_conjugate, verify_envelope_conjugate
from .determination import (
    ProxOracle,
    ReconstructionReport,
    ReconstructionTask,
    determine_from_norm,
    integrate_tilde,
    reconstruct,
    tilde_gradient,
)
from .grids import SampleGrid, ValueTable, read_table_csv, tabulate, write_table_csv
from .reports import CheckReport, render_reports, write_reports
from .sampling import Lcg
from .specfmt import load_document, parse_document, to_document
from .verify import (
    check_comparison,
    check_equivalences,
    check_gradient_comparison,
    check_lipschitz,
    check_norm_lower_bound,
    check_support_distance,
    standard_battery,
)

__version__ = "0.1.0"
