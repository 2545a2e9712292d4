"""parasol: exact verification of almost paracontact metric structures.

Symbolic tensor calculus over a single coordinate chart with exact
rational-exponential scalars, validation of (epsilon)-almost paracontact
metric axioms and para-Sasakian identities, eta-Ricci soliton residuals and
constant solving, Einstein-like fitting, torse-forming and parallel-tensor
analysis, and an independent finite-difference oracle.
"""

from .chart import Chart, ChartError, ChartMismatchError
from .checks import CheckOutcome
from .connection import (
    christoffel,
    covariant_derivative,
    covariant_derivative_along,
    ricci,
    riemann,
    scalar_curvature,
)
from .manifest import Manifest, ManifestError, load_manifest
from .oracle import OracleConfig, StencilSampler, compare
from .paracontact import (
    ParacontactStructure,
    StructureError,
    detect_epsilon,
    is_para_sasakian,
    sasakian_identity_suite,
    validate_axioms,
    validate_metric_compat,
)
from .report import VerificationReport
from .solitons import (
    EinsteinLikeConstants,
    SolitonData,
    TorseFormingData,
    collinear_potential_analysis,
    detect_torse_forming,
    einstein_like_fit,
    einstein_like_suite,
    fit_constants,
    parallel_tensor_check,
    semi_symmetry_residual,
    solve_soliton_constants,
    soliton_residual,
    torse_forming_constants,
    xi_consequence_suite,
)
from .symexpr import Expr, ExprError, InvariantError, ParseError, parse
from .tensor import Contraction, Frame, Metric, TensorField, contract, lie_bracket, signature_at

__version__ = "0.1.0"
