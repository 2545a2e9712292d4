"""Analysis orchestration: one verb per concern, composable into a full report.

Each command takes an :class:`Analysis` (a loaded manifest plus its oracle config)
and returns a :class:`~parasol.report.VerificationReport`; its body returns
the check outcomes in report order and may set report constants.
Applicability is data driven:
operations whose inputs are missing from the manifest (no frame, no
potential, no constants) contribute inapplicable entries rather than errors,
so ``report --all`` is total on any valid manifest.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, wraps

import numpy as np

from .batch import PointBatch
from .chart import SAMPLE_COUNT
from .checks import (
    CLASSIFICATION,
    FACT,
    FAIL,
    INAPPLICABLE,
    PASS,
    Check,
    CheckOutcome,
    Need,
    inapplicable,
    run_checks,
)
from .connection import WEIGHTED_TRACE, covariant_derivative, frame_sum, scalar_curvature
from .manifest import Manifest, ManifestError
from .oracle import (
    DEGENERACY_CUTOFF,
    OracleConfig,
    StencilDegeneracyError,
    StencilSampler,
    compare,
    max_deviation,
    oracle_sample_points,
    require_step_fits,
)
from .paracontact import (
    ParacontactStructure,
    is_para_sasakian,
    sasakian_identity_suite,
    structure_is_valid,
    validate_axioms,
    validate_metric_compat,
)
from .report import VerificationReport
from .solitons import (
    EinsteinFitResult,
    EinsteinLikeConstants,
    RankDeficientError,
    SolitonData,
    TorseFormingData,
    collinear_potential_analysis,
    curvature_from_torse_forming,
    detect_torse_forming,
    einstein_like_fit,
    einstein_like_suite,
    parallel_tensor_check,
    semi_symmetry_residual,
    solve_soliton_constants,
    soliton_residual,
    torse_forming_constants,
    xi_consequence_suite,
)
from .symexpr import DegenerateEvaluationError, Expr
from .tensor import DegenerateMetricError, TensorField, contract, signature_at

__all__ = ["Analysis", "run_command", "COMMANDS"]

# hypotheses of the torse-forming constants theorem, over the facts cmd_torse passes
ETA_EINSTEIN_TORSE = Need(
    lambda h: h.torse.forming
    and h.torse.f.as_rational_constant() is not None
    and h.constants is not None
    and h.constants.b == 0
    and h.pair is not None,
    "needs torse-forming xi with constant f, an eta-Einstein fit (b = 0) "
    "and declared soliton constants",
)
DECLARED_SOLITON = Need(
    lambda h: h.declared_soliton().is_zero(),
    "soliton equation does not hold exactly at the declared constants",
)


class Analysis:
    """Shared state for the command pipelines over one manifest."""

    def __init__(self, manifest: Manifest, cfg: OracleConfig):
        self.manifest = manifest
        self.cfg = cfg
        self.structure: ParacontactStructure = manifest.structure()
        self._points: list[dict[str, float]] | None = None

    # -- shared lazies ---------------------------------------------------------

    def sample_points(self) -> list[dict[str, float]]:
        if self._points is None:
            det = self.structure.metric.determinant

            def reject(point: dict[str, float]) -> bool:
                try:
                    return abs(det.evaluate(point)) < DEGENERACY_CUTOFF
                except DegenerateEvaluationError:
                    return True

            self._points = self.manifest.chart.sample_points(
                SAMPLE_COUNT, self.cfg.seed, reject=reject
            )
        return self._points

    @cached_property
    def fit(self) -> EinsteinFitResult | RankDeficientError | None:
        """The Einstein-like fit, the error of a rank-deficient design, or None without a frame."""
        if self.structure.frame is None:
            return None
        try:
            return einstein_like_fit(self.structure)
        except RankDeficientError as exc:
            return exc

    @property
    def fit_constants(self) -> EinsteinLikeConstants | None:
        """The constants of an exact Einstein-like fit, or None."""
        fit = self.fit
        return fit.constants if isinstance(fit, EinsteinFitResult) and fit.ok else None

    @cached_property
    def torse(self) -> TorseFormingData:
        return detect_torse_forming(self.structure)

    def soliton_constants(self) -> tuple[Fraction, Fraction] | None:
        constants = self.manifest.constants
        if "lambda" in constants and "mu" in constants:
            return constants["lambda"], constants["mu"]
        return None

    @cached_property
    def potential(self) -> TensorField | None:
        """The manifest's potential field, built once so its Lie derivative is cached."""
        spec = self.manifest.potential
        return None if spec is None else spec.vector(self.structure)

    def potential_is_xi(self) -> bool:
        spec = self.manifest.potential
        return spec is not None and (
            spec.kind == "xi" or (self.potential - self.structure.xi).is_zero()
        )

    def new_report(self) -> VerificationReport:
        report = VerificationReport(
            name=self.manifest.name, ricci_mode=self.structure.ricci_mode, seed=self.cfg.seed
        )
        report.constants["epsilon"] = self.structure.epsilon
        return report


def _command(body):
    """A command from a body that sets report constants and returns its outcomes in order."""

    @wraps(body)
    def command(analysis: Analysis) -> VerificationReport:
        report = analysis.new_report()
        report.extend_outcomes(body(analysis, report), analysis.sample_points())
        return report

    return command


def _note(check_id: str, details: str) -> CheckOutcome:
    """A passing informational entry with no symbolic verdict."""
    return CheckOutcome(check_id, PASS, details=details)


def _sampled(exprs: list[Expr], points: list[dict[str, float]]) -> np.ndarray:
    """Each expression at every point; the first (point, expression) flagged raises its error."""
    values, degenerate = PointBatch(exprs[0].chart, points).evaluate(exprs)
    for p, e in np.argwhere(degenerate.T)[:1]:
        exprs[e].evaluate(points[p])
    return values


# ---------------------------------------------------------------------------
# individual commands
# ---------------------------------------------------------------------------


@_command
def cmd_validate(analysis: Analysis, report: VerificationReport) -> list[CheckOutcome]:
    structure, eps = analysis.structure, analysis.structure.epsilon
    det = structure.metric.determinant
    declared = "" if analysis.manifest.epsilon is None else ", matches declared value"
    outcomes = (
        validate_axioms(structure)
        + [
            _note(
                "epsilon_detected",
                "epsilon = %+d (%s xi)%s" % (eps, "spacelike" if eps > 0 else "timelike", declared),
            )
        ]
        + validate_metric_compat(structure)
        + [_note("metric_determinant", "det g = %s" % det)]
    )
    if det.as_rational_constant() is None and not det.provably_nonvanishing():
        outcomes.append(
            _note(
                "degeneracy_locus",
                "determinant is nonconstant; the metric degenerates where %s = 0 "
                "and the signature is reported per point only" % det,
            )
        )
    chart = analysis.manifest.chart
    base = {name: float(value) for name, value in zip(chart.coordinates, chart.base_point)}
    try:
        signature = signature_at(structure.metric, base)
    except DegenerateMetricError as exc:
        return outcomes + [CheckOutcome("signature_base_point", FAIL, details=str(exc))]
    return outcomes + [
        _note(
            "signature_base_point",
            "(n_plus, n_minus) = (%d, %d), index %d at the base point"
            % (signature.n_plus, signature.n_minus, signature.index),
        )
    ]


def _frame_diagonal_details(structure: ParacontactStructure, tensor: TensorField) -> str:
    parts = []
    for i, vec in enumerate(structure.frame):
        total = contract("ab,a,b->", tensor, vec, vec)
        constant = total.as_rational_constant()
        parts.append("S(E%d,E%d)=%s" % (i + 1, i + 1, constant if constant is not None else total))
    return ", ".join(parts)


@_command
def cmd_curvature(analysis: Analysis, report: VerificationReport) -> list[CheckOutcome]:
    structure = analysis.structure
    mode = structure.ricci_mode
    gamma = structure.connection()
    riem = structure.riemann()
    ricci_tensor = structure.ricci()
    # separate tables, so the Riemann-sized zero residuals are dropped before the
    # semi-symmetry residual is built
    outcomes = run_checks([
        Check("christoffel_torsion_free", "Gamma^k_ij = Gamma^k_ji",
              contract("kij-kji->kij", gamma, gamma)),
        Check("metric_compatibility", "nabla g = 0",
              covariant_derivative(structure.metric.field, gamma)),
        Check("riemann_antisymmetry", "R(X,Y)Z + R(Y,X)Z = 0",
              contract("lijk+ljik->lijk", riem, riem)),
        Check("riemann_first_bianchi", "R(X,Y)Z + R(Y,Z)X + R(Z,X)Y = 0",
              contract("lijk+ljki+lkij->lijk", riem, riem, riem)),
        Check("ricci_symmetric", "S(X,Y) = S(Y,X)",
              contract("jk-kj->jk", ricci_tensor, ricci_tensor)),
    ])
    if structure.frame is not None:
        signs = structure.frame_signs()
        outcomes += run_checks([
            Check("ricci_frame_independence",
                  "coordinate trace equals the signature-weighted frame sum",
                  structure.ricci(WEIGHTED_TRACE)
                  - frame_sum(riem, structure.metric, structure.frame, signs)),
            _note("ricci_frame_diagonal",
                  "%s [%s]" % (_frame_diagonal_details(structure, ricci_tensor), mode)),
        ])
    scalar = scalar_curvature(ricci_tensor, structure.metric)
    scalar_constant = scalar.as_rational_constant()
    via_coordinates, via_connection = structure.lie_derivative_two_ways(
        analysis.potential or structure.xi
    )
    return outcomes + run_checks([
        _note("scalar_curvature",
              "r = %s [%s]" % (scalar_constant if scalar_constant is not None else scalar, mode)),
        Check("lie_derivative_dual_formula", "coordinate and connection formulas for L_V g agree",
              via_coordinates - via_connection),
        Check("ricci_semi_symmetry", ("R(xi, .) . S = 0 holds", "R(xi, .) . S != 0"),
              semi_symmetry_residual(structure, ricci_tensor), rule=CLASSIFICATION),
    ])


@_command
def cmd_sasakian(analysis: Analysis, report: VerificationReport) -> list[CheckOutcome]:
    if not structure_is_valid(analysis.structure):
        return [
            inapplicable(
                "para_sasakian_nabla_phi",
                "structure fails the almost paracontact axioms; run validate",
            ),
            inapplicable("para_sasakian_nabla_xi", "structure fails the axioms"),
        ]
    return is_para_sasakian(analysis.structure) + sasakian_identity_suite(analysis.structure)


@_command
def cmd_einstein_fit(analysis: Analysis, report: VerificationReport) -> list[CheckOutcome]:
    structure, fit = analysis.structure, analysis.fit
    if fit is None:
        return [inapplicable("einstein_fit", "no orthonormal frame in the manifest")]
    if isinstance(fit, RankDeficientError):
        return [CheckOutcome("einstein_fit", FAIL, details="rank-deficient design: %s" % fit)]
    a, b, c = fit.constants.a, fit.constants.b, fit.constants.c
    if not fit.ok:
        return [
            CheckOutcome(
                "einstein_fit",
                FAIL,
                symbolic_zero=False,
                residual=fit.residual,
                details="best constants (%s, %s, %s) leave component %r = %s nonzero"
                % (a, b, c, fit.witness_index, fit.witness_residual),
            )
        ]
    report.constants.update(a=a, b=b, c=c)
    pair = analysis.soliton_constants()
    soliton = SolitonData(structure.xi, *pair) if pair and analysis.potential_is_xi() else None
    fitted = CheckOutcome(
        "einstein_fit",
        PASS,
        symbolic_zero=True,
        details="S = a g + b g(phi .,.) + c eta(x)eta with (a, b, c) = (%s, %s, %s) [%s]"
        % (a, b, c, structure.ricci_mode),
    )
    return [fitted] + einstein_like_suite(
        structure, fit.constants, soliton=soliton, torse=analysis.torse
    )


@_command
def cmd_soliton_check(analysis: Analysis, report: VerificationReport) -> list[CheckOutcome]:
    structure = analysis.structure
    potential = analysis.potential
    pair = analysis.soliton_constants()
    if potential is None or pair is None:
        return [
            inapplicable(
                "soliton_residual_zero",
                "manifest must provide a potential and constants lambda, mu",
            )
        ]
    lam, mu = pair
    report.constants.update({"lambda": lam, "mu": mu})
    outcomes = run_checks([
        Check("soliton_residual_zero", "1/2 L_V g + S + lambda g + mu eta(x)eta = 0 with "
              "(lambda, mu) = (%s, %s) [%s]" % (lam, mu, structure.ricci_mode),
              soliton_residual(structure, SolitonData(potential, lam, mu))),
    ])
    if not analysis.potential_is_xi():
        return outcomes
    return outcomes + xi_consequence_suite(structure, lam, mu, constants=analysis.fit_constants)


@_command
def cmd_soliton_solve(analysis: Analysis, report: VerificationReport) -> list[CheckOutcome]:
    structure = analysis.structure
    potential = analysis.potential
    if potential is None or structure.frame is None:
        return [
            inapplicable(
                "soliton_solve",
                "solving needs a potential and an orthonormal frame in the manifest",
            )
        ]
    result = solve_soliton_constants(structure, potential)
    report.constants.update({"lambda": result.lam, "mu": result.mu})
    diag = ", ".join(
        str(c) if c is not None else str(e)
        for c, e in zip(result.frame_diagonal_constants, result.frame_diagonal)
    )
    # guard against base-point coincidences: the same fit in floats at the sample points
    points = analysis.sample_points()
    guard, guard_details = INAPPLICABLE, "no nondegenerate sample points found in the domain box"
    if points:
        values = _sampled([e for pair in result.frame_pairs for e in pair], points)
        rows = np.stack([values[0::3].T.ravel(), values[1::3].T.ravel()], axis=1)
        solution, *_ = np.linalg.lstsq(rows, -values[2::3].T.ravel(), rcond=None)
        deviation = float(max(abs(solution - [float(result.lam), float(result.mu)])))
        guard = PASS if deviation <= 1e-8 else FAIL
        guard_details = "stacked least squares over %d extra seeded points deviates by %.3e" % (
            len(points), deviation
        )
    return [
        CheckOutcome(
            "soliton_solve",
            PASS,
            symbolic_zero=result.exact,
            details="%s solution (lambda, mu) = (%s, %s) [%s]"
            % (
                "exact" if result.exact else "least-squares",
                result.lam,
                result.mu,
                structure.ricci_mode,
            ),
        ),
        CheckOutcome(
            "soliton_exactness",
            PASS if result.exact else FAIL,
            symbolic_zero=result.exact,
            residual=result.residual,
            details="residual frame diagonal (%s), norm %.12g" % (diag, result.residual_norm),
        ),
        CheckOutcome("soliton_base_point_guard", guard, details=guard_details),
    ]


@_command
def cmd_torse(analysis: Analysis, report: VerificationReport) -> list[CheckOutcome]:
    structure = analysis.structure
    torse = analysis.torse
    report.constants["classification"] = torse.classification
    details = "classification: %s" % torse.classification
    if torse.f is not None:
        report.constants.update(f=torse.f, regular=torse.regular)
        details += "; f = %s; w = -f eta; regular = %s" % (torse.f, torse.regular)
    if torse.note:
        details += "; " + torse.note
    if torse.regular and torse.regularity.as_rational_constant() is None:
        values = _sampled([torse.regularity], analysis.sample_points()[:5])[0]
        details += "; f^2 + xi(f) = %s is nonconstant; sampled values: %s" % (
            torse.regularity, ", ".join("%.4g" % v for v in values.tolist())
        )
    outcomes = [_note("torse_classification", details)]

    constants, pair = analysis.fit_constants, analysis.soliton_constants()
    a_plus_lambda = None
    if torse.forming and constants is not None and pair is not None:
        candidate = constants.a + pair[0]
        if (torse.f + candidate).is_symbolically_zero:
            a_plus_lambda = candidate
    lam, mu = pair or (None, None)

    def consistency() -> tuple:
        c_expected, mu_expected, check = torse_forming_constants(
            constants.a, lam, structure.epsilon, structure.chart.dimension
        )
        consistent = check == 0 and c_expected == constants.c and mu_expected == mu
        return consistent, c_expected, mu_expected, constants.a, lam, constants.c, mu, check

    return outcomes + curvature_from_torse_forming(
        structure, torse, a_plus_lambda=a_plus_lambda
    ) + run_checks(
        [
            Check("torse_constants_consistency",
                  "induced (c, mu) = (%s, %s) from (a, lambda) = (%s, %s); "
                  "fitted (c, mu) = (%s, %s); eps(a+lambda)+c+mu = %s",
                  consistency, (ETA_EINSTEIN_TORSE, DECLARED_SOLITON), FACT),
        ],
        torse=torse,
        constants=constants,
        pair=pair,
        declared_soliton=lambda: soliton_residual(structure, SolitonData(structure.xi, lam, mu)),
    )


@_command
def cmd_collinear(analysis: Analysis, report: VerificationReport) -> list[CheckOutcome]:
    spec = analysis.manifest.potential
    pair = analysis.soliton_constants()
    if spec is None or spec.kind == "components" or pair is None:
        return [
            inapplicable(
                "collinear_gate",
                "needs a potential of the form xi or k*xi and constants lambda, mu",
            )
        ]
    lam, mu = pair
    report.constants.update({"lambda": lam, "mu": mu})
    return collinear_potential_analysis(
        analysis.structure, spec.k_expr(analysis.manifest.chart), lam, mu
    )


@_command
def cmd_parallel(analysis: Analysis, report: VerificationReport) -> list[CheckOutcome]:
    structure = analysis.structure
    outcomes = []
    if analysis.manifest.alpha is not None:
        outcomes += parallel_tensor_check(
            structure, analysis.manifest.alpha, torse=analysis.torse, prefix="alpha"
        )
    mu = analysis.manifest.constants.get("mu")
    if mu is not None:
        combo = structure.soliton_tensor(structure.xi) + structure.eta_tensor_eta().scale(mu)
        outcomes += parallel_tensor_check(
            structure,
            combo,
            mu_link=mu,
            constants=analysis.fit_constants,
            torse=analysis.torse,
            prefix="soliton_alpha",
        )
    if not outcomes:
        outcomes.append(
            inapplicable(
                "alpha_nabla_alpha",
                "manifest provides neither an alpha tensor nor a mu constant",
            )
        )
    return outcomes


def _deviation_text(value: float) -> str:
    return "%.3e" % value if math.isfinite(value) else "non-finite (%s)" % value


@_command
def cmd_oracle(analysis: Analysis, report: VerificationReport) -> list[CheckOutcome]:
    structure = analysis.structure
    cfg = analysis.cfg
    metric = structure.metric
    points = oracle_sample_points(structure.chart, metric, cfg)
    if not points:
        return [
            CheckOutcome(
                "oracle_christoffel",
                FAIL,
                details="no nondegenerate sample points found in the domain box",
            )
        ]

    def compared(check_id: str, deviation: float) -> CheckOutcome:
        return CheckOutcome(
            check_id,
            PASS if deviation <= cfg.tolerance else FAIL,
            details="max relative deviation %s over %d points (tolerance %.1e, h = %.1e)"
            % (_deviation_text(deviation), len(points), cfg.tolerance, cfg.h),
        )

    gamma = structure.connection()
    stencil = StencilSampler(metric, cfg.h)
    # a degenerate Christoffel stencil raises: the step-halving check needs this comparison
    at_h = compare(gamma, stencil.christoffel, points)
    outcomes = [compared("oracle_christoffel", at_h)]
    for check_id, symbolic, oracle_fn in (
        ("oracle_riemann", structure.riemann(), stencil.riemann),
        ("oracle_ricci", structure.ricci(WEIGHTED_TRACE), stencil.ricci),
    ):
        try:
            outcomes.append(compared(check_id, compare(symbolic, oracle_fn, points)))
        except StencilDegeneracyError as exc:
            outcomes.append(CheckOutcome(check_id, FAIL, details=str(exc)))

    at_half_h = compare(gamma, stencil.christoffel_half_step, points)
    if not (math.isfinite(at_h) and math.isfinite(at_half_h)):
        outcomes.append(
            CheckOutcome(
                "oracle_h_scaling",
                FAIL,
                details="the Christoffel deviation is %s at h and %s at h/2"
                % (_deviation_text(at_h), _deviation_text(at_half_h)),
            )
        )
    elif at_h < 1e-10:
        outcomes.append(
            inapplicable(
                "oracle_h_scaling",
                "deviation %.3e is already at the roundoff floor; O(h^2) ratio is not "
                "informative" % at_h,
            )
        )
    else:
        ratio = at_h / max(at_half_h, 1e-300)
        outcomes.append(
            CheckOutcome(
                "oracle_h_scaling",
                PASS if 3.0 <= ratio <= 5.0 else FAIL,
                details="halving h changed the Christoffel deviation by a factor %.3f "
                "(expected in [3, 5] for a central O(h^2) scheme)" % ratio,
            )
        )

    via_coordinates, via_connection = structure.lie_derivative_two_ways(
        analysis.potential or structure.xi
    )
    batch = PointBatch(structure.chart, points)
    one, one_flags = via_coordinates.numeric_many(batch)
    other, other_flags = via_connection.numeric_many(batch)
    for p in np.flatnonzero(one_flags | other_flags)[:1]:  # raise the one-point error there
        via_coordinates.numeric_at(points[p])
        via_connection.numeric_at(points[p])
    with np.errstate(all="ignore"):
        worst = max_deviation(np.abs(one - other).reshape(len(points), -1).max(axis=1).tolist())
    outcomes.append(
        CheckOutcome(
            "oracle_lie_dual",
            PASS if worst <= cfg.tolerance else FAIL,
            details="coordinate vs connection Lie derivative deviate by %s numerically"
            % _deviation_text(worst),
        )
    )
    return outcomes


def cmd_report_all(analysis: Analysis) -> VerificationReport:
    # the oracle runs last; an input error there must not wait for the rest
    require_step_fits(analysis.structure.chart, analysis.cfg)
    report = analysis.new_report()
    for command in (
        cmd_validate,
        cmd_curvature,
        cmd_sasakian,
        cmd_einstein_fit,
        cmd_soliton_check,
        cmd_soliton_solve,
        cmd_torse,
        cmd_collinear,
        cmd_parallel,
        cmd_oracle,
    ):
        partial = command(analysis)
        report.checks.extend(partial.checks)
        for key, value in partial.constants.items():
            report.constants.setdefault(key, value)
    return report


COMMANDS = {
    "validate": cmd_validate,
    "curvature": cmd_curvature,
    "sasakian": cmd_sasakian,
    "einstein-fit": cmd_einstein_fit,
    "soliton-check": cmd_soliton_check,
    "soliton-solve": cmd_soliton_solve,
    "torse": cmd_torse,
    "collinear": cmd_collinear,
    "parallel": cmd_parallel,
    "oracle": cmd_oracle,
    "report": cmd_report_all,
}


def run_command(command: str, manifest: Manifest, cfg: OracleConfig) -> VerificationReport:
    analysis = Analysis(manifest, cfg)
    try:
        handler = COMMANDS[command]
    except KeyError:
        raise ManifestError("unknown command %r" % command) from None
    return handler(analysis)
