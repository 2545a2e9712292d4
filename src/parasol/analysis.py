"""Analysis orchestration: one verb per concern, composable into a full report.

Each command function takes a loaded manifest plus run options and returns a
:class:`~parasol.report.VerificationReport`.  Applicability is data driven:
operations whose inputs are missing from the manifest (no frame, no
potential, no constants) contribute inapplicable entries rather than errors,
so ``report --all`` is total on any valid manifest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .checks import CheckOutcome, FAIL, PASS, inapplicable, residual_outcome
from .connection import (
    PAPER_FRAME_SUM,
    WEIGHTED_TRACE,
    covariant_derivative,
    scalar_curvature,
)
from .manifest import Manifest, ManifestError
from .oracle import (
    CompareReport,
    OracleConfig,
    StencilDegeneracyError,
    StencilSampler,
    compare,
    max_deviation,
    oracle_sample_points,
)
from .paracontact import (
    ParacontactStructure,
    is_para_sasakian,
    sasakian_identity_suite,
    structure_is_valid,
    validate_axioms,
    validate_metric_compat,
)
from .report import VerificationReport, entry_from_outcome
from .solitons import (
    NOT_TORSE_FORMING,
    EinsteinFitResult,
    RankDeficientError,
    SolitonData,
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
from .tensor import DegenerateMetricError, TensorField, signature_at

__all__ = ["RunOptions", "Analysis", "run_command", "COMMANDS"]


@dataclass(frozen=True)
class RunOptions:
    ricci_mode: str | None = None
    seed: int = 42
    h: float = 1e-4
    tolerance: float = 1e-6
    sample_count: int = 10


class Analysis:
    """Shared state for the command pipelines over one manifest."""

    def __init__(self, manifest: Manifest, options: RunOptions):
        self.manifest = manifest
        self.options = options
        self.structure: ParacontactStructure = manifest.structure()
        mode = options.ricci_mode or manifest.ricci_mode or WEIGHTED_TRACE
        if mode == PAPER_FRAME_SUM and manifest.frame is None:
            raise ManifestError("ricci_mode paper_frame_sum requires a frame in the manifest")
        self.ricci_mode = mode
        self.oracle_cfg = OracleConfig(
            h=options.h,
            sample_count=options.sample_count,
            seed=options.seed,
            tolerance=options.tolerance,
        )
        self._points: list[dict[str, float]] | None = None
        self._para_sasakian: bool | None = None
        self._fit: EinsteinFitResult | None = None
        self._fit_done = False
        self._torse = None
        self._torse_done = False
        self._potential: TensorField | None = None

    # -- shared lazies ---------------------------------------------------------

    def sample_points(self) -> list[dict[str, float]]:
        if self._points is None:
            det = self.structure.metric.determinant

            def reject(point: dict[str, float]) -> bool:
                try:
                    return abs(det.evaluate(point)) < 1e-6
                except DegenerateEvaluationError:
                    return True

            self._points = self.manifest.chart.sample_points(
                self.options.sample_count, self.options.seed, reject=reject
            )
        return self._points

    def structure_valid(self) -> bool:
        return structure_is_valid(self.structure)

    def para_sasakian(self) -> bool:
        if self._para_sasakian is None:
            if not self.structure_valid():
                self._para_sasakian = False
            else:
                outcomes = is_para_sasakian(self.structure)
                self._para_sasakian = all(o.status == PASS for o in outcomes)
        return self._para_sasakian

    def fit(self) -> EinsteinFitResult | None:
        if not self._fit_done:
            self._fit_done = True
            if self.manifest.frame is None:
                self._fit = None
            else:
                try:
                    self._fit = einstein_like_fit(self.structure, self.ricci_mode)
                except RankDeficientError:
                    self._fit = None
        return self._fit

    def torse(self):
        if not self._torse_done:
            self._torse_done = True
            self._torse = detect_torse_forming(self.structure, sample_seed=self.options.seed)
        return self._torse

    def soliton_constants(self) -> tuple[Fraction, Fraction] | None:
        constants = self.manifest.constants
        if "lambda" in constants and "mu" in constants:
            return constants["lambda"], constants["mu"]
        return None

    def potential_vector(self) -> TensorField | None:
        """The manifest's potential field, built once so its Lie derivative is cached."""
        if self.manifest.potential is None:
            return None
        if self._potential is None:
            self._potential = self.manifest.potential.vector(self.structure)
        return self._potential

    def potential_is_xi(self) -> bool:
        spec = self.manifest.potential
        if spec is None:
            return False
        if spec.kind == "xi":
            return True
        return (self.potential_vector() - self.structure.xi).is_zero()

    def new_report(self) -> VerificationReport:
        report = VerificationReport(
            name=self.manifest.name, ricci_mode=self.ricci_mode, seed=self.options.seed
        )
        report.set_constant("epsilon", self.structure.epsilon)
        return report

    def extend(self, report: VerificationReport, outcomes) -> None:
        report.extend_outcomes(outcomes, self.sample_points())


# ---------------------------------------------------------------------------
# individual commands
# ---------------------------------------------------------------------------


def cmd_validate(analysis: Analysis) -> VerificationReport:
    report = analysis.new_report()
    structure = analysis.structure
    analysis.extend(report, validate_axioms(structure))
    report.add(
        entry_from_outcome(
            CheckOutcome(
                "epsilon_detected",
                PASS,
                symbolic_zero=None,
                details="epsilon = %+d (%s xi)%s"
                % (
                    structure.epsilon,
                    "spacelike" if structure.epsilon > 0 else "timelike",
                    "" if analysis.manifest.epsilon is None else ", matches declared value",
                ),
            ),
            analysis.sample_points(),
        )
    )
    analysis.extend(report, validate_metric_compat(structure))

    det = structure.metric.determinant
    det_constant = det.as_rational_constant()
    det_details = "det g = %s" % det
    report.add(
        entry_from_outcome(
            CheckOutcome("metric_determinant", PASS, symbolic_zero=None, details=det_details),
            analysis.sample_points(),
        )
    )
    if det_constant is None and not det.provably_nonvanishing():
        report.add(
            entry_from_outcome(
                CheckOutcome(
                    "degeneracy_locus",
                    PASS,
                    symbolic_zero=None,
                    details="determinant is nonconstant; the metric degenerates where %s = 0 "
                    "and the signature is reported per point only" % det,
                ),
                analysis.sample_points(),
            )
        )
    base = {
        name: float(value)
        for name, value in zip(analysis.manifest.chart.coordinates, analysis.manifest.chart.base_point)
    }
    try:
        signature = signature_at(structure.metric, base)
        report.add(
            entry_from_outcome(
                CheckOutcome(
                    "signature_base_point",
                    PASS,
                    symbolic_zero=None,
                    details="(n_plus, n_minus) = (%d, %d), index %d at the base point"
                    % (signature.n_plus, signature.n_minus, signature.index),
                ),
                analysis.sample_points(),
            )
        )
    except DegenerateMetricError as exc:
        report.add(
            entry_from_outcome(
                CheckOutcome("signature_base_point", FAIL, details=str(exc)),
                analysis.sample_points(),
            )
        )
    return report


def _frame_diagonal_details(structure: ParacontactStructure, tensor: TensorField) -> str:
    parts = []
    for i, vec in enumerate(structure.frame):
        total = Expr.zero(structure.chart)
        for a in range(structure.chart.dimension):
            for b in range(structure.chart.dimension):
                total = total + tensor[a, b] * vec[a] * vec[b]
        constant = total.as_rational_constant()
        parts.append("S(E%d,E%d)=%s" % (i + 1, i + 1, constant if constant is not None else total))
    return ", ".join(parts)


def cmd_curvature(analysis: Analysis) -> VerificationReport:
    report = analysis.new_report()
    structure = analysis.structure
    chart = structure.chart
    n = chart.dimension
    conn = structure.connection()
    gamma = conn.gamma
    riem = structure.riemann()

    torsion = TensorField.build(
        chart, 1, 2, lambda idx: gamma[idx[0], idx[1], idx[2]] - gamma[idx[0], idx[2], idx[1]]
    )
    outcomes = [residual_outcome("christoffel_torsion_free", torsion, "Gamma^k_ij = Gamma^k_ji")]
    outcomes.append(
        residual_outcome(
            "metric_compatibility",
            covariant_derivative(structure.metric.field, conn),
            "nabla g = 0",
        )
    )
    antisym = TensorField.build(
        chart,
        1,
        3,
        lambda idx: riem[idx[0], idx[1], idx[2], idx[3]] + riem[idx[0], idx[2], idx[1], idx[3]],
    )
    outcomes.append(residual_outcome("riemann_antisymmetry", antisym, "R(X,Y)Z + R(Y,X)Z = 0"))
    bianchi = TensorField.build(
        chart,
        1,
        3,
        lambda idx: riem[idx[0], idx[1], idx[2], idx[3]]
        + riem[idx[0], idx[2], idx[3], idx[1]]
        + riem[idx[0], idx[3], idx[1], idx[2]],
    )
    outcomes.append(
        residual_outcome("riemann_first_bianchi", bianchi, "R(X,Y)Z + R(Y,Z)X + R(Z,X)Y = 0")
    )
    ricci_tensor = structure.ricci(analysis.ricci_mode)
    outcomes.append(
        residual_outcome(
            "ricci_symmetric", ricci_tensor - ricci_tensor.swap_down(0, 1), "S(X,Y) = S(Y,X)"
        )
    )
    analysis.extend(report, outcomes)

    if structure.frame is not None:
        signs = structure.frame_signs()
        weighted = structure.ricci(WEIGHTED_TRACE)

        def frame_weighted(idx):
            j, k = idx
            total = Expr.zero(chart)
            for sign, vec in zip(signs, structure.frame):
                for a in range(n):
                    for l in range(n):
                        for m in range(n):
                            total = (
                                total
                                + Fraction(sign)
                                * vec[a]
                                * riem[l, a, j, k]
                                * structure.metric[l, m]
                                * vec[m]
                            )
            return total

        frame_sum = TensorField.build(chart, 0, 2, frame_weighted)
        analysis.extend(
            report,
            [
                residual_outcome(
                    "ricci_frame_independence",
                    weighted - frame_sum,
                    "coordinate trace equals the signature-weighted frame sum",
                )
            ],
        )
        report.add(
            entry_from_outcome(
                CheckOutcome(
                    "ricci_frame_diagonal",
                    PASS,
                    symbolic_zero=None,
                    details="%s [%s]"
                    % (_frame_diagonal_details(structure, ricci_tensor), analysis.ricci_mode),
                ),
                analysis.sample_points(),
            )
        )

    scalar = scalar_curvature(ricci_tensor, structure.metric)
    scalar_constant = scalar.as_rational_constant()
    report.add(
        entry_from_outcome(
            CheckOutcome(
                "scalar_curvature",
                PASS,
                symbolic_zero=None,
                details="r = %s [%s]"
                % (scalar_constant if scalar_constant is not None else scalar, analysis.ricci_mode),
            ),
            analysis.sample_points(),
        )
    )

    direction = analysis.potential_vector() or structure.xi
    via_coordinates, via_connection = structure.lie_derivative_two_ways(direction)
    analysis.extend(
        report,
        [
            residual_outcome(
                "lie_derivative_dual_formula",
                via_coordinates - via_connection,
                "coordinate and connection formulas for L_V g agree",
            )
        ],
    )

    semi = semi_symmetry_residual(structure, riem, ricci_tensor)
    semi_zero = semi.is_zero()
    analysis.extend(
        report,
        [
            CheckOutcome(
                "ricci_semi_symmetry",
                PASS,
                symbolic_zero=semi_zero,
                residual=semi,
                details="R(xi, .) . S = 0 holds" if semi_zero else "R(xi, .) . S != 0",
            )
        ],
    )
    return report


def cmd_sasakian(analysis: Analysis) -> VerificationReport:
    report = analysis.new_report()
    if not analysis.structure_valid():
        analysis.extend(
            report,
            [
                inapplicable(
                    "para_sasakian_nabla_phi",
                    "structure fails the almost paracontact axioms; run validate",
                ),
                inapplicable("para_sasakian_nabla_xi", "structure fails the axioms"),
            ],
        )
        return report
    analysis.extend(report, is_para_sasakian(analysis.structure))
    curvature = analysis.structure.curvature(WEIGHTED_TRACE)
    analysis.extend(report, sasakian_identity_suite(analysis.structure, curvature))
    return report


def cmd_einstein_fit(analysis: Analysis) -> VerificationReport:
    report = analysis.new_report()
    structure = analysis.structure
    if structure.frame is None:
        analysis.extend(
            report,
            [inapplicable("einstein_fit", "no orthonormal frame in the manifest")],
        )
        return report
    try:
        fit = einstein_like_fit(structure, analysis.ricci_mode)
    except RankDeficientError as exc:
        analysis.extend(
            report,
            [CheckOutcome("einstein_fit", FAIL, details="rank-deficient design: %s" % exc)],
        )
        return report
    if fit.ok:
        constants = fit.constants
        report.set_constant("a", constants.a)
        report.set_constant("b", constants.b)
        report.set_constant("c", constants.c)
        analysis.extend(
            report,
            [
                CheckOutcome(
                    "einstein_fit",
                    PASS,
                    symbolic_zero=True,
                    details="S = a g + b g(phi .,.) + c eta(x)eta with (a, b, c) = (%s, %s, %s) [%s]"
                    % (constants.a, constants.b, constants.c, analysis.ricci_mode),
                )
            ],
        )
    else:
        analysis.extend(
            report,
            [
                CheckOutcome(
                    "einstein_fit",
                    FAIL,
                    symbolic_zero=False,
                    residual=fit.residual,
                    details="best constants (%s, %s, %s) leave component %r = %s nonzero"
                    % (
                        fit.constants.a,
                        fit.constants.b,
                        fit.constants.c,
                        fit.witness_index,
                        fit.witness_residual,
                    ),
                )
            ],
        )
        return report
    soliton = None
    pair = analysis.soliton_constants()
    if pair is not None and analysis.potential_is_xi():
        soliton = SolitonData(structure.xi, pair[0], pair[1])
    analysis.extend(
        report,
        einstein_like_suite(
            structure,
            fit.constants,
            analysis.ricci_mode,
            para_sasakian=analysis.para_sasakian(),
            soliton=soliton,
            torse=analysis.torse(),
        ),
    )
    return report


def cmd_soliton_check(analysis: Analysis) -> VerificationReport:
    report = analysis.new_report()
    structure = analysis.structure
    potential = analysis.potential_vector()
    pair = analysis.soliton_constants()
    if potential is None or pair is None:
        analysis.extend(
            report,
            [
                inapplicable(
                    "soliton_residual_zero",
                    "manifest must provide a potential and constants lambda, mu",
                )
            ],
        )
        return report
    lam, mu = pair
    report.set_constant("lambda", lam)
    report.set_constant("mu", mu)
    data = SolitonData(potential, lam, mu)
    residual = soliton_residual(structure, data, analysis.ricci_mode)
    zero = residual.is_zero()
    analysis.extend(
        report,
        [
            CheckOutcome(
                "soliton_residual_zero",
                PASS if zero else FAIL,
                symbolic_zero=zero,
                residual=residual,
                details="1/2 L_V g + S + lambda g + mu eta(x)eta = 0 with "
                "(lambda, mu) = (%s, %s) [%s]" % (lam, mu, analysis.ricci_mode),
            )
        ],
    )
    if analysis.potential_is_xi():
        fit = analysis.fit()
        analysis.extend(
            report,
            xi_consequence_suite(
                structure,
                lam,
                mu,
                constants=fit.constants if fit is not None and fit.ok else None,
                mode=analysis.ricci_mode,
                para_sasakian=analysis.para_sasakian(),
            ),
        )
    return report


def cmd_soliton_solve(analysis: Analysis) -> VerificationReport:
    report = analysis.new_report()
    structure = analysis.structure
    potential = analysis.potential_vector()
    if potential is None or structure.frame is None:
        analysis.extend(
            report,
            [
                inapplicable(
                    "soliton_solve",
                    "solving needs a potential and an orthonormal frame in the manifest",
                )
            ],
        )
        return report
    result = solve_soliton_constants(
        structure,
        potential,
        analysis.ricci_mode,
        guard_seed=analysis.options.seed,
        guard_points=analysis.oracle_cfg.sample_count,
    )
    report.set_constant("lambda", result.lam)
    report.set_constant("mu", result.mu)
    diag = ", ".join(
        str(c) if c is not None else str(e)
        for c, e in zip(result.frame_diagonal_constants, result.frame_diagonal)
    )
    analysis.extend(
        report,
        [
            CheckOutcome(
                "soliton_solve",
                PASS,
                symbolic_zero=result.exact,
                details="%s solution (lambda, mu) = (%s, %s) [%s]"
                % (
                    "exact" if result.exact else "least-squares",
                    result.lam,
                    result.mu,
                    analysis.ricci_mode,
                ),
            ),
            CheckOutcome(
                "soliton_exactness",
                PASS if result.exact else FAIL,
                symbolic_zero=result.exact,
                residual=result.residual,
                details="residual frame diagonal (%s), norm %.12g" % (diag, result.residual_norm),
            ),
            CheckOutcome(
                "soliton_base_point_guard",
                PASS if result.base_point_consistent else FAIL,
                symbolic_zero=result.base_point_consistent,
                details="stacked least squares over %d extra seeded points deviates by %.3e"
                % (analysis.oracle_cfg.sample_count, result.base_point_max_deviation),
            ),
        ],
    )
    return report


def cmd_torse(analysis: Analysis) -> VerificationReport:
    report = analysis.new_report()
    structure = analysis.structure
    torse = analysis.torse()
    report.set_constant("classification", torse.classification)
    if torse.f is not None:
        report.set_constant("f", torse.f)
        report.set_constant("regular", torse.regular)
    details = "classification: %s" % torse.classification
    if torse.f is not None:
        details += "; f = %s; w = -f eta; regular = %s" % (torse.f, torse.regular)
    if torse.note:
        details += "; " + torse.note
    analysis.extend(
        report,
        [CheckOutcome("torse_classification", PASS, symbolic_zero=None, details=details)],
    )

    a_plus_lambda = None
    fit = analysis.fit()
    pair = analysis.soliton_constants()
    if (
        torse.classification != NOT_TORSE_FORMING
        and torse.f is not None
        and fit is not None
        and fit.ok
        and pair is not None
    ):
        candidate = fit.constants.a + pair[0]
        if (torse.f + candidate).is_symbolically_zero:
            a_plus_lambda = candidate
    analysis.extend(
        report,
        curvature_from_torse_forming(
            structure, torse, a_plus_lambda=a_plus_lambda, mode=analysis.ricci_mode
        ),
    )

    if (
        torse.classification != NOT_TORSE_FORMING
        and torse.f is not None
        and torse.f.as_rational_constant() is not None
        and fit is not None
        and fit.ok
        and fit.constants.b == 0
        and pair is not None
    ):
        lam, mu = pair
        data = SolitonData(structure.xi, lam, mu)
        exact_soliton = soliton_residual(structure, data, analysis.ricci_mode).is_zero()
        if exact_soliton:
            c_expected, mu_expected, check = torse_forming_constants(
                fit.constants.a, lam, structure.epsilon, structure.chart.dimension
            )
            consistent = (
                check == 0 and c_expected == fit.constants.c and mu_expected == mu
            )
            analysis.extend(
                report,
                [
                    CheckOutcome(
                        "torse_constants_consistency",
                        PASS if consistent else FAIL,
                        symbolic_zero=consistent,
                        details="induced (c, mu) = (%s, %s) from (a, lambda) = (%s, %s); "
                        "fitted (c, mu) = (%s, %s); eps(a+lambda)+c+mu = %s"
                        % (c_expected, mu_expected, fit.constants.a, lam, fit.constants.c, mu, check),
                    )
                ],
            )
        else:
            analysis.extend(
                report,
                [
                    inapplicable(
                        "torse_constants_consistency",
                        "soliton equation does not hold exactly at the declared constants",
                    )
                ],
            )
    else:
        analysis.extend(
            report,
            [
                inapplicable(
                    "torse_constants_consistency",
                    "needs torse-forming xi with constant f, an eta-Einstein fit (b = 0) "
                    "and declared soliton constants",
                )
            ],
        )
    return report


def cmd_collinear(analysis: Analysis) -> VerificationReport:
    report = analysis.new_report()
    spec = analysis.manifest.potential
    pair = analysis.soliton_constants()
    if spec is None or spec.kind == "components" or pair is None:
        analysis.extend(
            report,
            [
                inapplicable(
                    "collinear_gate",
                    "needs a potential of the form xi or k*xi and constants lambda, mu",
                )
            ],
        )
        return report
    k = spec.k_expr(analysis.manifest.chart)
    lam, mu = pair
    report.set_constant("lambda", lam)
    report.set_constant("mu", mu)
    analysis.extend(
        report,
        collinear_potential_analysis(
            analysis.structure,
            k,
            lam,
            mu,
            mode=analysis.ricci_mode,
            para_sasakian=analysis.para_sasakian(),
        ),
    )
    return report


def cmd_parallel(analysis: Analysis) -> VerificationReport:
    report = analysis.new_report()
    structure = analysis.structure
    ran = False
    if analysis.manifest.alpha is not None:
        ran = True
        analysis.extend(
            report,
            parallel_tensor_check(
                structure,
                analysis.manifest.alpha,
                mode=analysis.ricci_mode,
                torse=analysis.torse(),
                para_sasakian=analysis.para_sasakian(),
                prefix="alpha",
            ),
        )
    mu = analysis.manifest.constants.get("mu")
    if mu is not None:
        ran = True
        half = Expr.constant(structure.chart, "1/2")
        combo = (
            structure.lie_xi_metric().scale(half)
            + structure.ricci(analysis.ricci_mode)
            + structure.eta_tensor_eta().scale(mu)
        )
        fit = analysis.fit()
        analysis.extend(
            report,
            parallel_tensor_check(
                structure,
                combo,
                mode=analysis.ricci_mode,
                mu_link=mu,
                constants=fit.constants if fit is not None and fit.ok else None,
                torse=analysis.torse(),
                para_sasakian=analysis.para_sasakian(),
                prefix="soliton_alpha",
            ),
        )
    if not ran:
        analysis.extend(
            report,
            [
                inapplicable(
                    "alpha_nabla_alpha",
                    "manifest provides neither an alpha tensor nor a mu constant",
                )
            ],
        )
    return report


def _deviation_text(value: float) -> str:
    return "%.3e" % value if math.isfinite(value) else "non-finite (%s)" % value


def cmd_oracle(analysis: Analysis) -> VerificationReport:
    report = analysis.new_report()
    structure = analysis.structure
    cfg = analysis.oracle_cfg
    metric = structure.metric
    points = oracle_sample_points(structure.chart, metric, cfg)
    if not points:
        analysis.extend(
            report,
            [
                CheckOutcome(
                    "oracle_christoffel",
                    FAIL,
                    details="no nondegenerate sample points found in the domain box",
                )
            ],
        )
        return report

    gamma = structure.connection().gamma
    riem = structure.riemann()
    ricci_weighted = structure.ricci(WEIGHTED_TRACE)

    stencil = StencilSampler(metric)
    comparisons = [
        ("oracle_christoffel", gamma, lambda p: stencil.christoffel(p, cfg.h)),
        ("oracle_riemann", riem, lambda p: stencil.riemann(p, cfg.h)),
        ("oracle_ricci", ricci_weighted, lambda p: stencil.ricci(p, cfg.h)),
    ]
    results: dict[str, CompareReport | StencilDegeneracyError] = {}
    for check_id, symbolic, oracle_fn in comparisons:
        try:
            result = results[check_id] = compare(symbolic, oracle_fn, points, cfg)
        except StencilDegeneracyError as exc:
            results[check_id] = exc
            analysis.extend(report, [CheckOutcome(check_id, FAIL, details=str(exc))])
            continue
        analysis.extend(
            report,
            [
                CheckOutcome(
                    check_id,
                    PASS if result.passed else FAIL,
                    symbolic_zero=None,
                    details="max relative deviation %s over %d points (tolerance %.1e, h = %.1e)"
                    % (
                        _deviation_text(result.max_relative_deviation),
                        len(points),
                        cfg.tolerance,
                        cfg.h,
                    ),
                )
            ],
        )

    # the Christoffel comparison at h is the coarse side of the step-halving check
    coarse = results["oracle_christoffel"]
    if isinstance(coarse, StencilDegeneracyError):
        raise coarse
    fine = compare(gamma, lambda p: stencil.christoffel(p, cfg.h / 2.0), points, cfg)
    at_h, at_half_h = coarse.max_relative_deviation, fine.max_relative_deviation
    if not (math.isfinite(at_h) and math.isfinite(at_half_h)):
        analysis.extend(
            report,
            [
                CheckOutcome(
                    "oracle_h_scaling",
                    FAIL,
                    symbolic_zero=None,
                    details="the Christoffel deviation is %s at h and %s at h/2"
                    % (_deviation_text(at_h), _deviation_text(at_half_h)),
                )
            ],
        )
    elif at_h < 1e-10:
        analysis.extend(
            report,
            [
                inapplicable(
                    "oracle_h_scaling",
                    "deviation %.3e is already at the roundoff floor; O(h^2) ratio is not "
                    "informative" % at_h,
                )
            ],
        )
    else:
        ratio = at_h / max(at_half_h, 1e-300)
        analysis.extend(
            report,
            [
                CheckOutcome(
                    "oracle_h_scaling",
                    PASS if 3.0 <= ratio <= 5.0 else FAIL,
                    symbolic_zero=None,
                    details="halving h changed the Christoffel deviation by a factor %.3f "
                    "(expected in [3, 5] for a central O(h^2) scheme)" % ratio,
                )
            ],
        )

    direction = analysis.potential_vector() or structure.xi
    via_coordinates, via_connection = structure.lie_derivative_two_ways(direction)
    with np.errstate(all="ignore"):
        worst = max_deviation(
            [
                float(np.abs(via_coordinates.numeric_at(p) - via_connection.numeric_at(p)).max())
                for p in points
            ]
        )
    analysis.extend(
        report,
        [
            CheckOutcome(
                "oracle_lie_dual",
                PASS if worst <= cfg.tolerance else FAIL,
                symbolic_zero=None,
                details="coordinate vs connection Lie derivative deviate by %s numerically"
                % _deviation_text(worst),
            )
        ],
    )
    return report


def cmd_report_all(analysis: Analysis) -> VerificationReport:
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


def run_command(command: str, manifest: Manifest, options: RunOptions) -> VerificationReport:
    analysis = Analysis(manifest, options)
    try:
        handler = COMMANDS[command]
    except KeyError:
        raise ManifestError("unknown command %r" % command) from None
    return handler(analysis)
