"""Analysis orchestration: one verb per concern, composable into a full report.

An :class:`Analysis` is one run: a loaded manifest, its oracle config and
the run's one :class:`~parasol.report.VerificationReport`.  Each command
takes only the analysis, appends its check outcomes to that report in order
and returns it; ``report --all`` runs every other command on the same
analysis.  A command records report constants through
:meth:`Analysis.record_constants`, and the first value recorded for a key
wins, so ``report --all`` keeps the value of the first command that has one.
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

from .batch import Plan, PointBatch
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
from .connection import WEIGHTED_TRACE, covariant_derivative, frame_sum
from .manifest import Manifest, ManifestError
from .oracle import OracleConfig, compare, max_deviation, oracle_sample_points
from .paracontact import (
    ParacontactStructure,
    is_para_sasakian,
    sasakian_identity_suite,
    structure_is_valid,
    validate_axioms,
    validate_metric_compat,
)
from .report import VerificationReport, constant_text
from .solitons import (
    RankDeficientError,
    SolitonData,
    collinear_potential_analysis,
    curvature_from_torse_forming,
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
NO_POINTS = "no nondegenerate sample points found in the domain box"
# a point where |det g| is at most this fraction of its Hadamard bound prod_i |row_i| is degenerate
DEGENERACY_CUTOFF = 1e-6


class Analysis:
    """One run over one manifest: the state the commands share and the run's report."""

    def __init__(self, manifest: Manifest, cfg: OracleConfig):
        self.manifest = manifest
        self.cfg = cfg
        self.structure: ParacontactStructure = manifest.structure()
        self.report = VerificationReport(
            name=manifest.name, ricci_mode=self.structure.ricci_mode, seed=cfg.seed
        )
        self.record_constants({"epsilon": self.structure.epsilon})
        self._points: list[dict[str, float]] | None = None

    def record_constants(self, constants: dict) -> None:
        """Report constants; a key keeps the first value recorded for it."""
        for key, value in constants.items():
            self.report.constants.setdefault(key, value)

    # -- shared lazies ---------------------------------------------------------

    def sample_points(self) -> list[dict[str, float]]:
        """The run's points, for the report and the oracle alike.

        Each round of candidates is judged by one run of a plan of det g and the
        metric's entries: a candidate is rejected where one is flagged, or unless
        |det g| > ``DEGENERACY_CUTOFF`` * prod_i |row_i|, the Hadamard bound (as
        in ``Frame``), so the rule does not depend on the metric's scale.  The
        row norms are ``math.hypot`` in Python, which adds no numpy routine to
        a run and neither overflows nor underflows on the way.
        """
        if self._points is None:
            chart = self.manifest.chart
            n = chart.dimension
            metric = self.structure.metric
            plan = Plan([metric.determinant, *metric.field._comps])

            def reject(candidates: list[dict[str, float]]) -> list[bool]:
                values, flagged = plan.run(PointBatch(chart, candidates))
                rows = values[1:].T.reshape(-1, n, n).tolist()
                return [
                    drop or not abs(det) > DEGENERACY_CUTOFF * math.prod(math.hypot(*r) for r in g)
                    for drop, det, g in zip(flagged.any(axis=0).tolist(), values[0].tolist(), rows)
                ]

            self._points = chart.sample_points(SAMPLE_COUNT, self.cfg.seed, reject=reject)
        return self._points

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


def _command(body):
    """A command from a body that returns its outcomes in order, appended to the run's report."""

    @wraps(body)
    def command(analysis: Analysis) -> VerificationReport:
        analysis.report.extend_outcomes(body(analysis), analysis.sample_points())
        return analysis.report

    return command


def _note(check_id: str, details: str) -> CheckOutcome:
    """A passing informational entry with no symbolic verdict."""
    return CheckOutcome(check_id, PASS, details=details)


# ---------------------------------------------------------------------------
# individual commands
# ---------------------------------------------------------------------------


@_command
def cmd_validate(analysis: Analysis) -> list[CheckOutcome]:
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
    try:
        signature = signature_at(structure.metric, structure.chart.base_point)
    except DegenerateMetricError as exc:
        return outcomes + [CheckOutcome("signature_base_point", FAIL, details=str(exc))]
    if signature is None:
        return outcomes + [
            inapplicable("signature_base_point", "metric is not finite at the base point")
        ]
    return outcomes + [
        _note(
            "signature_base_point",
            "(n_plus, n_minus) = (%d, %d), index %d at the base point"
            % (signature.n_plus, signature.n_minus, signature.index),
        )
    ]


@_command
def cmd_curvature(analysis: Analysis) -> list[CheckOutcome]:
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
        # riem is exactly antisymmetric in (i, j), so B_ljik = -B_lijk: the mirror is exact
        Check("riemann_first_bianchi", "R(X,Y)Z + R(Y,Z)X + R(Z,X)Y = 0",
              contract("lijk+ljki+lkij->lijk", riem, riem, riem, antisymmetric=(1, 2))),
        Check("ricci_symmetric", "S(X,Y) = S(Y,X)",
              contract("jk-kj->jk", ricci_tensor, ricci_tensor)),
    ])
    if structure.frame is not None:
        signs = structure.frame_signs()
        table = structure.frame_table(ricci_tensor)
        diagonal = ", ".join(
            "S(E%d,E%d)=%s" % (i + 1, i + 1, constant_text(table[i, i])) for i in range(len(signs))
        )
        outcomes += run_checks([
            Check("ricci_frame_independence",
                  "coordinate trace equals the signature-weighted frame sum",
                  structure.ricci(WEIGHTED_TRACE)
                  - frame_sum(riem, structure.metric, structure.frame, signs)),
            _note("ricci_frame_diagonal", "%s [%s]" % (diagonal, mode)),
        ])
    scalar = structure.scalar_curvature()
    via_coordinates, via_connection = structure.lie_derivative_two_ways(
        analysis.potential or structure.xi
    )
    return outcomes + run_checks([
        _note("scalar_curvature",
              "r = %s [%s]" % (constant_text(scalar), mode)),
        Check("lie_derivative_dual_formula", "coordinate and connection formulas for L_V g agree",
              via_coordinates - via_connection),
        Check("ricci_semi_symmetry", ("R(xi, .) . S = 0 holds", "R(xi, .) . S != 0"),
              semi_symmetry_residual(structure, ricci_tensor), rule=CLASSIFICATION),
    ])


@_command
def cmd_sasakian(analysis: Analysis) -> list[CheckOutcome]:
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
def cmd_einstein_fit(analysis: Analysis) -> list[CheckOutcome]:
    structure = analysis.structure
    if structure.frame is None:
        return [inapplicable("einstein_fit", "no orthonormal frame in the manifest")]
    try:
        fit = einstein_like_fit(structure)
    except RankDeficientError as exc:
        return [CheckOutcome("einstein_fit", FAIL, details="rank-deficient design: %s" % exc)]
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
    analysis.record_constants({"a": a, "b": b, "c": c})
    pair = analysis.soliton_constants()
    soliton = SolitonData(structure.xi, *pair) if pair and analysis.potential_is_xi() else None
    fitted = CheckOutcome(
        "einstein_fit",
        PASS,
        symbolic_zero=True,
        details="S = a g + b g(phi .,.) + c eta(x)eta with (a, b, c) = (%s, %s, %s) [%s]"
        % (a, b, c, structure.ricci_mode),
    )
    return [fitted] + einstein_like_suite(structure, fit.constants, soliton=soliton)


@_command
def cmd_soliton_check(analysis: Analysis) -> list[CheckOutcome]:
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
    analysis.record_constants({"lambda": lam, "mu": mu})
    outcomes = run_checks([
        Check("soliton_residual_zero", "1/2 L_V g + S + lambda g + mu eta(x)eta = 0 with "
              "(lambda, mu) = (%s, %s) [%s]" % (lam, mu, structure.ricci_mode),
              soliton_residual(structure, SolitonData(potential, lam, mu))),
    ])
    if not analysis.potential_is_xi():
        return outcomes
    return outcomes + xi_consequence_suite(structure, lam, mu)


@_command
def cmd_soliton_solve(analysis: Analysis) -> list[CheckOutcome]:
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
    analysis.record_constants({"lambda": result.lam, "mu": result.mu})
    diag = ", ".join(map(constant_text, result.frame_diagonal))
    # guard against base-point coincidences: the same fit in floats at the sample points
    points = analysis.sample_points()
    guard, guard_details = INAPPLICABLE, NO_POINTS
    if points:
        pairs = structure.frame.pairs
        values = PointBatch(structure.chart, points).evaluate_or_raise(
            [t[pair] for pair in pairs for t in result.frame_tables]
        )
        # per table, point by point and pair by pair within a point
        g, eta, b = values.reshape(len(pairs), 3, -1).transpose(1, 2, 0).reshape(3, -1)
        solution, *_ = np.linalg.lstsq(np.stack([g, eta], axis=1), -b, rcond=None)
        deviation = float(max(abs(solution - [float(result.lam), float(result.mu)])))
        guard = PASS if deviation <= 1e-8 else FAIL
        guard_details = "stacked least squares over %d extra seeded points deviates by %.3e" % (
            len(points), deviation
        )
    return run_checks([
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
        Check("soliton_exactness",
              "residual frame diagonal (%s), norm %.12g" % (diag, result.residual_norm),
              result.residual),
        CheckOutcome("soliton_base_point_guard", guard, details=guard_details),
    ])


@_command
def cmd_torse(analysis: Analysis) -> list[CheckOutcome]:
    structure = analysis.structure
    torse = detect_torse_forming(structure)
    analysis.record_constants({"classification": torse.classification})
    details = "classification: %s" % torse.classification
    if torse.f is not None:
        analysis.record_constants({"f": torse.f, "regular": torse.regular})
        details += "; f = %s; w = -f eta; regular = %s" % (torse.f, torse.regular)
    if torse.note:
        details += "; " + torse.note
    if torse.regular and torse.regularity.as_rational_constant() is None:
        points = analysis.sample_points()[:5]
        (values,) = PointBatch(structure.chart, points).evaluate_or_raise([torse.regularity])
        sampled = "sampled values: " + ", ".join("%.4g" % v for v in values.tolist())
        details += "; f^2 + xi(f) = %s is nonconstant; %s" % (
            torse.regularity, sampled if points else NO_POINTS
        )
    outcomes = [_note("torse_classification", details)]

    constants, pair = fit_constants(structure), analysis.soliton_constants()
    lam, mu = pair or (None, None)

    def consistency() -> tuple:
        c_expected, mu_expected, check = torse_forming_constants(
            constants.a, lam, structure.epsilon, structure.chart.dimension
        )
        consistent = check == 0 and c_expected == constants.c and mu_expected == mu
        return consistent, c_expected, mu_expected, constants.a, lam, constants.c, mu, check

    return outcomes + curvature_from_torse_forming(structure, lam) + run_checks(
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
def cmd_collinear(analysis: Analysis) -> list[CheckOutcome]:
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
    analysis.record_constants({"lambda": lam, "mu": mu})
    return collinear_potential_analysis(
        analysis.structure, spec.k_expr(analysis.manifest.chart), lam, mu
    )


@_command
def cmd_parallel(analysis: Analysis) -> list[CheckOutcome]:
    structure = analysis.structure
    outcomes = []
    if analysis.manifest.alpha is not None:
        outcomes += parallel_tensor_check(structure, analysis.manifest.alpha, prefix="alpha")
    mu = analysis.manifest.constants.get("mu")
    if mu is not None:
        combo = structure.soliton_tensor(structure.xi) + structure.eta_tensor_eta().scale(mu)
        outcomes += parallel_tensor_check(structure, combo, mu_link=mu, prefix="soliton_alpha")
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
def cmd_oracle(analysis: Analysis) -> list[CheckOutcome]:
    structure = analysis.structure
    cfg = analysis.cfg
    candidates = analysis.sample_points()
    if not candidates:
        return [CheckOutcome("oracle_christoffel", FAIL, details=NO_POINTS)]
    points, references = oracle_sample_points(structure.metric, candidates)
    if not points:
        return [
            inapplicable(
                "oracle_christoffel",
                "the references are not finite floats at any of the %d sample points"
                % len(candidates),
            )
        ]
    # every symbolic tensor is evaluated on one batch of the points
    batch = PointBatch(structure.chart, points)
    outcomes = []
    for check_id, symbolic, name in (
        ("oracle_christoffel", structure.connection(), "christoffel"),
        ("oracle_riemann", structure.riemann(), "riemann"),
        ("oracle_ricci", structure.ricci(WEIGHTED_TRACE), "ricci"),
    ):
        deviation = compare(symbolic, references[name], points, symbolic.numeric_many(batch))
        outcomes.append(CheckOutcome(
            check_id,
            PASS if deviation <= cfg.tolerance else FAIL,
            details="max relative deviation %s over %d points (tolerance %.1e)"
            % (_deviation_text(deviation), len(points), cfg.tolerance),
        ))

    via_coordinates, via_connection = structure.lie_derivative_two_ways(
        analysis.potential or structure.xi
    )
    comps = [comp for field in (via_coordinates, via_connection) for _, comp in field.components()]
    values = batch.evaluate_or_raise(comps)
    one, other = np.split(values, 2)
    with np.errstate(all="ignore"):
        worst = max_deviation(np.abs(one - other).max(axis=0).tolist())
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
    for name, command in COMMANDS.items():
        if name != "report":
            command(analysis)
    return analysis.report


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
