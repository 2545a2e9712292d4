"""Eta-Ricci soliton residuals, constant solving and theorem-instance checks.

The central object is the residual of the soliton equation

    T = 1/2 (L_V g) + S + lambda g + mu eta (x) eta,

which vanishes identically exactly when (g, V, lambda, mu) is an eta-Ricci
soliton.  The solver inverts this equation for (lambda, mu) by exact
rational least squares over orthonormal-frame components at the base point
and then verifies the result symbolically everywhere: published examples
satisfy the equation only in the xi-slots, so quantifying the off-xi
residual vector is the point of the exercise, not a failure mode.

Also here: Einstein-like fitting S = a g + b g(phi ., .) + c eta (x) eta
with its identity suite, torse-forming detection nabla_X xi = f X + w(X) xi,
the induced constants c = -eps a + (a + lambda)^2 (1 - n) and
mu = -eps (lambda + eps (a + lambda)^2 (1 - n)), pointwise-collinear
potential analysis, Ricci semi-symmetry, and parallel symmetric (0,2)
tensor analysis with the soliton constant lambda = -(a + eps (c + mu)).

Theorem verifiers never assert a conclusion from a hypothesis: both sides
are evaluated and the implication status is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .checks import CheckOutcome, FAIL, PASS, inapplicable, residual_outcome
from .connection import (
    WEIGHTED_TRACE,
    covariant_derivative,
    covariant_derivative_along,
    scalar_curvature,
)
from .paracontact import ParacontactStructure
from .symexpr import ExactEvaluationError, Expr, InvariantError
from .tensor import TensorField, ValenceError, contract, kronecker

__all__ = [
    "SolitonData",
    "EinsteinLikeConstants",
    "EinsteinFitResult",
    "SolitonSolveResult",
    "TorseFormingData",
    "RankDeficientError",
    "soliton_residual",
    "solve_soliton_constants",
    "einstein_like_fit",
    "einstein_like_suite",
    "detect_torse_forming",
    "torse_forming_constants",
    "xi_consequence_suite",
    "collinear_potential_analysis",
    "semi_symmetry_residual",
    "parallel_tensor_check",
    "curvature_from_torse_forming",
]

GENERAL = "general"
IRROTATIONAL_CASE_I = "irrotational_case_I"
RECURRENT_CASE_II = "recurrent_case_II"
NOT_TORSE_FORMING = "not_torse_forming"


class RankDeficientError(ValueError):
    """Normal equations are singular; carries the design matrix rows."""

    def __init__(self, message: str, rows):
        super().__init__(message)
        self.rows = rows


@dataclass(frozen=True)
class SolitonData:
    """Potential vector field and the two soliton constants."""

    potential: TensorField
    lam: Fraction
    mu: Fraction


@dataclass(frozen=True)
class EinsteinLikeConstants:
    a: Fraction
    b: Fraction
    c: Fraction


@dataclass
class EinsteinFitResult:
    ok: bool
    constants: EinsteinLikeConstants | None
    residual: TensorField | None
    witness_index: tuple | None = None
    witness_residual: Expr | None = None


@dataclass
class SolitonSolveResult:
    """Outcome of solving B + lambda g + mu eta(x)eta = 0 for (lambda, mu)."""

    exact: bool
    lam: Fraction
    mu: Fraction
    residual: TensorField
    frame_diagonal: list[Expr]
    frame_diagonal_constants: list[Fraction | None]
    norm_squared: Fraction | None
    residual_norm: float
    base_point_consistent: bool
    base_point_max_deviation: float


@dataclass
class TorseFormingData:
    classification: str
    f: Expr | None = None
    w: TensorField | None = None
    regular: bool | None = None
    regularity: Expr | None = None  # f^2 + xi(f)
    note: str = ""


# ---------------------------------------------------------------------------
# exact linear algebra helpers
# ---------------------------------------------------------------------------


def _solve_exact(matrix: list[list[Fraction]], rhs: list[Fraction], rows_for_error) -> list[Fraction]:
    """Gaussian elimination over the rationals."""
    n = len(matrix)
    work = [list(row) + [value] for row, value in zip(matrix, rhs)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            raise RankDeficientError("normal equations are rank deficient", rows_for_error)
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col] / pivot
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return [work[i][n] / work[i][i] for i in range(n)]


def solve_normal_equations(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Exact least squares min ||A x - b||: returns (x, A^T A)."""
    unknowns = len(rows[0])
    normal = [
        [sum(row[i] * row[j] for row in rows) for j in range(unknowns)]
        for i in range(unknowns)
    ]
    target = [sum(row[i] * value for row, value in zip(rows, rhs)) for i in range(unknowns)]
    return _solve_exact(normal, target, rows), normal


# ---------------------------------------------------------------------------
# soliton residual and solver
# ---------------------------------------------------------------------------


def soliton_residual(
    structure: ParacontactStructure,
    data: SolitonData,
    mode: str = WEIGHTED_TRACE,
) -> TensorField:
    """T = 1/2 (L_V g) + S + lambda g + mu eta (x) eta, canonical."""
    lie = structure.lie_derivative(data.potential)
    ricci_tensor = structure.ricci(mode)
    half = Expr.constant(structure.chart, "1/2")
    total = lie.scale(half) + ricci_tensor
    total = total + structure.metric.field.scale(data.lam)
    total = total + structure.eta_tensor_eta().scale(data.mu)
    return total


def solve_soliton_constants(
    structure: ParacontactStructure,
    potential: TensorField,
    mode: str = WEIGHTED_TRACE,
    guard_seed: int = 42,
    guard_points: int = 10,
) -> SolitonSolveResult:
    """Solve B + lambda g + mu eta(x)eta = 0 by exact rational least squares.

    The normal equations are assembled from orthonormal-frame components at
    the chart's base point; the solution is then verified symbolically on
    the whole chart.  When the full residual is canonically zero the result
    is exact; otherwise the frame-diagonal residual vector and its norm are
    returned.  A stacked floating least squares over extra seeded sample
    points guards against base-point coincidences.
    """
    if structure.frame is None:
        raise ValenceError("solving soliton constants requires an orthonormal frame")
    structure.frame_signs()
    chart = structure.chart
    n = chart.dimension
    base = chart.base_point

    lie = structure.lie_derivative(potential)
    b_tensor = lie.scale(Expr.constant(chart, "1/2")) + structure.ricci(mode)
    g_field = structure.metric.field
    eta_eta = structure.eta_tensor_eta()

    pair_exprs: list[tuple[Expr, Expr, Expr]] = []
    for i in range(n):
        for j in range(i, n):
            ei, ej = structure.frame[i], structure.frame[j]
            pair_exprs.append(
                tuple(contract("ij,i,j->", t, ei, ej) for t in (g_field, eta_eta, b_tensor))
            )
    try:
        rows = [[ge.evaluate_exact(base), ee.evaluate_exact(base)] for ge, ee, _ in pair_exprs]
        rhs = [-be.evaluate_exact(base) for _, _, be in pair_exprs]
    except ExactEvaluationError as exc:
        raise RankDeficientError(
            "frame components cannot be evaluated exactly at the base point: %s" % exc, []
        ) from exc
    (lam, mu), normal = solve_normal_equations(rows, rhs)
    # the 2x2 normal matrix must be positive definite for a unique minimizer
    if not (normal[0][0] > 0 and normal[0][0] * normal[1][1] - normal[0][1] ** 2 > 0):
        raise InvariantError("normal matrix is not positive definite; g and eta(x)eta degenerate")

    residual = b_tensor + g_field.scale(lam) + eta_eta.scale(mu)
    exact = residual.is_zero()

    frame_diagonal = [contract("ij,i,j->", residual, e, e) for e in structure.frame]
    diagonal_constants = [e.as_rational_constant() for e in frame_diagonal]
    if all(c is not None for c in diagonal_constants):
        norm_squared = sum((c * c for c in diagonal_constants), Fraction(0))
        residual_norm = float(norm_squared) ** 0.5
    else:
        norm_squared = None
        base_floats = {name: float(v) for name, v in zip(chart.coordinates, base)}
        residual_norm = (
            sum(e.evaluate(base_floats) ** 2 for e in frame_diagonal) ** 0.5
        )

    # guard against base-point coincidences: re-fit numerically at extra points
    points = chart.sample_points(guard_points, guard_seed)
    stacked_rows: list[list[float]] = []
    stacked_rhs: list[float] = []
    for point in points:
        for ge, ee, be in pair_exprs:
            stacked_rows.append([ge.evaluate(point), ee.evaluate(point)])
            stacked_rhs.append(-be.evaluate(point))
    solution, *_ = np.linalg.lstsq(np.array(stacked_rows), np.array(stacked_rhs), rcond=None)
    deviation = float(max(abs(solution[0] - float(lam)), abs(solution[1] - float(mu))))
    return SolitonSolveResult(
        exact=exact,
        lam=lam,
        mu=mu,
        residual=residual,
        frame_diagonal=frame_diagonal,
        frame_diagonal_constants=diagonal_constants,
        norm_squared=norm_squared,
        residual_norm=residual_norm,
        base_point_consistent=deviation <= 1e-8,
        base_point_max_deviation=deviation,
    )


# ---------------------------------------------------------------------------
# Einstein-like structure
# ---------------------------------------------------------------------------


def einstein_like_fit(
    structure: ParacontactStructure,
    mode: str = WEIGHTED_TRACE,
    ricci_tensor: TensorField | None = None,
) -> EinsteinFitResult:
    """Fit S = a g + b g(phi ., .) + c eta (x) eta over frame components.

    The three constants are solved exactly from base-point frame components,
    then the fit is verified symbolically on every component; on failure the
    first offending component is returned as a witness.
    """
    if structure.frame is None:
        raise ValenceError("einstein_like_fit requires an orthonormal frame")
    structure.frame_signs()
    chart = structure.chart
    n = chart.dimension
    base = chart.base_point
    if ricci_tensor is None:
        ricci_tensor = structure.ricci(mode)
    g_field = structure.metric.field
    phi_flat = contract("mj,mi->ij", g_field, structure.phi)  # g(phi X, Y)
    eta_eta = structure.eta_tensor_eta()

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in range(n):
        for j in range(i, n):
            ei, ej = structure.frame[i], structure.frame[j]
            *row, value = (
                contract("ij,i,j->", t, ei, ej).evaluate_exact(base)
                for t in (g_field, phi_flat, eta_eta, ricci_tensor)
            )
            rows.append(row)
            rhs.append(value)
    solution, _ = solve_normal_equations(rows, rhs)
    constants = EinsteinLikeConstants(*solution)
    residual = (
        ricci_tensor
        - g_field.scale(constants.a)
        - phi_flat.scale(constants.b)
        - eta_eta.scale(constants.c)
    )
    for idx, comp in residual.components():
        if not comp.is_zero():
            return EinsteinFitResult(
                ok=False,
                constants=constants,
                residual=residual,
                witness_index=idx,
                witness_residual=comp,
            )
    return EinsteinFitResult(ok=True, constants=constants, residual=residual)


def einstein_like_suite(
    structure: ParacontactStructure,
    constants: EinsteinLikeConstants,
    mode: str = WEIGHTED_TRACE,
    para_sasakian: bool | None = None,
    soliton: SolitonData | None = None,
    torse: TorseFormingData | None = None,
) -> list[CheckOutcome]:
    """Identity suite of an Einstein-like structure with constants (a, b, c).

    The para-Sasakian-only identities are marked inapplicable when the
    structure is not para-Sasakian; the Codazzi condition is reported as a
    classification, together with the theorem instance "Codazzi and f != 0
    force c = 0" whenever its hypothesis can be evaluated.
    """
    n = structure.chart.dimension
    eps = Fraction(structure.epsilon)
    a, b, c = constants.a, constants.b, constants.c
    metric, phi, xi, eta = structure.metric, structure.phi, structure.xi, structure.eta
    g = metric.field
    conn = structure.connection()
    ricci_tensor = structure.ricci(mode)
    eps_a_c = eps * a + c
    nabla_phi = structure.nabla_phi()  # [m, j, i]
    nabla_xi = structure.nabla_xi()  # [m, i]
    nabla_xi_flat = contract("mk,mi->ik", g, nabla_xi)  # [i, k] = g(nabla_i xi, d_k)
    q_operator = metric.raise_index(ricci_tensor, 0)
    nabla_q = covariant_derivative(q_operator, conn)  # [m, j, i]
    # X = d_i, Y = d_j, Z = d_k
    nabla_s_residual = contract(
        "jki-mk,mji->ijk", covariant_derivative(ricci_tensor, conn), g.scale(b), nabla_phi
    ) - contract("j,ik+k,ij->ijk", eta, nabla_xi_flat, eta, nabla_xi_flat).scale(eps * c)
    nabla_q_residual = contract("mji-mji->mij", nabla_q, nabla_phi.scale(b)) - contract(
        "j,mi+ij,m->mij", eta, nabla_xi, nabla_xi_flat.scale(eps), xi
    ).scale(eps * c)

    outcomes = [
        residual_outcome(
            "el_eq_phi_symmetry",
            contract("mj,mi-im,mj->ij", ricci_tensor, phi, ricci_tensor, phi),
            "S(phi X, Y) = S(X, phi Y)",
        ),
        residual_outcome(
            "el_eq_phi_phi",
            contract("uv,ui,vj->ij", ricci_tensor, phi, phi)
            - ricci_tensor
            + contract("i,j->ij", eta.scale(eps_a_c), eta),
            "S(phi X, phi Y) = S(X, Y) - (eps a + c) eta(X) eta(Y)",
        ),
        residual_outcome(
            "el_eq_s_xi",
            structure.ricci_xi(mode) - eta.scale(eps_a_c),
            "S(X, xi) = (eps a + c) eta(X)",
        ),
        residual_outcome(
            "el_eq_s_xi_xi",
            contract("ij,i,j->", ricci_tensor, xi, xi) - eps_a_c,
            "S(xi, xi) = eps a + c",
        ),
        residual_outcome(
            "el_eq_nabla_s",
            nabla_s_residual,
            "(nabla_X S)(Y, Z) = b g((nabla_X phi)Y, Z) "
            "+ eps c {eta(Y) g(nabla_X xi, Z) + eta(Z) g(nabla_X xi, Y)}",
        ),
        residual_outcome(
            "el_eq_nabla_q",
            nabla_q_residual,
            "(nabla_X Q)Y = b (nabla_X phi)Y "
            "+ eps c {eta(Y) nabla_X xi + eps g(nabla_X xi, Y) xi}",
        ),
    ]

    if para_sasakian:
        trace_value = eps_a_c - (1 - n)
        outcomes.append(
            CheckOutcome(
                "el_eq_trace",
                PASS if trace_value == 0 else FAIL,
                symbolic_zero=trace_value == 0,
                details="eps a + c = 1 - n (value %s, expected %s)" % (eps_a_c, 1 - n),
            )
        )
        scalar = scalar_curvature(ricci_tensor, metric)
        expected = Fraction(n) * a + b * phi.trace() + eps * c
        outcomes.append(
            residual_outcome(
                "el_eq_scalar",
                scalar - expected,
                "r = n a + b trace(phi) + eps c",
            )
        )
    else:
        outcomes.append(
            inapplicable("el_eq_trace", "structure is not para-Sasakian")
        )
        outcomes.append(
            inapplicable("el_eq_scalar", "structure is not para-Sasakian")
        )

    codazzi_residual = contract("mkj-mjk->mjk", nabla_q, nabla_q)
    codazzi_zero = codazzi_residual.is_zero()
    outcomes.append(
        CheckOutcome(
            "el_codazzi",
            PASS,
            symbolic_zero=codazzi_zero,
            residual=codazzi_residual,
            details="Ricci operator is Codazzi" if codazzi_zero else "Ricci operator is not Codazzi",
        )
    )

    if torse is not None and torse.classification != NOT_TORSE_FORMING and torse.f is not None:
        f_zero = torse.f.is_zero()
        if c != 0 and not f_zero:
            outcomes.append(
                CheckOutcome(
                    "el_codazzi_forces_einstein",
                    PASS if not codazzi_zero else FAIL,
                    symbolic_zero=codazzi_zero,
                    details="c = %s != 0 and f != 0, so the Ricci operator must not be Codazzi"
                    % c,
                )
            )
        elif not f_zero and codazzi_zero:
            outcomes.append(
                CheckOutcome(
                    "el_codazzi_forces_einstein",
                    PASS if c == 0 else FAIL,
                    symbolic_zero=c == 0,
                    details="Codazzi with f != 0 forces c = 0 (found c = %s)" % c,
                )
            )
        else:
            outcomes.append(
                inapplicable(
                    "el_codazzi_forces_einstein",
                    "hypothesis not met (f = 0 or neither branch applies)",
                )
            )
    else:
        outcomes.append(
            inapplicable(
                "el_codazzi_forces_einstein",
                "potential xi is not torse-forming or no torse data supplied",
            )
        )

    if soliton is None:
        outcomes.append(
            inapplicable("el_remark_soliton_transfer", "no soliton constants supplied")
        )
    else:
        condition = eps + b == 0 and a + soliton.lam == 0 and c + soliton.mu == 0
        if not condition:
            outcomes.append(
                inapplicable(
                    "el_remark_soliton_transfer",
                    "conditions eps + b = 0, a + lambda = 0, c + mu = 0 not met "
                    "(values %s, %s, %s)"
                    % (eps + b, a + soliton.lam, c + soliton.mu),
                )
            )
        else:
            transferred = soliton_residual(
                structure, SolitonData(xi, -a, -c), mode
            )
            outcomes.append(
                residual_outcome(
                    "el_remark_soliton_transfer",
                    transferred,
                    "(g, xi, -a, -c) must itself be an eta-Ricci soliton",
                )
            )
    return outcomes


# ---------------------------------------------------------------------------
# torse-forming potential
# ---------------------------------------------------------------------------


def detect_torse_forming(structure: ParacontactStructure, sample_seed: int = 42) -> TorseFormingData:
    """Classify nabla xi against the torse-forming form f phi^2.

    The candidate f is recovered from the trace of nabla xi (trace phi^2 is
    n - 1) and then verified; extracting f from a component ratio is not
    total, the trace always is.  Regularity means f^2 + xi(f) is not
    canonically zero; when that expression is a nonconstant function its
    sampled values are reported so the user can see the zero set.
    """
    chart = structure.chart
    n = chart.dimension
    nabla_xi = structure.nabla_xi()
    f_candidate = nabla_xi.trace() / Fraction(n - 1)
    # nabla xi - f phi^2
    residual = contract("ki-,ki->ki", nabla_xi, f_candidate, structure.phi_squared())
    if not residual.is_zero():
        return TorseFormingData(
            classification=NOT_TORSE_FORMING,
            note="nabla xi is not of the form f (X - eta(X) xi)",
        )
    w = structure.eta.scale(-f_candidate)
    if (f_candidate + 1).is_symbolically_zero:
        classification = IRROTATIONAL_CASE_I
    elif f_candidate.is_symbolically_zero:
        classification = RECURRENT_CASE_II
    else:
        classification = GENERAL
    df = TensorField.oneform(chart, [f_candidate.differentiate(name) for name in chart.coordinates])
    xi_of_f = contract("i,i->", structure.xi, df)
    regularity = f_candidate * f_candidate + xi_of_f
    regular = not regularity.is_zero()
    note = ""
    if regular and regularity.as_rational_constant() is None:
        points = chart.sample_points(5, sample_seed)
        values = ", ".join("%.4g" % regularity.evaluate(p) for p in points)
        note = "f^2 + xi(f) = %s is nonconstant; sampled values: %s" % (regularity, values)
    return TorseFormingData(
        classification=classification,
        f=f_candidate,
        w=w,
        regular=regular,
        regularity=regularity,
        note=note,
    )


def torse_forming_constants(
    a: Fraction, lam: Fraction, epsilon: int, n: int
) -> tuple[Fraction, Fraction, Fraction]:
    """The induced (c, mu) of an eta-Einstein soliton with torse-forming xi.

    Returns (c, mu, check) where check = eps (a + lambda) + c + mu must be 0.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    a, lam = Fraction(a), Fraction(lam)
    eps = Fraction(epsilon)
    square = (a + lam) ** 2 * (1 - n)
    c = -eps * a + square
    mu = -eps * (lam + eps * square)
    return c, mu, eps * (a + lam) + c + mu


# ---------------------------------------------------------------------------
# V = xi consequences
# ---------------------------------------------------------------------------


def xi_consequence_suite(
    structure: ParacontactStructure,
    lam: Fraction,
    mu: Fraction,
    constants: EinsteinLikeConstants | None = None,
    mode: str = WEIGHTED_TRACE,
    para_sasakian: bool = False,
) -> list[CheckOutcome]:
    """Consequences of an eta-Ricci soliton whose potential is xi itself."""
    eps = Fraction(structure.epsilon)
    conn = structure.connection()
    xi, eta, g = structure.xi, structure.eta, structure.metric
    outcomes: list[CheckOutcome] = []

    if constants is None:
        outcomes.append(
            inapplicable("xi_eq12_constant", "no Einstein-like constants available")
        )
    else:
        value = eps * (constants.a + lam) + constants.c + mu
        outcomes.append(
            CheckOutcome(
                "xi_eq12_constant",
                PASS if value == 0 else FAIL,
                symbolic_zero=value == 0,
                details="eps (a + lambda) + c + mu = %s" % value,
            )
        )

    nabla_phi = structure.nabla_phi()  # [k, j, i]
    nabla_xi_phi = contract("abi,i->ab", nabla_phi, xi)
    outcomes += [
        residual_outcome(
            "xi_geodesic", contract("c,kc->k", xi, structure.nabla_xi()), "nabla_xi xi = 0"
        ),
        residual_outcome(
            "xi_nabla_phi_xi", contract("kji,i,j->k", nabla_phi, xi, xi), "(nabla_xi phi) xi = 0"
        ),
        residual_outcome(
            "xi_nabla_eta", covariant_derivative_along(eta, conn, xi), "nabla_xi eta = 0"
        ),
    ]

    ricci_tensor = structure.ricci(mode)
    nabla_xi_s = covariant_derivative_along(ricci_tensor, conn, xi)
    nabla_xi_q = covariant_derivative_along(g.raise_index(ricci_tensor, 0), conn, xi)

    if constants is None:
        outcomes.append(inapplicable("xi_eq15_nabla_s", "no Einstein-like constants available"))
        outcomes.append(inapplicable("xi_eq16_nabla_q", "no Einstein-like constants available"))
    else:
        b = constants.b
        outcomes.append(
            residual_outcome(
                "xi_eq15_nabla_s",
                contract("jk-mk,mj->jk", nabla_xi_s, g.field.scale(b), nabla_xi_phi),
                "(nabla_xi S)(Y, Z) = b g((nabla_xi phi) Y, Z)",
            )
        )
        outcomes.append(
            residual_outcome(
                "xi_eq16_nabla_q",
                nabla_xi_q - nabla_xi_phi.scale(b),
                "nabla_xi Q = b nabla_xi phi",
            )
        )

    if para_sasakian:
        outcomes.append(
            residual_outcome("xi_ps_nabla_s", nabla_xi_s, "nabla_xi S = 0 (para-Sasakian)")
        )
        outcomes.append(
            residual_outcome("xi_ps_nabla_q", nabla_xi_q, "nabla_xi Q = 0 (para-Sasakian)")
        )
    else:
        outcomes.append(inapplicable("xi_ps_nabla_s", "structure is not para-Sasakian"))
        outcomes.append(inapplicable("xi_ps_nabla_q", "structure is not para-Sasakian"))
    return outcomes


# ---------------------------------------------------------------------------
# pointwise collinear potential V = k xi
# ---------------------------------------------------------------------------


def collinear_potential_analysis(
    structure: ParacontactStructure,
    k: Expr,
    lam: Fraction,
    mu: Fraction,
    mode: str = WEIGHTED_TRACE,
    para_sasakian: bool = False,
) -> list[CheckOutcome]:
    """Analysis of a soliton potential V = k xi on a para-Sasakian structure.

    The scalar gate eps (n - 1) - lambda - eps mu decides whether k is forced
    to be constant; the induced Einstein-like Ricci form
    S = -lambda g - eps k g(phi ., .) - mu eta (x) eta is compared against
    the actual Ricci tensor and the residual reported.
    """
    chart = structure.chart
    n = chart.dimension
    eps = Fraction(structure.epsilon)
    if not para_sasakian:
        return [
            inapplicable(
                "collinear_precondition",
                "collinear potential analysis needs a para-Sasakian structure",
            )
        ]
    outcomes: list[CheckOutcome] = []
    gate = eps * (n - 1) - lam - eps * mu
    outcomes.append(
        CheckOutcome(
            "collinear_gate",
            PASS,
            symbolic_zero=gate == 0,
            details="eps (n - 1) - lambda - eps mu = %s" % gate,
            data={"gate": gate},
        )
    )
    dk = TensorField.oneform(chart, [k.differentiate(c) for c in chart.coordinates])
    if gate == 0:
        outcomes.append(
            residual_outcome(
                "collinear_k_constant",
                dk,
                "gate vanishes, so k must be constant: dk = 0",
            )
        )
    else:
        xi_k = contract("i,i->", structure.xi, dk)
        outcomes.append(
            CheckOutcome(
                "collinear_forced_derivative",
                PASS,
                symbolic_zero=False,
                details="gate = %s != 0 forces xi(k) = %s; supplied k has xi(k) = %s"
                % (gate, gate, xi_k),
            )
        )
    ricci_tensor = structure.ricci(mode)
    phi_flat = contract("mj,mi->ij", structure.metric.field, structure.phi)  # g(phi X, Y)
    induced = (
        ricci_tensor
        + structure.metric.field.scale(lam)
        + phi_flat.scale(eps * k)
        + structure.eta_tensor_eta().scale(mu)
    )
    zero = induced.is_zero()
    outcomes.append(
        CheckOutcome(
            "collinear_induced_ricci",
            PASS,
            symbolic_zero=zero,
            residual=induced,
            details=(
                "S = -lambda g - eps k g(phi ., .) - mu eta (x) eta holds exactly"
                if zero
                else "induced Einstein-like form differs from the computed Ricci tensor"
            ),
        )
    )
    return outcomes


# ---------------------------------------------------------------------------
# semi-symmetry and parallel tensors
# ---------------------------------------------------------------------------


def semi_symmetry_residual(
    structure: ParacontactStructure,
    riem: TensorField,
    ricci_tensor: TensorField,
) -> TensorField:
    """residual(X, Y, Z) = S(R(xi, X)Y, Z) + S(Y, R(xi, X)Z)."""
    r_xi = contract("mlij,l->mij", riem, structure.xi)  # [m, i, j] = (R(xi, d_i) d_j)^m
    return contract("mk,mij+jm,mik->ijk", ricci_tensor, r_xi, ricci_tensor, r_xi)


def parallel_tensor_check(
    structure: ParacontactStructure,
    alpha: TensorField,
    mode: str = WEIGHTED_TRACE,
    mu_link: Fraction | None = None,
    constants: EinsteinLikeConstants | None = None,
    torse: TorseFormingData | None = None,
    para_sasakian: bool = False,
    prefix: str = "alpha",
) -> list[CheckOutcome]:
    """Parallelism analysis of a symmetric (0, 2) candidate tensor.

    Reports whether nabla alpha = 0, whether the curvature identity
    alpha(R(X,Y)Z, W) + alpha(R(X,Y)W, Z) = 0 holds (asserted to follow
    whenever alpha is parallel), the proportionality alpha = eps alpha(xi,xi) g
    under the theorem hypotheses, and - when alpha is the soliton combination
    1/2 L_xi g + S + mu eta (x) eta - the implied constant
    lambda = -eps alpha(xi, xi), cross-checked against -(a + eps (c + mu)).
    ``prefix`` disambiguates check ids when several candidates are analyzed.
    """
    eps = Fraction(structure.epsilon)
    if alpha.valence != (0, 2):
        raise ValenceError("alpha must be a (0, 2) tensor")
    if not alpha.is_symmetric_down(0, 1):
        raise ValenceError("alpha must be symmetric")
    outcomes: list[CheckOutcome] = []
    conn = structure.connection()
    nabla_alpha = covariant_derivative(alpha, conn)
    parallel = nabla_alpha.is_zero()
    outcomes.append(
        CheckOutcome(
            prefix + "_nabla_alpha",
            PASS,
            symbolic_zero=parallel,
            residual=nabla_alpha,
            details="alpha is parallel" if parallel else "alpha is not parallel",
        )
    )

    riem = structure.riemann()
    identity_residual = contract("ml,mijk+mk,mijl->ijkl", alpha, riem, alpha, riem)
    identity_zero = identity_residual.is_zero()
    if parallel and not identity_zero:
        raise InvariantError("alpha is parallel but the Ricci identity residual is nonzero")
    outcomes.append(
        CheckOutcome(
            prefix + "_ricci_identity",
            PASS,
            symbolic_zero=identity_zero,
            residual=identity_residual,
            details="alpha(R(X,Y)Z, W) + alpha(R(X,Y)W, Z) = 0",
        )
    )

    alpha_xi_xi = contract("ij,i,j->", alpha, structure.xi, structure.xi)
    hypotheses = para_sasakian or (
        torse is not None
        and torse.classification != NOT_TORSE_FORMING
        and bool(torse.regular)
    )
    if not parallel:
        outcomes.append(
            inapplicable(prefix + "_proportionality", "alpha is not parallel")
        )
    elif not hypotheses:
        outcomes.append(
            inapplicable(
                prefix + "_proportionality",
                "structure is neither para-Sasakian nor regular torse-forming",
            )
        )
    else:
        proportionality = alpha - structure.metric.field.scale(eps * alpha_xi_xi)
        outcomes.append(
            residual_outcome(
                prefix + "_proportionality",
                proportionality,
                "alpha = eps alpha(xi, xi) g",
            )
        )

    if mu_link is None:
        outcomes.append(
            inapplicable(
                prefix + "_soliton_link",
                "alpha was not built as 1/2 L_xi g + S + mu eta (x) eta",
            )
        )
    else:
        lam_value = (-eps * alpha_xi_xi).as_rational_constant()
        if lam_value is None:
            outcomes.append(
                CheckOutcome(
                    prefix + "_soliton_link",
                    FAIL,
                    symbolic_zero=False,
                    details="alpha(xi, xi) = %s is not constant" % alpha_xi_xi,
                )
            )
        else:
            data = SolitonData(structure.xi, lam_value, mu_link)
            sol_residual = soliton_residual(structure, data, mode)
            soliton_holds = sol_residual.is_zero()
            details = "implied lambda = -eps alpha(xi, xi) = %s; " % lam_value
            if constants is not None:
                predicted = -(constants.a + eps * (constants.c + mu_link))
                match = predicted == lam_value
                details += "-(a + eps (c + mu)) = %s (%s); " % (
                    predicted,
                    "match" if match else "MISMATCH",
                )
            else:
                match = True
            details += (
                "soliton equation holds at the implied constants"
                if soliton_holds
                else "soliton equation does not hold at the implied constants"
            )
            # theorem: alpha parallel <=> (g, xi, lambda, mu) is a soliton
            equivalence = parallel == soliton_holds
            outcomes.append(
                CheckOutcome(
                    prefix + "_soliton_link",
                    PASS if (equivalence and match) else FAIL,
                    symbolic_zero=soliton_holds,
                    residual=sol_residual,
                    details=details
                    + ("; equivalence with parallelism confirmed" if equivalence else "; equivalence with parallelism VIOLATED"),
                    data={"implied_lambda": lam_value},
                )
            )
    return outcomes


def curvature_from_torse_forming(
    structure: ParacontactStructure,
    torse: TorseFormingData,
    a_plus_lambda: Fraction | None = None,
    mode: str = WEIGHTED_TRACE,
) -> list[CheckOutcome]:
    """Curvature forms forced by a torse-forming xi.

    Always checks R(X, Y) xi = f^2 {eta(X) Y - eta(Y) X} + X(f) phi^2 Y
    - Y(f) phi^2 X with the detected f.  When a soliton fit supplies
    a + lambda (with f = -(a + lambda)), additionally checks
    R(X, Y) xi = (a + lambda)^2 {eta(X) Y - eta(Y) X} and
    S(X, xi) = (a + lambda)^2 (1 - n) eta(X).
    """
    chart = structure.chart
    n = chart.dimension
    if torse.classification == NOT_TORSE_FORMING or torse.f is None:
        return [
            inapplicable("torse_eq52_curvature", "xi is not torse-forming"),
            inapplicable("torse_eq24_25", "xi is not torse-forming"),
        ]
    eta = structure.eta
    f = torse.f
    df = TensorField.oneform(chart, [f.differentiate(name) for name in chart.coordinates])
    phi2 = structure.phi_squared()
    delta = kronecker(chart)
    # [k, i, j]: eta(d_i) d_j - eta(d_j) d_i
    wedge = contract("i,kj-j,ki->kij", eta, delta, eta, delta)
    expected = contract(",kij+i,kj-j,ki->kij", f * f, wedge, df, phi2, df, phi2)
    outcomes = [
        residual_outcome(
            "torse_eq52_curvature",
            structure.r_into_xi() - expected,
            "R(X, Y) xi = f^2 {eta(X) Y - eta(Y) X} + X(f) phi^2 Y - Y(f) phi^2 X",
        )
    ]
    if a_plus_lambda is None:
        outcomes.append(
            inapplicable("torse_eq24_25", "no eta-Einstein soliton fit supplied")
        )
    else:
        square = Fraction(a_plus_lambda) ** 2
        residual = structure.r_into_xi() - wedge.scale(square)
        residual25 = structure.ricci_xi(mode) - eta.scale(square * (1 - n))
        combined_zero = residual.is_zero() and residual25.is_zero()
        outcomes.append(
            CheckOutcome(
                "torse_eq24_25",
                PASS if combined_zero else FAIL,
                symbolic_zero=combined_zero,
                residual=residual,
                details="R(X, Y) xi = (a + lambda)^2 {eta(X) Y - eta(Y) X} and "
                "S(X, xi) = (a + lambda)^2 (1 - n) eta(X) with a + lambda = %s"
                % a_plus_lambda,
            )
        )
    return outcomes
