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
are evaluated and the implication status is reported.  Each suite is a
:func:`~parasol.checks.run_checks` table whose rows name their hypotheses as
needs (``PARA_SASAKIAN``, ``EL_CONSTANTS``, ``TORSE_FORMING``, ...), defined
once below with the reason an unmet one reports.  The soliton link and the
"Codazzi forces c = 0" instance follow none of the table's rules and are
written out by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .checks import (
    CLASSIFICATION,
    FACT,
    FAIL,
    PASS,
    Check,
    CheckOutcome,
    Need,
    inapplicable,
    run_checks,
)
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

    @property
    def forming(self) -> bool:
        return self.classification != NOT_TORSE_FORMING and self.f is not None


# the hypotheses of the theorem instances, over the facts each suite passes to run_checks
PARA_SASAKIAN = Need(lambda h: h.para_sasakian, "structure is not para-Sasakian")
EL_CONSTANTS = Need(lambda h: h.constants is not None, "no Einstein-like constants available")
SOLITON = Need(lambda h: h.soliton is not None, "no soliton constants supplied")
TORSE_FORMING = Need(lambda h: h.torse.forming, "xi is not torse-forming")
SOLITON_FIT = Need(lambda h: h.a_plus_lambda is not None, "no eta-Einstein soliton fit supplied")
PARALLEL = Need(lambda h: h.parallel, "alpha is not parallel")
PROPORTIONALITY_HYPOTHESES = Need(
    lambda h: h.para_sasakian
    or (h.torse is not None and h.torse.forming and bool(h.torse.regular)),
    "structure is neither para-Sasakian nor regular torse-forming",
)


# ---------------------------------------------------------------------------
# exact linear algebra helpers
# ---------------------------------------------------------------------------


def solve_normal_equations(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Exact least squares min ||A x - b||: returns (x, A^T A).

    The normal equations are solved by Gaussian elimination over the rationals.
    """
    n = len(rows[0])
    normal = [[sum(row[i] * row[j] for row in rows) for j in range(n)] for i in range(n)]
    target = [sum(row[i] * value for row, value in zip(rows, rhs)) for i in range(n)]
    work = [list(row) + [value] for row, value in zip(normal, target)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            raise RankDeficientError("normal equations are rank deficient", rows)
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col] / pivot
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return [work[i][n] / work[i][i] for i in range(n)], normal


def _frame_components(structure: ParacontactStructure, tensors) -> list[tuple[Expr, ...]]:
    """(T(E_i, E_j) for each tensor T) for every frame pair i <= j, in row-major order."""
    frame = structure.frame.vectors
    return [
        tuple(contract("ij,i,j->", t, ei, ej) for t in tensors)
        for i, ei in enumerate(frame)
        for ej in frame[i:]
    ]


# ---------------------------------------------------------------------------
# soliton residual and solver
# ---------------------------------------------------------------------------


def soliton_residual(
    structure: ParacontactStructure,
    data: SolitonData,
    mode: str = WEIGHTED_TRACE,
) -> TensorField:
    """T = 1/2 (L_V g) + S + lambda g + mu eta (x) eta, canonical."""
    total = structure.soliton_tensor(data.potential, mode)
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
    base = chart.base_point

    b_tensor = structure.soliton_tensor(potential, mode)
    g_field = structure.metric.field
    eta_eta = structure.eta_tensor_eta()
    pair_exprs = _frame_components(structure, (g_field, eta_eta, b_tensor))
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
    base = structure.chart.base_point
    if ricci_tensor is None:
        ricci_tensor = structure.ricci(mode)
    g_field = structure.metric.field
    phi_flat = contract("mj,mi->ij", g_field, structure.phi)  # g(phi X, Y)
    eta_eta = structure.eta_tensor_eta()
    values = [
        [e.evaluate_exact(base) for e in pair]
        for pair in _frame_components(structure, (g_field, phi_flat, eta_eta, ricci_tensor))
    ]
    solution, _ = solve_normal_equations([v[:3] for v in values], [v[3] for v in values])
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
    s, n = structure, structure.chart.dimension
    eps = Fraction(s.epsilon)
    a, b, c = constants.a, constants.b, constants.c
    g, phi, xi, eta = s.metric.field, s.phi, s.xi, s.eta
    ricci_tensor = s.ricci(mode)
    eps_a_c = eps * a + c
    nabla_phi = s.nabla_phi()  # [m, j, i]
    nabla_xi = s.nabla_xi()  # [m, i]
    nabla_xi_flat = contract("mk,mi->ik", g, nabla_xi)  # [i, k] = g(nabla_i xi, d_k)
    _, nabla_s, nabla_q = s.ricci_derivatives(mode)  # [j, k, i] and [m, j, i]
    outcomes = run_checks([
        Check("el_eq_phi_symmetry", "S(phi X, Y) = S(X, phi Y)",
              contract("mj,mi-im,mj->ij", ricci_tensor, phi, ricci_tensor, phi)),
        Check("el_eq_phi_phi", "S(phi X, phi Y) = S(X, Y) - (eps a + c) eta(X) eta(Y)",
              contract("uv,ui,vj->ij", ricci_tensor, phi, phi)
              - ricci_tensor
              + contract("i,j->ij", eta.scale(eps_a_c), eta)),
        Check("el_eq_s_xi", "S(X, xi) = (eps a + c) eta(X)", s.ricci_xi(mode) - eta.scale(eps_a_c)),
        Check("el_eq_s_xi_xi", "S(xi, xi) = eps a + c",
              contract("ij,i,j->", ricci_tensor, xi, xi) - eps_a_c),
        # X = d_i, Y = d_j, Z = d_k
        Check("el_eq_nabla_s", "(nabla_X S)(Y, Z) = b g((nabla_X phi)Y, Z) "
              "+ eps c {eta(Y) g(nabla_X xi, Z) + eta(Z) g(nabla_X xi, Y)}",
              contract("jki-mk,mji->ijk", nabla_s, g.scale(b), nabla_phi)
              - contract("j,ik+k,ij->ijk", eta, nabla_xi_flat, eta, nabla_xi_flat).scale(eps * c)),
        Check("el_eq_nabla_q", "(nabla_X Q)Y = b (nabla_X phi)Y "
              "+ eps c {eta(Y) nabla_X xi + eps g(nabla_X xi, Y) xi}",
              contract("mji-mji->mij", nabla_q, nabla_phi.scale(b))
              - contract("j,mi+ij,m->mij", eta, nabla_xi, nabla_xi_flat.scale(eps), xi)
              .scale(eps * c)),
        Check("el_eq_trace", "eps a + c = 1 - n (value %s, expected %s)",
              (eps_a_c == 1 - n, eps_a_c, 1 - n), (PARA_SASAKIAN,), FACT),
        Check("el_eq_scalar", "r = n a + b trace(phi) + eps c",
              scalar_curvature(ricci_tensor, s.metric)
              - (Fraction(n) * a + b * phi.trace() + eps * c), (PARA_SASAKIAN,)),
        Check("el_codazzi", ("Ricci operator is Codazzi", "Ricci operator is not Codazzi"),
              contract("mkj-mjk->mjk", nabla_q, nabla_q), rule=CLASSIFICATION),
    ], para_sasakian=para_sasakian)
    gaps = (eps + b, a + soliton.lam, c + soliton.mu) if soliton else (None,) * 3
    transfer = Need(
        lambda facts: gaps == (0, 0, 0),
        "conditions eps + b = 0, a + lambda = 0, c + mu = 0 not met (values %s, %s, %s)" % gaps,
    )
    outcomes.append(_codazzi_forces_einstein(c, outcomes[-1].symbolic_zero, torse))
    return outcomes + run_checks([
        Check("el_remark_soliton_transfer", "(g, xi, -a, -c) must itself be an eta-Ricci soliton",
              lambda: soliton_residual(s, SolitonData(xi, -a, -c), mode), (SOLITON, transfer)),
    ], soliton=soliton)


def _codazzi_forces_einstein(
    c: Fraction, codazzi: bool, torse: TorseFormingData | None
) -> CheckOutcome:
    """The theorem instance "a Codazzi Ricci operator and f != 0 force c = 0"."""
    if torse is None or not torse.forming:
        return inapplicable(
            "el_codazzi_forces_einstein",
            "potential xi is not torse-forming or no torse data supplied",
        )
    f_zero = torse.f.is_zero()
    if c != 0 and not f_zero:
        return CheckOutcome(
            "el_codazzi_forces_einstein",
            PASS if not codazzi else FAIL,
            symbolic_zero=codazzi,
            details="c = %s != 0 and f != 0, so the Ricci operator must not be Codazzi" % c,
        )
    if not f_zero and codazzi:
        # the branch above returned for c != 0, so here c = 0
        return CheckOutcome(
            "el_codazzi_forces_einstein",
            PASS,
            symbolic_zero=True,
            details="Codazzi with f != 0 forces c = 0 (found c = %s)" % c,
        )
    return inapplicable(
        "el_codazzi_forces_einstein", "hypothesis not met (f = 0 or neither branch applies)"
    )


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
    s = structure
    eps = Fraction(s.epsilon)
    xi, eta, g = s.xi, s.eta, s.metric.field
    nabla_phi = s.nabla_phi()  # [k, j, i]
    nabla_xi_phi = contract("abi,i->ab", nabla_phi, xi)
    # nabla_xi T contracts the derivative slot of the cached nabla T with xi
    _, nabla_s, nabla_q = s.ricci_derivatives(mode)
    nabla_xi_s = contract("c,ABc->AB", xi, nabla_s)
    nabla_xi_q = contract("c,ABc->AB", xi, nabla_q)
    gap = None if constants is None else eps * (constants.a + lam) + constants.c + mu
    return run_checks([
        Check("xi_eq12_constant", "eps (a + lambda) + c + mu = %s",
              (gap == 0, gap), (EL_CONSTANTS,), FACT),
        Check("xi_geodesic", "nabla_xi xi = 0", contract("c,kc->k", xi, s.nabla_xi())),
        Check("xi_nabla_phi_xi", "(nabla_xi phi) xi = 0",
              contract("kji,i,j->k", nabla_phi, xi, xi)),
        Check("xi_nabla_eta", "nabla_xi eta = 0",
              covariant_derivative_along(eta, s.connection(), xi)),
        Check("xi_eq15_nabla_s", "(nabla_xi S)(Y, Z) = b g((nabla_xi phi) Y, Z)",
              lambda: contract("jk-mk,mj->jk", nabla_xi_s, g.scale(constants.b), nabla_xi_phi),
              (EL_CONSTANTS,)),
        Check("xi_eq16_nabla_q", "nabla_xi Q = b nabla_xi phi",
              lambda: nabla_xi_q - nabla_xi_phi.scale(constants.b), (EL_CONSTANTS,)),
        Check("xi_ps_nabla_s", "nabla_xi S = 0 (para-Sasakian)", nabla_xi_s, (PARA_SASAKIAN,)),
        Check("xi_ps_nabla_q", "nabla_xi Q = 0 (para-Sasakian)", nabla_xi_q, (PARA_SASAKIAN,)),
    ], para_sasakian=para_sasakian, constants=constants)


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
    if not para_sasakian:
        return [
            inapplicable(
                "collinear_precondition",
                "collinear potential analysis needs a para-Sasakian structure",
            )
        ]
    s, chart = structure, structure.chart
    eps = Fraction(s.epsilon)
    g = s.metric.field
    gate = eps * (chart.dimension - 1) - lam - eps * mu
    dk = TensorField.oneform(chart, [k.differentiate(c) for c in chart.coordinates])
    forced = (
        Check("collinear_k_constant", "gate vanishes, so k must be constant: dk = 0", dk)
        if gate == 0
        else Check("collinear_forced_derivative",
                   "gate = %s != 0 forces xi(k) = %s; supplied k has xi(k) = %s"
                   % (gate, gate, contract("i,i->", s.xi, dk)), gate, rule=CLASSIFICATION)
    )
    outcomes = run_checks([
        Check("collinear_gate", "eps (n - 1) - lambda - eps mu = %s" % gate, gate,
              rule=CLASSIFICATION),
        forced,
        Check("collinear_induced_ricci",
              ("S = -lambda g - eps k g(phi ., .) - mu eta (x) eta holds exactly",
               "induced Einstein-like form differs from the computed Ricci tensor"),
              s.ricci(mode) + g.scale(lam)
              + contract("mj,mi->ij", g, s.phi).scale(eps * k)  # g(phi X, Y)
              + s.eta_tensor_eta().scale(mu), rule=CLASSIFICATION),
    ])
    outcomes[0].data["gate"] = gate
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
    s = structure
    eps = Fraction(s.epsilon)
    if alpha.valence != (0, 2):
        raise ValenceError("alpha must be a (0, 2) tensor")
    if not alpha.is_symmetric_down(0, 1):
        raise ValenceError("alpha must be symmetric")
    riem = s.riemann()
    outcomes = run_checks([
        Check(prefix + "_nabla_alpha", ("alpha is parallel", "alpha is not parallel"),
              covariant_derivative(alpha, s.connection()), rule=CLASSIFICATION),
        Check(prefix + "_ricci_identity", "alpha(R(X,Y)Z, W) + alpha(R(X,Y)W, Z) = 0",
              contract("ml,mijk+mk,mijl->ijkl", alpha, riem, alpha, riem),
              rule=CLASSIFICATION),
    ])
    parallel = outcomes[0].symbolic_zero
    if parallel and not outcomes[1].symbolic_zero:
        raise InvariantError("alpha is parallel but the Ricci identity residual is nonzero")
    alpha_xi_xi = contract("ij,i,j->", alpha, s.xi, s.xi)
    outcomes += run_checks([
        Check(prefix + "_proportionality", "alpha = eps alpha(xi, xi) g",
              alpha - s.metric.field.scale(eps * alpha_xi_xi),
              (PARALLEL, PROPORTIONALITY_HYPOTHESES)),
    ], parallel=parallel, para_sasakian=para_sasakian, torse=torse)
    return outcomes + [_soliton_link(s, alpha_xi_xi, parallel, mode, mu_link, constants, prefix)]


def _soliton_link(
    structure: ParacontactStructure,
    alpha_xi_xi: Expr,
    parallel: bool,
    mode: str,
    mu_link: Fraction | None,
    constants: EinsteinLikeConstants | None,
    prefix: str,
) -> CheckOutcome:
    """The theorem "alpha parallel <=> (g, xi, lambda, mu) is a soliton" at the implied lambda."""
    check_id = prefix + "_soliton_link"
    if mu_link is None:
        return inapplicable(check_id, "alpha was not built as 1/2 L_xi g + S + mu eta (x) eta")
    eps = Fraction(structure.epsilon)
    lam_value = (-eps * alpha_xi_xi).as_rational_constant()
    if lam_value is None:
        return CheckOutcome(
            check_id,
            FAIL,
            symbolic_zero=False,
            details="alpha(xi, xi) = %s is not constant" % alpha_xi_xi,
        )
    residual = soliton_residual(structure, SolitonData(structure.xi, lam_value, mu_link), mode)
    holds = residual.is_zero()
    notes = ["implied lambda = -eps alpha(xi, xi) = %s" % lam_value]
    match = True
    if constants is not None:
        predicted = -(constants.a + eps * (constants.c + mu_link))
        match = predicted == lam_value
        verdict = "match" if match else "MISMATCH"
        notes.append("-(a + eps (c + mu)) = %s (%s)" % (predicted, verdict))
    verb = "holds" if holds else "does not hold"
    notes.append("soliton equation %s at the implied constants" % verb)
    # theorem: alpha parallel <=> (g, xi, lambda, mu) is a soliton
    equivalence = parallel == holds
    notes.append("equivalence with parallelism " + ("confirmed" if equivalence else "VIOLATED"))
    return CheckOutcome(
        check_id,
        PASS if equivalence and match else FAIL,
        symbolic_zero=holds,
        residual=residual,
        details="; ".join(notes),
        data={"implied_lambda": lam_value},
    )


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
    s, chart = structure, structure.chart
    eta, delta = s.eta, kronecker(chart)

    wedge = contract("i,kj-j,ki->kij", eta, delta, eta, delta)  # eta(d_i) d_j - eta(d_j) d_i

    def forced_by_f() -> TensorField:
        f, phi2 = torse.f, s.phi_squared()
        df = TensorField.oneform(chart, [f.differentiate(name) for name in chart.coordinates])
        return s.r_into_xi() - contract(",kij+i,kj-j,ki->kij", f * f, wedge, df, phi2, df, phi2)

    def forced_by_fit() -> tuple[TensorField, TensorField]:
        square = Fraction(a_plus_lambda) ** 2
        return (
            s.r_into_xi() - wedge.scale(square),
            s.ricci_xi(mode) - eta.scale(square * (1 - chart.dimension)),
        )

    return run_checks([
        Check("torse_eq52_curvature",
              "R(X, Y) xi = f^2 {eta(X) Y - eta(Y) X} + X(f) phi^2 Y - Y(f) phi^2 X",
              forced_by_f, (TORSE_FORMING,)),
        Check("torse_eq24_25", "R(X, Y) xi = (a + lambda)^2 {eta(X) Y - eta(Y) X} and "
              "S(X, xi) = (a + lambda)^2 (1 - n) eta(X) with a + lambda = %s" % a_plus_lambda,
              forced_by_fit, (TORSE_FORMING, SOLITON_FIT)),
    ], torse=torse, a_plus_lambda=a_plus_lambda)
