"""Almost paracontact metric structures and their axiom suites.

A structure bundles a (1,1) tensor phi, a vector field xi, a 1-form eta, a
pseudo-Riemannian metric g and a sign epsilon = g(xi, xi) in {+1, -1}.  The
axioms checked here, with all residuals kept symbolic:

    phi^2 = I - eta (x) xi          eta(xi) = 1
    phi xi = 0                      eta o phi = 0
    g(phi X, phi Y) = g(X, Y) - eps eta(X) eta(Y)
    g(X, xi) = eps eta(X)           g(X, phi Y) = g(phi X, Y)

The para-Sasakian condition and its curvature consequences:

    (nabla_X phi) Y = -g(phi X, phi Y) xi - eps eta(Y) phi^2 X
    nabla xi = eps phi
    R(X, Y) xi = eta(X) Y - eta(Y) X
    R(xi, X) Y = -eps g(X, Y) xi + eta(Y) X
    eta(R(X, Y) Z) = -eps eta(X) g(Y, Z) + eps eta(Y) g(X, Z)
    S(X, xi) = -(n - 1) eta(X)

An invalid structure is representable; the validators flag it rather than
refuse to construct it.  A declared epsilon that disagrees with g(xi, xi)
is a hard error, because every later formula branches on it.
"""

from __future__ import annotations

from fractions import Fraction

from .checks import CheckOutcome, PASS, residual_outcome
from .chart import Chart
from .connection import (
    ConnectionData,
    CurvatureData,
    PAPER_FRAME_SUM,
    WEIGHTED_TRACE,
    christoffel,
    covariant_derivative,
    covariant_derivative_along,
    lie_derivative_two_ways,
    ricci,
    riemann,
)
from .symexpr import Expr, InvariantError
from .tensor import Frame, Metric, TensorField, kronecker

__all__ = [
    "ParacontactStructure",
    "StructureError",
    "detect_epsilon",
    "validate_axioms",
    "validate_metric_compat",
    "is_para_sasakian",
    "sasakian_identity_suite",
]


class StructureError(ValueError):
    pass


def detect_epsilon(metric: Metric, xi: TensorField) -> int:
    """The canonical constant value of g(xi, xi) when it is +1 or -1."""
    value = metric.inner(xi, xi)
    if (value - 1).is_symbolically_zero:
        return 1
    if (value + 1).is_symbolically_zero:
        return -1
    raise StructureError(
        "g(xi, xi) = %s is not the constant +1 or -1; "
        "the structure vector field must never be lightlike" % value
    )


class ParacontactStructure:
    """The bundle (phi, xi, eta, g, eps) over one chart, with geometry caches.

    Connection, curvature and Lie-derivative data are computed on first use
    and cached; everything is immutable so the caches are safe to share.
    """

    def __init__(
        self,
        phi: TensorField,
        xi: TensorField,
        eta: TensorField,
        metric: Metric,
        epsilon: int | None = None,
        frame: Frame | None = None,
    ):
        chart = metric.chart
        for name, field, valence in (
            ("phi", phi, (1, 1)),
            ("xi", xi, (1, 0)),
            ("eta", eta, (0, 1)),
        ):
            chart.require_same(field.chart)
            if field.valence != valence:
                raise StructureError("%s must have valence %r" % (name, valence))
        detected = detect_epsilon(metric, xi)
        if epsilon is not None and epsilon != detected:
            raise StructureError(
                "declared epsilon %+d disagrees with g(xi, xi) = %+d" % (epsilon, detected)
            )
        self.chart: Chart = chart
        self.phi = phi
        self.xi = xi
        self.eta = eta
        self.metric = metric
        self.epsilon = detected
        self.frame = frame
        self._connection: ConnectionData | None = None
        self._riemann: TensorField | None = None
        self._ricci: dict[str, TensorField] = {}
        # id(V) -> (V, coordinate formula, connection formula); holding V keeps its id unique
        self._lie: dict[int, tuple[TensorField, TensorField, TensorField]] = {}
        self._lie_checked: set[int] = set()
        self._phi_squared: TensorField | None = None
        self._axioms: list[CheckOutcome] | None = None
        self._compat: list[CheckOutcome] | None = None

    # -- cached geometry -----------------------------------------------------

    def connection(self) -> ConnectionData:
        if self._connection is None:
            self._connection = christoffel(self.metric)
        return self._connection

    def riemann(self) -> TensorField:
        if self._riemann is None:
            self._riemann = riemann(self.connection())
        return self._riemann

    def ricci(self, mode: str = WEIGHTED_TRACE) -> TensorField:
        if mode not in self._ricci:
            frame = self.frame if mode == PAPER_FRAME_SUM else None
            self._ricci[mode] = ricci(self.riemann(), mode, metric=self.metric, frame=frame)
        return self._ricci[mode]

    def curvature(self, mode: str = WEIGHTED_TRACE) -> CurvatureData:
        return CurvatureData(riemann=self.riemann(), ricci=self.ricci(mode), ricci_mode=mode)

    def lie_derivative_two_ways(self, direction: TensorField) -> tuple[TensorField, TensorField]:
        """(L_V g) by the coordinate and by the connection formula, once per direction field.

        The cache is keyed by the field object: pass the same ``TensorField``
        to reuse the result.
        """
        cached = self._lie.get(id(direction))
        if cached is None:
            pair = lie_derivative_two_ways(self.metric, direction, self.connection())
            cached = self._lie[id(direction)] = (direction, *pair)
        return cached[1], cached[2]

    def lie_derivative(self, direction: TensorField) -> TensorField:
        """L_V g; the two formulas are compared once per direction and must agree."""
        via_coordinates, via_connection = self.lie_derivative_two_ways(direction)
        if id(direction) not in self._lie_checked:
            if not (via_coordinates - via_connection).is_zero():
                raise InvariantError("Lie derivative formulas disagree")
            self._lie_checked.add(id(direction))
        return via_coordinates

    def lie_xi_metric(self) -> TensorField:
        return self.lie_derivative(self.xi)

    def phi_squared(self) -> TensorField:
        if self._phi_squared is None:
            n = self.chart.dimension

            def entry(idx):
                k, j = idx
                total = Expr.zero(self.chart)
                for m in range(n):
                    total = total + self.phi[k, m] * self.phi[m, j]
                return total

            self._phi_squared = TensorField.build(self.chart, 1, 1, entry)
        return self._phi_squared

    def frame_signs(self) -> tuple[int, ...]:
        if self.frame is None:
            raise StructureError("structure carries no frame")
        return self.frame.orthonormal_signs(self.metric)

    def eta_of(self, vector: TensorField) -> Expr:
        total = Expr.zero(self.chart)
        for i in range(self.chart.dimension):
            total = total + self.eta[i] * vector[i]
        return total

    def eta_tensor_eta(self) -> TensorField:
        return self.eta.tensor_product(self.eta)


# ---------------------------------------------------------------------------
# validation suites
# ---------------------------------------------------------------------------


def validate_axioms(structure: ParacontactStructure) -> list[CheckOutcome]:
    """The four structure axioms as named residual checks.

    When the phi-square and eta(xi) checks pass, the remaining two are
    implied; that implication is asserted outright since its failure would
    mean a canonicalization bug, not bad input data.  The suite runs once per
    structure; each call returns a fresh list.
    """
    if structure._axioms is None:
        structure._axioms = _axiom_outcomes(structure)
    return list(structure._axioms)


def _axiom_outcomes(structure: ParacontactStructure) -> list[CheckOutcome]:
    chart = structure.chart
    phi, xi, eta = structure.phi, structure.xi, structure.eta

    phi_square = structure.phi_squared() - kronecker(chart) + xi.tensor_product(eta)
    eta_xi = structure.eta_of(xi) - 1
    phi_xi = TensorField.build(
        chart,
        1,
        0,
        lambda idx: sum(
            (phi[idx[0], m] * xi[m] for m in range(chart.dimension)), Expr.zero(chart)
        ),
    )
    eta_phi = TensorField.build(
        chart,
        0,
        1,
        lambda idx: sum(
            (eta[m] * phi[m, idx[0]] for m in range(chart.dimension)), Expr.zero(chart)
        ),
    )

    outcomes = [
        residual_outcome("axiom_phi_square", phi_square, "phi^2 = I - eta (x) xi"),
        residual_outcome("axiom_eta_xi", eta_xi, "eta(xi) = 1"),
        residual_outcome("axiom_phi_xi", phi_xi, "phi(xi) = 0"),
        residual_outcome("axiom_eta_phi", eta_phi, "eta o phi = 0"),
    ]
    if outcomes[0].status == PASS and outcomes[1].status == PASS:
        if outcomes[2].status != PASS or outcomes[3].status != PASS:
            raise InvariantError("phi^2 and eta(xi) axioms hold but an implied axiom failed")
    return outcomes


def validate_metric_compat(structure: ParacontactStructure) -> list[CheckOutcome]:
    """Metric compatibility residuals; the last two follow from the first.

    The suite runs once per structure; each call returns a fresh list.
    """
    if structure._compat is None:
        structure._compat = _compat_outcomes(structure)
    return list(structure._compat)


def _compat_outcomes(structure: ParacontactStructure) -> list[CheckOutcome]:
    chart = structure.chart
    n = chart.dimension
    g, phi, xi, eta = structure.metric, structure.phi, structure.xi, structure.eta
    eps = structure.epsilon

    def compat_phi_phi(idx):
        i, j = idx
        total = Expr.zero(chart)
        for a in range(n):
            for b in range(n):
                total = total + g[a, b] * phi[a, i] * phi[b, j]
        return total - g[i, j] + Fraction(eps) * eta[i] * eta[j]

    def compat_xi_flat(idx):
        (i,) = idx
        total = Expr.zero(chart)
        for m in range(n):
            total = total + g[i, m] * xi[m]
        return total - Fraction(eps) * eta[i]

    def compat_phi_symmetric(idx):
        i, j = idx
        total = Expr.zero(chart)
        for m in range(n):
            total = total + g[i, m] * phi[m, j] - g[m, j] * phi[m, i]
        return total

    outcomes = [
        residual_outcome(
            "compat_metric_phi",
            TensorField.build(chart, 0, 2, compat_phi_phi),
            "g(phi X, phi Y) = g(X, Y) - eps eta(X) eta(Y)",
        ),
        residual_outcome(
            "compat_metric_xi",
            TensorField.build(chart, 0, 1, compat_xi_flat),
            "g(X, xi) = eps eta(X)",
        ),
        residual_outcome(
            "compat_phi_transpose",
            TensorField.build(chart, 0, 2, compat_phi_symmetric),
            "g(X, phi Y) = g(phi X, Y)",
        ),
    ]
    axioms_pass = all(o.status == PASS for o in validate_axioms(structure))
    if axioms_pass and outcomes[0].status == PASS:
        if outcomes[1].status != PASS or outcomes[2].status != PASS:
            raise InvariantError(
                "first compatibility identity holds but an implied identity failed"
            )
    return outcomes


def structure_is_valid(structure: ParacontactStructure) -> bool:
    return all(
        o.status == PASS
        for o in validate_axioms(structure) + validate_metric_compat(structure)
    )


def is_para_sasakian(structure: ParacontactStructure) -> list[CheckOutcome]:
    """Residuals of the para-Sasakian condition and of nabla xi = eps phi.

    Precondition: the structure passes the axiom and compatibility suites;
    calling this on an invalid structure raises.
    """
    if not structure_is_valid(structure):
        raise StructureError(
            "para-Sasakian test requires a structure passing the axiom and "
            "metric-compatibility suites"
        )
    chart = structure.chart
    n = chart.dimension
    g, phi, xi, eta = structure.metric, structure.phi, structure.xi, structure.eta
    eps = Fraction(structure.epsilon)
    conn = structure.connection()
    nabla_phi = covariant_derivative(phi, conn)  # [k, j, i]: (nabla_i phi)(d_j)^k
    nabla_xi = covariant_derivative(xi, conn)  # [k, i]
    phi2 = structure.phi_squared()

    g_phi_phi = TensorField.build(
        chart,
        0,
        2,
        lambda idx: sum(
            (
                g[a, b] * phi[a, idx[0]] * phi[b, idx[1]]
                for a in range(n)
                for b in range(n)
            ),
            Expr.zero(chart),
        ),
    )

    def para2_entry(idx):
        k, i, j = idx  # X = d_i, Y = d_j
        return nabla_phi[k, j, i] + g_phi_phi[i, j] * xi[k] + eps * eta[j] * phi2[k, i]

    def para3_entry(idx):
        k, i = idx
        return nabla_xi[k, i] - eps * phi[k, i]

    outcomes = [
        residual_outcome(
            "para_sasakian_nabla_phi",
            TensorField.build(chart, 1, 2, para2_entry),
            "(nabla_X phi)Y = -g(phi X, phi Y) xi - eps eta(Y) phi^2 X",
        ),
        residual_outcome(
            "para_sasakian_nabla_xi",
            TensorField.build(chart, 1, 1, para3_entry),
            "nabla xi = eps phi",
        ),
    ]
    if outcomes[0].status == PASS:
        if outcomes[1].status != PASS:
            raise InvariantError("para-Sasakian condition holds but nabla xi = eps phi failed")
    return outcomes


def sasakian_identity_suite(
    structure: ParacontactStructure, curvature: CurvatureData
) -> list[CheckOutcome]:
    """The four para-Sasakian curvature identities (weighted-trace Ricci)."""
    if curvature.ricci_mode != WEIGHTED_TRACE:
        raise StructureError(
            "the para-Sasakian identity suite requires the weighted-trace Ricci; "
            "got %r" % curvature.ricci_mode
        )
    chart = structure.chart
    n = chart.dimension
    g, xi, eta = structure.metric, structure.xi, structure.eta
    eps = Fraction(structure.epsilon)
    riem = curvature.riemann
    ricci_tensor = curvature.ricci

    def r_xy_xi(idx):
        k, i, j = idx
        total = Expr.zero(chart)
        for m in range(n):
            total = total + riem[k, i, j, m] * xi[m]
        delta_ki = Expr.one(chart) if k == i else Expr.zero(chart)
        delta_kj = Expr.one(chart) if k == j else Expr.zero(chart)
        return total - eta[i] * delta_kj + eta[j] * delta_ki

    def r_xi_x_y(idx):
        k, i, j = idx  # X = d_i, Y = d_j
        total = Expr.zero(chart)
        for m in range(n):
            total = total + riem[k, m, i, j] * xi[m]
        delta_ki = Expr.one(chart) if k == i else Expr.zero(chart)
        return total + eps * g[i, j] * xi[k] - eta[j] * delta_ki

    def eta_r(idx):
        i, j, m = idx
        total = Expr.zero(chart)
        for k in range(n):
            total = total + eta[k] * riem[k, i, j, m]
        return total + eps * eta[i] * g[j, m] - eps * eta[j] * g[i, m]

    def s_xi(idx):
        (i,) = idx
        total = Expr.zero(chart)
        for j in range(n):
            total = total + ricci_tensor[i, j] * xi[j]
        return total + Fraction(n - 1) * eta[i]

    return [
        residual_outcome(
            "ps_identity_r_xy_xi",
            TensorField.build(chart, 1, 2, r_xy_xi),
            "R(X, Y) xi = eta(X) Y - eta(Y) X",
        ),
        residual_outcome(
            "ps_identity_r_xi_x",
            TensorField.build(chart, 1, 2, r_xi_x_y),
            "R(xi, X) Y = -eps g(X, Y) xi + eta(Y) X",
        ),
        residual_outcome(
            "ps_identity_eta_r",
            TensorField.build(chart, 0, 3, eta_r),
            "eta(R(X, Y) Z) = -eps eta(X) g(Y, Z) + eps eta(Y) g(X, Z)",
        ),
        residual_outcome(
            "ps_identity_s_xi",
            TensorField.build(chart, 0, 1, s_xi),
            "S(X, xi) = -(n - 1) eta(X)",
        ),
        residual_outcome(
            "xi_geodesic",
            covariant_derivative_along(xi, structure.connection(), xi),
            "nabla_xi xi = 0",
        ),
    ]
