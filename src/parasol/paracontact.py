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
from typing import Callable

from .checks import CheckOutcome, PASS, residual_outcome
from .chart import Chart
from .connection import (
    ConnectionData,
    CurvatureData,
    PAPER_FRAME_SUM,
    WEIGHTED_TRACE,
    christoffel,
    covariant_derivative,
    lie_derivative_two_ways,
    ricci,
    riemann,
)
from .symexpr import Expr, InvariantError
from .tensor import Frame, Metric, TensorField, contract, kronecker

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

    Connection, curvature, the derived tensors the check suites share and
    the suites' own outcomes are computed on first use and cached;
    everything is immutable so the caches are safe to share.
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
        self._cache: dict[object, object] = {}
        # id(V) -> (V, coordinate formula, connection formula); holding V keeps its id unique
        self._lie: dict[int, tuple[TensorField, TensorField, TensorField]] = {}
        self._lie_checked: set[int] = set()

    def _cached(self, key, build: Callable[[], object]):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    # -- cached geometry -----------------------------------------------------

    def connection(self) -> ConnectionData:
        return self._cached("connection", lambda: christoffel(self.metric))

    def riemann(self) -> TensorField:
        return self._cached("riemann", lambda: riemann(self.connection()))

    def ricci(self, mode: str = WEIGHTED_TRACE) -> TensorField:
        frame = self.frame if mode == PAPER_FRAME_SUM else None
        return self._cached(
            ("ricci", mode), lambda: ricci(self.riemann(), mode, metric=self.metric, frame=frame)
        )

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

    # -- derived tensors shared by the check suites ----------------------------

    def phi_squared(self) -> TensorField:
        return self._cached("phi^2", lambda: contract("km,mj->kj", self.phi, self.phi))

    def g_phi_phi(self) -> TensorField:
        """g(phi X, phi Y)."""
        return self._cached(
            "g(phi, phi)", lambda: contract("ab,ai,bj->ij", self.metric.field, self.phi, self.phi)
        )

    def nabla_phi(self) -> TensorField:
        """nabla phi[k, j, i] = ((nabla_i phi) d_j)^k."""
        return self._cached("nabla phi", lambda: covariant_derivative(self.phi, self.connection()))

    def nabla_xi(self) -> TensorField:
        """nabla xi[k, i] = (nabla_i xi)^k."""
        return self._cached("nabla xi", lambda: covariant_derivative(self.xi, self.connection()))

    def r_into_xi(self) -> TensorField:
        """R(., .) xi: [k, i, j] = (R(d_i, d_j) xi)^k."""
        return self._cached("R(., .) xi", lambda: contract("kijm,m->kij", self.riemann(), self.xi))

    def r_xi(self) -> TensorField:
        """R(xi, .) .: [k, i, j] = (R(xi, d_i) d_j)^k."""
        return self._cached("R(xi, .) .", lambda: contract("kmij,m->kij", self.riemann(), self.xi))

    def ricci_xi(self, mode: str = WEIGHTED_TRACE) -> TensorField:
        """S(., xi)."""
        return self._cached(("S(., xi)", mode), lambda: contract("ij,j->i", self.ricci(mode), self.xi))

    def frame_signs(self) -> tuple[int, ...]:
        if self.frame is None:
            raise StructureError("structure carries no frame")
        return self.frame.orthonormal_signs(self.metric)

    def eta_of(self, vector: TensorField) -> Expr:
        return contract("i,i->", self.eta, vector)

    def eta_tensor_eta(self) -> TensorField:
        return contract("i,j->ij", self.eta, self.eta)


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
    return list(structure._cached("axioms", lambda: _axiom_outcomes(structure)))


def _axiom_outcomes(structure: ParacontactStructure) -> list[CheckOutcome]:
    phi, xi, eta = structure.phi, structure.xi, structure.eta
    phi_square = structure.phi_squared() - kronecker(structure.chart) + contract("i,j->ij", xi, eta)
    outcomes = [
        residual_outcome("axiom_phi_square", phi_square, "phi^2 = I - eta (x) xi"),
        residual_outcome("axiom_eta_xi", structure.eta_of(xi) - 1, "eta(xi) = 1"),
        residual_outcome("axiom_phi_xi", contract("km,m->k", phi, xi), "phi(xi) = 0"),
        residual_outcome("axiom_eta_phi", contract("m,mi->i", eta, phi), "eta o phi = 0"),
    ]
    if outcomes[0].status == PASS and outcomes[1].status == PASS:
        if outcomes[2].status != PASS or outcomes[3].status != PASS:
            raise InvariantError("phi^2 and eta(xi) axioms hold but an implied axiom failed")
    return outcomes


def validate_metric_compat(structure: ParacontactStructure) -> list[CheckOutcome]:
    """Metric compatibility residuals; the last two follow from the first.

    The suite runs once per structure; each call returns a fresh list.
    """
    return list(structure._cached("compat", lambda: _compat_outcomes(structure)))


def _compat_outcomes(structure: ParacontactStructure) -> list[CheckOutcome]:
    g, phi, xi, eta = structure.metric.field, structure.phi, structure.xi, structure.eta
    eps_eta = eta.scale(structure.epsilon)
    outcomes = [
        residual_outcome(
            "compat_metric_phi",
            structure.g_phi_phi() - g + contract("i,j->ij", eps_eta, eta),
            "g(phi X, phi Y) = g(X, Y) - eps eta(X) eta(Y)",
        ),
        residual_outcome(
            "compat_metric_xi", contract("im,m->i", g, xi) - eps_eta, "g(X, xi) = eps eta(X)"
        ),
        residual_outcome(
            "compat_phi_transpose",
            contract("im,mj-mj,mi->ij", g, phi, g, phi),
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
    calling this on an invalid structure raises.  The suite runs once per
    structure; each call returns a fresh list.
    """
    if not structure_is_valid(structure):
        raise StructureError(
            "para-Sasakian test requires a structure passing the axiom and "
            "metric-compatibility suites"
        )
    return list(structure._cached("para-Sasakian", lambda: _para_sasakian_outcomes(structure)))


def _para_sasakian_outcomes(structure: ParacontactStructure) -> list[CheckOutcome]:
    phi, xi, eta = structure.phi, structure.xi, structure.eta
    eps = Fraction(structure.epsilon)
    # X = d_i, Y = d_j: (nabla_i phi) d_j + g(phi d_i, phi d_j) xi + eps eta_j phi^2 d_i
    nabla_phi_residual = contract(
        "kji+ij,k+j,ki->kij",
        structure.nabla_phi(),
        structure.g_phi_phi(),
        xi,
        eta.scale(eps),
        structure.phi_squared(),
    )
    outcomes = [
        residual_outcome(
            "para_sasakian_nabla_phi",
            nabla_phi_residual,
            "(nabla_X phi)Y = -g(phi X, phi Y) xi - eps eta(Y) phi^2 X",
        ),
        residual_outcome(
            "para_sasakian_nabla_xi", structure.nabla_xi() - phi.scale(eps), "nabla xi = eps phi"
        ),
    ]
    if outcomes[0].status == PASS:
        if outcomes[1].status != PASS:
            raise InvariantError("para-Sasakian condition holds but nabla xi = eps phi failed")
    return outcomes


def sasakian_identity_suite(
    structure: ParacontactStructure, curvature: CurvatureData
) -> list[CheckOutcome]:
    """The four para-Sasakian curvature identities (weighted-trace Ricci).

    ``curvature`` is the structure's own (``structure.curvature()``); the
    residuals come from the derived tensors the structure caches.
    """
    if curvature.ricci_mode != WEIGHTED_TRACE:
        raise StructureError(
            "the para-Sasakian identity suite requires the weighted-trace Ricci; "
            "got %r" % curvature.ricci_mode
        )
    n = structure.chart.dimension
    g, xi, eta = structure.metric.field, structure.xi, structure.eta
    eps = Fraction(structure.epsilon)
    delta = kronecker(structure.chart)
    eps_eta = eta.scale(eps)
    eta_r = contract("k,kijm->ijm", eta, curvature.riemann)
    return [
        residual_outcome(
            "ps_identity_r_xy_xi",
            contract("kij-i,kj+j,ki->kij", structure.r_into_xi(), eta, delta, eta, delta),
            "R(X, Y) xi = eta(X) Y - eta(Y) X",
        ),
        residual_outcome(
            "ps_identity_r_xi_x",
            contract("kij+ij,k-j,ki->kij", structure.r_xi(), g.scale(eps), xi, eta, delta),
            "R(xi, X) Y = -eps g(X, Y) xi + eta(Y) X",
        ),
        residual_outcome(
            "ps_identity_eta_r",
            contract("ijm+i,jm-j,im->ijm", eta_r, eps_eta, g, eps_eta, g),
            "eta(R(X, Y) Z) = -eps eta(X) g(Y, Z) + eps eta(Y) g(X, Z)",
        ),
        residual_outcome(
            "ps_identity_s_xi",
            structure.ricci_xi(WEIGHTED_TRACE) + eta.scale(n - 1),
            "S(X, xi) = -(n - 1) eta(X)",
        ),
        residual_outcome(
            "xi_geodesic", contract("c,kc->k", xi, structure.nabla_xi()), "nabla_xi xi = 0"
        ),
    ]
