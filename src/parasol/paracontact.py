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

Each suite is a :func:`~parasol.checks.run_checks` table, one row per
identity with its residual; the implications between rows (the last two
axioms follow from the first two, and so on) are asserted after the table
runs.  The structure caches its connection, curvature and the derived
tensors the suites share (nabla phi, nabla xi, Q, nabla S, nabla Q, ...), so
each is built once per run.

An invalid structure is representable; the validators flag it rather than
refuse to construct it.  A declared epsilon that disagrees with g(xi, xi)
is a hard error, because every later formula branches on it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .checks import Check, CheckOutcome, PASS, run_checks
from .chart import Chart
from .connection import (
    ConnectionData,
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

    def lie_derivative_two_ways(self, direction: TensorField) -> tuple[TensorField, TensorField]:
        """(L_V g) by the coordinate and by the connection formula, once per direction field.

        The cache is keyed by the field object: pass the same ``TensorField``
        to reuse the result.
        """

        def build() -> tuple[TensorField, TensorField, TensorField]:
            nabla = (
                self.nabla_xi()
                if direction is self.xi
                else covariant_derivative(direction, self.connection())
            )
            # holding V keeps id(V) unique for as long as the entry lives
            return direction, *lie_derivative_two_ways(self.metric, direction, nabla)

        return self._cached(("L g", id(direction)), build)[1:]

    def lie_derivative(self, direction: TensorField) -> TensorField:
        """L_V g; the two formulas must agree (``soliton_tensor`` caches the result)."""
        via_coordinates, via_connection = self.lie_derivative_two_ways(direction)
        if not (via_coordinates - via_connection).is_zero():
            raise InvariantError("Lie derivative formulas disagree")
        return via_coordinates

    def lie_xi_metric(self) -> TensorField:
        return self.lie_derivative(self.xi)

    def soliton_tensor(self, direction: TensorField, mode: str = WEIGHTED_TRACE) -> TensorField:
        """1/2 L_V g + S, the part of every soliton residual free of lambda and mu.

        Built once per (direction field object, Ricci mode), like the Lie derivative.
        """

        def build() -> tuple[TensorField, TensorField]:
            half = Expr.constant(self.chart, "1/2")
            return direction, self.lie_derivative(direction).scale(half) + self.ricci(mode)

        return self._cached(("1/2 L g + S", id(direction), mode), build)[1]

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

    def ricci_derivatives(self, mode: str = WEIGHTED_TRACE) -> tuple[TensorField, ...]:
        """(Q, nabla S, nabla Q) for the Ricci operator Q, g(QX, Y) = S(X, Y).

        nabla S[j, k, i] = (nabla_i S)(d_j, d_k), nabla Q[k, j, i] = ((nabla_i Q) d_j)^k.
        """

        def build() -> tuple[TensorField, ...]:
            q = self.metric.raise_index(self.ricci(mode), 0)
            conn = self.connection()
            return q, covariant_derivative(self.ricci(mode), conn), covariant_derivative(q, conn)

        return self._cached(("Q, nabla S, nabla Q", mode), build)

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

    def eta_tensor_eta(self) -> TensorField:
        return self._cached("eta eta", lambda: contract("i,j->ij", self.eta, self.eta))


# ---------------------------------------------------------------------------
# validation suites
# ---------------------------------------------------------------------------


def _require_implied(premises: list[CheckOutcome], implied: list[CheckOutcome], what: str) -> None:
    """An implication the algebra guarantees: its failure is a canonicalization bug."""
    if all(o.status == PASS for o in premises) and any(o.status != PASS for o in implied):
        raise InvariantError(what)


def validate_axioms(structure: ParacontactStructure) -> list[CheckOutcome]:
    """The four structure axioms as named residual checks.

    When the phi-square and eta(xi) checks pass, the remaining two are
    implied; that implication is asserted outright since its failure would
    mean a canonicalization bug, not bad input data.  The suite runs once per
    structure; each call returns a fresh list.
    """
    return list(structure._cached("axioms", lambda: _axiom_outcomes(structure)))


def _axiom_outcomes(s: ParacontactStructure) -> list[CheckOutcome]:
    phi, xi, eta = s.phi, s.xi, s.eta
    outcomes = run_checks([
        Check("axiom_phi_square", "phi^2 = I - eta (x) xi",
              s.phi_squared() - kronecker(s.chart) + contract("i,j->ij", xi, eta)),
        Check("axiom_eta_xi", "eta(xi) = 1", contract("i,i->", eta, xi) - 1),
        Check("axiom_phi_xi", "phi(xi) = 0", contract("km,m->k", phi, xi)),
        Check("axiom_eta_phi", "eta o phi = 0", contract("m,mi->i", eta, phi)),
    ])
    _require_implied(
        outcomes[:2], outcomes[2:], "phi^2 and eta(xi) axioms hold but an implied axiom failed"
    )
    return outcomes


def validate_metric_compat(structure: ParacontactStructure) -> list[CheckOutcome]:
    """Metric compatibility residuals; the last two follow from the first.

    The suite runs once per structure; each call returns a fresh list.
    """
    return list(structure._cached("compat", lambda: _compat_outcomes(structure)))


def _compat_outcomes(s: ParacontactStructure) -> list[CheckOutcome]:
    g, phi, xi, eta = s.metric.field, s.phi, s.xi, s.eta
    eps_eta = eta.scale(s.epsilon)
    outcomes = run_checks([
        Check("compat_metric_phi", "g(phi X, phi Y) = g(X, Y) - eps eta(X) eta(Y)",
              s.g_phi_phi() - g + contract("i,j->ij", eps_eta, eta)),
        Check("compat_metric_xi", "g(X, xi) = eps eta(X)", contract("im,m->i", g, xi) - eps_eta),
        Check("compat_phi_transpose", "g(X, phi Y) = g(phi X, Y)",
              contract("im,mj-mj,mi->ij", g, phi, g, phi)),
    ])
    _require_implied(
        validate_axioms(s) + outcomes[:1],
        outcomes[1:],
        "first compatibility identity holds but an implied identity failed",
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


def _para_sasakian_outcomes(s: ParacontactStructure) -> list[CheckOutcome]:
    eps = Fraction(s.epsilon)
    outcomes = run_checks([
        # X = d_i, Y = d_j: (nabla_i phi) d_j + g(phi d_i, phi d_j) xi + eps eta_j phi^2 d_i
        Check("para_sasakian_nabla_phi",
              "(nabla_X phi)Y = -g(phi X, phi Y) xi - eps eta(Y) phi^2 X",
              contract("kji+ij,k+j,ki->kij", s.nabla_phi(), s.g_phi_phi(), s.xi,
                       s.eta.scale(eps), s.phi_squared())),
        Check("para_sasakian_nabla_xi", "nabla xi = eps phi", s.nabla_xi() - s.phi.scale(eps)),
    ])
    _require_implied(
        outcomes[:1], outcomes[1:], "para-Sasakian condition holds but nabla xi = eps phi failed"
    )
    return outcomes


def sasakian_identity_suite(structure: ParacontactStructure) -> list[CheckOutcome]:
    """The four para-Sasakian curvature identities and nabla_xi xi = 0.

    The residuals use the structure's own curvature (weighted-trace Ricci)
    and the derived tensors it caches.
    """
    s, n = structure, structure.chart.dimension
    g, xi, eta = s.metric.field, s.xi, s.eta
    eps = Fraction(s.epsilon)
    delta = kronecker(s.chart)
    eps_eta = eta.scale(eps)
    return run_checks([
        Check("ps_identity_r_xy_xi", "R(X, Y) xi = eta(X) Y - eta(Y) X",
              contract("kij-i,kj+j,ki->kij", s.r_into_xi(), eta, delta, eta, delta)),
        Check("ps_identity_r_xi_x", "R(xi, X) Y = -eps g(X, Y) xi + eta(Y) X",
              contract("kij+ij,k-j,ki->kij", s.r_xi(), g.scale(eps), xi, eta, delta)),
        Check("ps_identity_eta_r", "eta(R(X, Y) Z) = -eps eta(X) g(Y, Z) + eps eta(Y) g(X, Z)",
              contract("ijm+i,jm-j,im->ijm", contract("k,kijm->ijm", eta, s.riemann()),
                       eps_eta, g, eps_eta, g)),
        Check("ps_identity_s_xi", "S(X, xi) = -(n - 1) eta(X)",
              s.ricci_xi(WEIGHTED_TRACE) + eta.scale(n - 1)),
        Check("xi_geodesic", "nabla_xi xi = 0", contract("c,kc->k", xi, s.nabla_xi())),
    ])
