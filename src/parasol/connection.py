"""Levi-Civita connection, curvature and Lie derivatives of the metric.

Conventions (pinned by reproducing the bundled 3-dimensional example tables
exactly):

* Christoffel symbols ``G^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)``
  stored as a (1, 2) tensor ``gamma[k, i, j]``.
* Curvature ``R(X, Y)Z = D_X D_Y Z - D_Y D_X Z - D_[X,Y] Z``; components
  ``riem[l, i, j, k] = dx^l(R(d_i, d_j) d_k)``, i.e.
  ``d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik``.
* Two Ricci contractions: the signature-weighted trace
  ``S(X, Y) = trace(Z -> R(Z, X)Y)`` (the tensorial default, frame
  independent) and the plain orthonormal-frame sum
  ``sum_i g(R(E_i, X)Y, E_i)`` without the signature weights, kept only to
  reproduce published tables that use it.  Every report states which mode
  produced which number.
* Covariant derivatives append the differentiation slot as the last
  covariant index.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .chart import Chart
from .symexpr import Expr, InvariantError
from .tensor import Frame, Metric, TensorField, ValenceError, contract, partials

__all__ = [
    "ConnectionData",
    "RICCI_MODES",
    "christoffel",
    "covariant_derivative",
    "covariant_derivative_along",
    "riemann",
    "ricci",
    "frame_sum",
    "scalar_curvature",
    "lie_derivative_metric",
    "lie_derivative_two_ways",
]

WEIGHTED_TRACE = "weighted_trace"
PAPER_FRAME_SUM = "paper_frame_sum"
RICCI_MODES = (WEIGHTED_TRACE, PAPER_FRAME_SUM)


@dataclass(frozen=True)
class ConnectionData:
    """Christoffel symbols of a metric, gamma[k, i, j] symmetric in (i, j)."""

    gamma: TensorField

    @property
    def chart(self) -> Chart:
        return self.gamma.chart


def christoffel(metric: Metric) -> ConnectionData:
    """Levi-Civita Christoffel symbols of an invertible metric."""
    chart = metric.chart
    n = chart.dimension
    coords = chart.coordinates
    dg = [
        [[metric[i, j].differentiate(coords[l]) for l in range(n)] for j in range(n)]
        for i in range(n)
    ]
    half = Expr.constant(chart, "1/2")

    def entry(idx: tuple[int, ...]) -> Expr:
        k, i, j = idx
        total = Expr.zero(chart)
        for l in range(n):
            total = total + metric.inverse[k, l] * (dg[j][l][i] + dg[i][l][j] - dg[i][j][l])
        return half * total

    return ConnectionData(TensorField.build(chart, 1, 2, entry))


def covariant_derivative(tensor: TensorField, connection: ConnectionData) -> TensorField:
    """nabla T with the derivative slot appended as the last covariant index."""
    tensor.chart.require_same(connection.chart)
    chart = tensor.chart
    n = chart.dimension
    coords = chart.coordinates
    gamma = connection.gamma
    p, q = tensor.p, tensor.q

    def entry(idx: tuple[int, ...]) -> Expr:
        ups = idx[:p]
        downs = idx[p : p + q]
        c = idx[p + q]
        total = tensor[ups + downs].differentiate(coords[c])
        for slot in range(p):
            for m in range(n):
                replaced = ups[:slot] + (m,) + ups[slot + 1 :]
                total = total + gamma[ups[slot], c, m] * tensor[replaced + downs]
        for slot in range(q):
            for m in range(n):
                replaced = downs[:slot] + (m,) + downs[slot + 1 :]
                total = total - gamma[m, c, downs[slot]] * tensor[ups + replaced]
        return total

    return TensorField.build(chart, p, q + 1, entry)


def covariant_derivative_along(
    tensor: TensorField, connection: ConnectionData, direction: TensorField
) -> TensorField:
    """nabla_X T: contract the derivative slot of nabla T with a vector field."""
    if direction.valence != (1, 0):
        raise ValenceError("direction must be a vector field")
    letters = string.ascii_uppercase[: tensor.rank]
    nabla = covariant_derivative(tensor, connection)
    return contract("c,%sc->%s" % (letters, letters), direction, nabla)


def riemann(connection: ConnectionData) -> TensorField:
    """Riemann tensor riem[l, i, j, k] = dx^l(R(d_i, d_j) d_k)."""
    chart = connection.chart
    n = chart.dimension
    coords = chart.coordinates
    gamma = connection.gamma
    dgamma = [
        [
            [[gamma[l, j, k].differentiate(coords[i]) for k in range(n)] for j in range(n)]
            for l in range(n)
        ]
        for i in range(n)
    ]

    def entry(idx: tuple[int, ...]) -> Expr:
        l, i, j, k = idx
        total = dgamma[i][l][j][k] - dgamma[j][l][i][k]
        for m in range(n):
            total = total + gamma[l, i, m] * gamma[m, j, k] - gamma[l, j, m] * gamma[m, i, k]
        return total

    return TensorField.build(chart, 1, 3, entry)


def ricci(
    riem: TensorField,
    mode: str = WEIGHTED_TRACE,
    metric: Metric | None = None,
    frame: Frame | None = None,
) -> TensorField:
    """Ricci tensor in one of the two supported contraction modes.

    ``weighted_trace`` is the coordinate contraction S_jk = R^i_ijk,
    equivalently the signature-weighted orthonormal frame sum; it is frame
    independent.  ``paper_frame_sum`` needs a symbolically orthonormal frame
    and a metric and omits the signature weights.
    """
    if mode == WEIGHTED_TRACE:
        return contract("iijk->jk", riem)
    if mode == PAPER_FRAME_SUM:
        if frame is None or metric is None:
            raise ValenceError("paper_frame_sum Ricci needs an orthonormal frame and a metric")
        frame.orthonormal_signs(metric)  # raises if not orthonormal
        return frame_sum(riem, metric, frame)
    raise ValueError("unknown ricci mode %r" % mode)


def frame_sum(
    riem: TensorField, metric: Metric, frame: Frame, weights: Sequence[int] | None = None
) -> TensorField:
    """sum_v w_v g(R(E_v, X)Y, E_v) over the frame vectors E_v; every w_v = 1 by default."""
    chart = metric.chart
    n = chart.dimension
    rows = TensorField(chart, 1, 1, [vec[a] for vec in frame for a in range(n)])
    weighted = rows
    if weights is not None:
        weighted = TensorField(
            chart, 1, 1, [vec[a] * Fraction(w) for w, vec in zip(weights, frame) for a in range(n)]
        )
    # a numbers the frame vectors, outermost as in the sum over v; b, c, d are coordinates
    return contract("ab,cbjk,cd,ad->jk", weighted, riem, metric.field, rows)


def scalar_curvature(ricci_tensor: TensorField, metric: Metric) -> Expr:
    """r = g^{jk} S_jk."""
    return contract("jk,jk->", metric.inverse, ricci_tensor)


def lie_derivative_two_ways(
    metric: Metric, direction: TensorField, nabla_direction: TensorField
) -> tuple[TensorField, TensorField]:
    """(L_V g) by the coordinate formula and by the connection formula.

    ``nabla_direction`` is nabla V, [k, i] = (nabla_i V)^k.  Returns
    (V^k d_k g_ij + g_kj d_i V^k + g_ik d_j V^k,
    g(nabla_X V, Y) + g(X, nabla_Y V)); the two must agree symbolically and
    callers cross-check them, since the Lie derivative is the highest-risk
    term of the soliton residual.
    """
    if direction.valence != (1, 0):
        raise ValenceError("Lie derivative direction must be a vector field")
    dv = partials(direction)  # dv[k, i] = d_i V^k
    g = metric.field
    via_coordinates = contract("k,ijk+kj,ki+ik,kj->ij", direction, partials(g), g, dv, g, dv)
    via_connection = contract("kj,ki+ik,kj->ij", g, nabla_direction, g, nabla_direction)
    return via_coordinates, via_connection


def lie_derivative_metric(
    metric: Metric, direction: TensorField, connection: ConnectionData
) -> TensorField:
    """(L_V g)(X, Y); both formulas are computed and required to agree."""
    via_coordinates, via_connection = lie_derivative_two_ways(
        metric, direction, covariant_derivative(direction, connection)
    )
    if not (via_coordinates - via_connection).is_zero():
        raise InvariantError("Lie derivative formulas disagree")
    return via_coordinates
