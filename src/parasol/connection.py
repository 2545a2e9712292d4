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

Christoffel symbols, the Riemann tensor and covariant derivatives are each
built by :func:`parasol.tensor.contract` from the partials of g, G or T;
its loop-order rules fix the term order of every component.
"""

from __future__ import annotations

import string
from fractions import Fraction
from typing import Sequence

from .symexpr import Expr
from .tensor import Frame, Metric, TensorField, ValenceError, contract, partials

__all__ = [
    "RICCI_MODES",
    "christoffel",
    "covariant_derivative",
    "covariant_derivative_along",
    "riemann",
    "ricci",
    "frame_sum",
    "scalar_curvature",
    "lie_derivative_two_ways",
]

WEIGHTED_TRACE = "weighted_trace"
PAPER_FRAME_SUM = "paper_frame_sum"
RICCI_MODES = (WEIGHTED_TRACE, PAPER_FRAME_SUM)


def christoffel(metric: Metric) -> TensorField:
    """Levi-Civita Christoffel symbols gamma[k, i, j], symmetric in (i, j), of an invertible metric."""
    half = Expr.constant(metric.chart, "1/2")
    ginv, dg = metric.inverse, partials(metric.field)  # dg[i, j, l] = d_l g_ij
    doubled = contract("kl,jli+kl,ilj-kl,ijl->kij", ginv, dg, ginv, dg, ginv, dg)  # 2 G^k_ij
    return contract(",kij->kij", half, doubled)


def covariant_derivative(tensor: TensorField, gamma: TensorField) -> TensorField:
    """nabla T with the derivative slot appended as the last covariant index.

    One contraction: the partials of T, plus G^a_zm T^..m.. for each
    contravariant slot a, minus G^m_za T_..m.. for each covariant slot a,
    each slot with its own summed letter and z the derivative letter.
    """
    rank = tensor.rank
    free, summed = string.ascii_lowercase[:rank], string.ascii_lowercase[rank : 2 * rank]
    spec, operands = free + "z", [partials(tensor)]
    for slot, (a, m) in enumerate(zip(free, summed)):
        if slot < tensor.p:
            spec += "+%sz%s,%s" % (a, m, free.replace(a, m))
        else:
            spec += "-%sz%s,%s" % (m, a, free.replace(a, m))
        operands += [gamma, tensor]
    return contract(spec + "->" + free + "z", *operands)


def covariant_derivative_along(
    tensor: TensorField, gamma: TensorField, direction: TensorField
) -> TensorField:
    """nabla_X T: contract the derivative slot of nabla T with a vector field."""
    if direction.valence != (1, 0):
        raise ValenceError("direction must be a vector field")
    letters = string.ascii_uppercase[: tensor.rank]
    nabla = covariant_derivative(tensor, gamma)
    return contract("c,%sc->%s" % (letters, letters), direction, nabla)


def riemann(gamma: TensorField) -> TensorField:
    """Riemann tensor riem[l, i, j, k] = dx^l(R(d_i, d_j) d_k) from the Christoffel symbols."""
    dgamma = partials(gamma)  # dgamma[l, j, k, i] = d_i G^l_jk
    return contract("ljki-likj+lim,mjk-ljm,mik->lijk", dgamma, dgamma, gamma, gamma, gamma, gamma)


def ricci(
    riem: TensorField,
    mode: str = WEIGHTED_TRACE,
    metric: Metric | None = None,
    frame: Frame | None = None,
) -> TensorField:
    """Ricci tensor in one of the two supported contraction modes.

    ``weighted_trace`` is the coordinate contraction S_jk = R^i_ijk,
    equivalently the signature-weighted orthonormal frame sum; it is frame
    independent.  ``paper_frame_sum`` needs a metric and a frame already
    verified symbolically orthonormal (:meth:`Frame.orthonormal_signs`; a
    structure verifies its frame once, in ``frame_signs``) and omits the
    signature weights.
    """
    if mode == WEIGHTED_TRACE:
        return contract("iijk->jk", riem)
    if mode == PAPER_FRAME_SUM:
        if frame is None or metric is None:
            raise ValenceError("paper_frame_sum Ricci needs an orthonormal frame and a metric")
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
    # a numbers the frame vectors; b, c, d are coordinates.  Three pairwise
    # contractions cost O(n^4); the one spec "ab,cbjk,cd,ad->jk" takes n^6 products
    lowered = contract("cd,ad->ac", metric.field, rows)  # g(E_a, d_c)
    paired = contract("ab,ac->bc", weighted, lowered)  # sum_a w_a E_a^b g(E_a, d_c)
    return contract("bc,cbjk->jk", paired, riem)


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
