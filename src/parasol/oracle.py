"""Finite-difference cross-validation of the symbolic geometry.

The oracle recomputes Christoffel symbols, Riemann and Ricci tensors from
central differences of numerically evaluated metric components.  It shares
nothing with the symbolic derivative code paths except float evaluation
(``Expr.evaluate`` and its batched form, :mod:`parasol.batch`), which keeps
it an independent witness.  Central differences are O(h^2): halving the step
should shrink the deviation by roughly 4x, and that scaling is itself a
checkable property.

Float evaluation is batched, one batch per sample point.  All the references
at a sample point (Christoffel symbols at h and at h/2, Riemann and Ricci
tensors at h) come from one batch of the metric at the points their stencils
visit, at most 1 + 2n(n + 2) + 2n of them, and from stacked numpy work over
those stencils (:class:`StencilSampler`).  Not one batch per run: putting
all ten sample points of a run in one batch was about 5 % faster on the
``fixtures`` benchmark, but raised its peak RSS by 0.35 MB (median of three
30 s pairs, 2-core Xeon, numpy 2.4), where the benchmark's bound is 0.1 MB.
Each candidate sample point's probes form one batch, and :func:`compare`
evaluates the symbolic tensor at all sample points in one call.  A batch
does ``+``, ``*`` and ``/`` in numpy, in the order of the one-point path,
and leaves ``x ** k`` and ``exp`` to Python's libm calls: numpy's vectorised
``power`` and ``exp`` round differently on some inputs, which would move the
roundoff-level deviations the reports print.  Every value therefore has the
bits that ``Expr.evaluate`` gives, and a point where ``Expr.evaluate`` would
raise is evaluated alone when a reference that visits it is looked up, so it
raises the same error in the same order.  On badly scaled metrics the float
work may overflow; numpy's warnings are silenced, because the resulting inf
and NaN values already fail the checks (see :func:`max_deviation`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .chart import SAMPLE_COUNT, Chart
from .batch import PointBatch
from .symexpr import coordinate_values
from .tensor import Metric, TensorField

__all__ = [
    "OracleConfig",
    "OracleConfigError",
    "StencilDegeneracyError",
    "fd_christoffel",
    "fd_riemann",
    "fd_ricci",
    "oracle_sample_points",
    "require_step_fits",
    "compare",
    "max_deviation",
]

DEGENERACY_CUTOFF = 1e-6

Point = Mapping[str, float] | Sequence[float]


class StencilDegeneracyError(ValueError):
    """A finite-difference stencil crosses a metric degeneracy locus."""


class OracleConfigError(ValueError):
    """A step or tolerance that is not a positive finite number."""


@dataclass(frozen=True)
class OracleConfig:
    """Sampling seed, finite-difference step and relative tolerance of one run."""

    h: float = 1e-4
    seed: int = 42
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        for name, value in (("step h", self.h), ("tolerance", self.tolerance)):
            if not (math.isfinite(value) and value > 0):
                raise OracleConfigError("%s must be a positive finite number, got %r" % (name, value))


def _neighbours(xs: Sequence[float], h: float) -> list[tuple[list[float], list[float]]]:
    """(xs + h e_i, xs - h e_i) per axis: the float arithmetic every stencil key comes from."""
    pairs = []
    for i in range(len(xs)):
        plus = list(xs)
        minus = list(xs)
        plus[i] += h
        minus[i] -= h
        pairs.append((plus, minus))
    return pairs


def _stencil(xs: list[float], h: float) -> list[list[float]]:
    """The points a Christoffel stencil at ``xs`` visits, in order: centre, then neighbours."""
    return [xs] + [side for pair in _neighbours(xs, h) for side in pair]


def _keep_float_tables(metric: Metric) -> TensorField:
    """The metric's field, the float tables of its entries built once for all batches of a run."""
    for comp in metric.field._comps:
        if not comp.is_symbolically_zero:
            comp.keep_float_tables()
    return metric.field


@np.errstate(all="ignore")
def _metric_at(
    field: TensorField, points: Iterable[Sequence[float]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The metric's matrices at the points, their determinants, and where an entry is degenerate."""
    matrices, degenerate = field.numeric_many(PointBatch(field.chart, points))
    return matrices, np.linalg.det(matrices), degenerate


def _failures(dets: np.ndarray, degenerate: np.ndarray, stencils: np.ndarray) -> np.ndarray:
    """Where the visits of each stencil fail; a stencil is a row of point indices, centre first.

    A visit fails where a metric entry is degenerate, where |det g| <
    ``DEGENERACY_CUTOFF``, and, past the centre, where det g has the other
    sign than at the stencil's own centre.
    """
    det = dets[stencils]
    fails = degenerate[stencils] | (np.abs(det) < DEGENERACY_CUTOFF)
    fails[:, 1:] |= det[:, 1:] * np.sign(det[:, :1]) < 0
    return fails


# a reference's first failing visit: the point, det g there, whether an entry is degenerate
_Failure = tuple[list[float], float, bool]
_Reference = tuple[np.ndarray, _Failure | None]


class StencilSampler:
    """Central-difference references of one metric at one step h, for the length of one run.

    A sample point's references, the Christoffel symbols at h and at h/2
    and the Riemann and Ricci tensors at h, are computed together at the
    point's first lookup, from one :class:`~parasol.batch.PointBatch` of the
    metric at every point they visit: the Riemann stencil of stencils at h
    and the Christoffel stencil at h/2, at most 1 + 2n(n + 2) + 2n points.
    Points are keyed by the exact float coordinates that the stencil
    arithmetic (:func:`_neighbours`) produces, so a point that several
    stencils visit is evaluated once; the values are one stacked
    (points, n, n) array, indexed through the keys.  The Christoffel symbols
    of all 2n + 2 stencils come from one stacked ``np.linalg.inv`` and three
    stacked einsums, the Riemann tensor from those of the point and its 2n
    neighbours at h, the Ricci tensor from the Riemann tensor; each stacked
    value has the bits of the same arithmetic on one stencil.

    One batch per sample point, not per run: a batch of all of a run's
    sample points was faster still, but raised the peak RSS of the
    ``fixtures`` benchmark by 0.35 MB, over its 0.1 MB bound (see the module
    docstring).

    The degeneracy checks run on the stacked determinants.  Each reference
    keeps its first failing visit, in the order the one-stencil computation
    visits the points: a stencil's centre, then its neighbours, plus before
    minus, axis by axis; for the Riemann tensor the point's stencil, then
    each neighbour's.  Looking the reference up raises there: the metric's
    own error where an entry is degenerate (the one-point
    :meth:`~parasol.tensor.TensorField.numeric_at` raises it), else
    :class:`StencilDegeneracyError`.
    """

    def __init__(self, metric: Metric, h: float):
        self.chart = metric.chart
        self.h = h
        self._field = _keep_float_tables(metric)
        # sample point -> reference name -> (value, first failing visit or None)
        self._references: dict[tuple[float, ...], dict[str, _Reference]] = {}

    def christoffel(self, point: Point) -> np.ndarray:
        """Christoffel symbols gamma[k, i, j] from central differences of g."""
        return self._lookup(point, "christoffel")

    def christoffel_half_step(self, point: Point) -> np.ndarray:
        """Christoffel symbols gamma[k, i, j] at the step h/2, for the O(h^2) scaling check."""
        return self._lookup(point, "christoffel_half_step")

    def riemann(self, point: Point) -> np.ndarray:
        """Riemann tensor riem[l, i, j, k] from nested central differences."""
        return self._lookup(point, "riemann")

    def ricci(self, point: Point) -> np.ndarray:
        """Ricci tensor S[j, k] = riem[i, i, j, k] (weighted trace only)."""
        return self._lookup(point, "ricci")

    def _lookup(self, point: Point, name: str) -> np.ndarray:
        xs = coordinate_values(self.chart, point)
        key = tuple(xs)
        references = self._references.get(key)
        if references is None:
            references = self._references[key] = self._compute(xs)
        value, failure = references[name]
        if failure is not None:
            at, det, degenerate = failure
            if degenerate:
                self._field.numeric_at(at)  # raises the degenerate entry's own error
            raise StencilDegeneracyError(
                "metric determinant %.3e degenerates inside the stencil at %r" % (det, at)
            )
        return value

    @np.errstate(all="ignore")
    def _compute(self, xs: list[float]) -> dict[str, _Reference]:
        h, n = self.h, len(xs)
        # the stencils at h of xs and of its 2n neighbours, then the stencil at h/2 of xs
        stencils = [_stencil(q, h) for q in _stencil(xs, h)] + [_stencil(xs, h / 2.0)]
        rows: dict[tuple[float, ...], int] = {}
        index = np.array([[rows.setdefault(tuple(p), len(rows)) for p in s] for s in stencils])
        matrices, dets, degenerate = _metric_at(self._field, rows)
        fails = _failures(dets, degenerate, index)

        def first_failure(first: int, last: int) -> _Failure | None:
            """The first failing visit of the stencils first..last, in visiting order."""
            hits = np.flatnonzero(fails[first : last + 1])
            if not hits.size:
                return None
            s, k = divmod(int(hits[0]), 2 * n + 1)
            row = index[first + s, k]
            return list(stencils[first + s][k]), float(dets[row]), bool(degenerate[row])

        # a failing centre is replaced by the identity, so that inv raises nowhere:
        # the references on its stencil raise when they are looked up
        ginv = np.linalg.inv(np.where(fails[:, 0, None, None], np.eye(n), matrices[index[:, 0]]))
        steps = np.array([2.0 * h] * (len(stencils) - 1) + [2.0 * (h / 2.0)])
        dg = (matrices[index[:, 1::2]] - matrices[index[:, 2::2]]) / steps[:, None, None, None]
        # gamma[s, k, i, j] = 1/2 g^{kl} (dg_i[j, l] + dg_j[i, l] - dg_l[i, j]) on stencil s
        gamma = 0.5 * (
            np.einsum("...kl,...ijl->...kij", ginv, dg)
            + np.einsum("...kl,...jil->...kij", ginv, dg)
            - np.einsum("...kl,...lij->...kij", ginv, dg)
        )
        # riem[l, i, j, k] = d_i gamma[l, j, k] - d_j gamma[l, i, k]
        #                    + gamma[l, i, m] gamma[m, j, k] - gamma[l, j, m] gamma[m, i, k]
        dgamma = (gamma[1:-1:2] - gamma[2:-1:2]) / (2.0 * h)
        riem = np.einsum("iljk->lijk", dgamma) - np.einsum("jlik->lijk", dgamma)
        riem += np.einsum("lim,mjk->lijk", gamma[0], gamma[0])
        riem -= np.einsum("ljm,mik->lijk", gamma[0], gamma[0])
        riemann_failure = first_failure(0, 2 * n)
        return {
            "christoffel": (gamma[0].copy(), first_failure(0, 0)),
            "riemann": (riem, riemann_failure),
            "ricci": (np.einsum("iijk->jk", riem), riemann_failure),
            "christoffel_half_step": (gamma[-1].copy(), first_failure(2 * n + 1, 2 * n + 1)),
        }


def fd_christoffel(metric: Metric, point: Point, cfg: OracleConfig) -> np.ndarray:
    """Christoffel symbols gamma[k, i, j] from central differences of g."""
    return StencilSampler(metric, cfg.h).christoffel(point)


def fd_riemann(metric: Metric, point: Point, cfg: OracleConfig) -> np.ndarray:
    """Riemann tensor riem[l, i, j, k] from nested central differences."""
    return StencilSampler(metric, cfg.h).riemann(point)


def fd_ricci(metric: Metric, point: Point, cfg: OracleConfig) -> np.ndarray:
    """Ricci tensor S[j, k] = riem[i, i, j, k] (weighted trace only)."""
    return StencilSampler(metric, cfg.h).ricci(point)


def require_step_fits(chart: Chart, cfg: OracleConfig) -> None:
    """Raise ``OracleConfigError`` unless the +-2h stencil fits the narrowest box interval."""
    width = min(hi - lo for lo, hi in chart.domain_box)
    if 4.0 * cfg.h >= width:
        raise OracleConfigError(
            "step h = %g does not fit the domain box: the +-2h stencil needs 4h below "
            "its narrowest interval width %s" % (cfg.h, width)
        )


def oracle_sample_points(
    chart: Chart, metric: Metric, cfg: OracleConfig
) -> list[dict[str, float]]:
    """Seeded sample points from the domain box, avoiding degeneracy loci.

    A candidate is probed at 1 + 2n points, itself and itself moved by +-2h
    along each axis, and rejected when a metric entry is degenerate at a
    probe, |det g| < ``DEGENERACY_CUTOFF`` there, or det g there has the
    other sign than at the candidate.  The stencils' other points (the +-h
    and diagonal steps) are not probed; the comparison checks them as it
    visits them.  A step whose +-2h stencil spans the narrowest box interval
    is an input error (:func:`require_step_fits`), so the box is not blamed
    for what the step causes.
    """
    require_step_fits(chart, cfg)

    field = _keep_float_tables(metric)
    probe_stencil = np.arange(1 + 2 * chart.dimension)[None, :]

    def reject(point: dict[str, float]) -> bool:
        xs = [point[c] for c in chart.coordinates]
        probes = [xs]
        for i in range(chart.dimension):
            for offset in (-2.0 * cfg.h, 2.0 * cfg.h):
                shifted = list(xs)
                shifted[i] += offset
                probes.append(shifted)
        _, dets, degenerate = _metric_at(field, probes)
        return bool(_failures(dets, degenerate, probe_stencil).any())

    return chart.sample_points(SAMPLE_COUNT, cfg.seed, reject=reject)


@np.errstate(all="ignore")
def compare(
    symbolic: TensorField,
    oracle_fn: Callable[[Mapping[str, float]], np.ndarray],
    points: Iterable[Mapping[str, float]],
) -> float:
    """Max relative deviation between a symbolic tensor and an oracle, NaN if any is NaN.

    Relative deviation uses max(1, |reference|) as denominator so that
    zero-valued components do not produce spurious failures.
    """
    points = list(points)
    values, degenerate = symbolic.numeric_many(PointBatch(symbolic.chart, points))
    deviations: list[float] = []
    for point, value, skip in zip(points, values, degenerate.tolist()):
        reference = oracle_fn(point)
        if skip:
            value = symbolic.numeric_at(point)  # raises the degenerate component's own error
        if value.shape != reference.shape:
            raise ValueError(
                "shape mismatch: symbolic %r vs oracle %r" % (value.shape, reference.shape)
            )
        deviation = np.abs(value - reference) / np.maximum(1.0, np.abs(reference))
        deviations.append(float(deviation.max()))
    return max_deviation(deviations)


def max_deviation(deviations: Sequence[float]) -> float:
    """Largest deviation, NaN when any deviation is NaN (Python's ``max`` drops NaN)."""
    return float(np.max(deviations)) if deviations else 0.0
