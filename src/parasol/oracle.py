"""Finite-difference cross-validation of the symbolic geometry.

The oracle recomputes Christoffel symbols, Riemann and Ricci tensors from
central differences of numerically evaluated metric components.  It shares
nothing with the symbolic derivative code paths except float evaluation
(:mod:`parasol.batch`), which keeps it an independent witness.  Central
differences are O(h^2): halving the step should shrink the deviation by
roughly 4x, and that scaling is itself a checkable property.

Float evaluation is planned once per run and batched.  A run's
:class:`StencilSampler` builds the metric's :class:`~parasol.batch.Plan`
once and runs it on one batch per round of candidate sample points (their
probes: each candidate and its +-2h steps) and one batch per sample point:
every point that its references (Christoffel symbols at h and at h/2,
Riemann and Ricci tensors at h) visit, at most 1 + 2n(n + 2) + 2n points,
from which the references come by stacked numpy work over the stencils.
The probes are not folded into the stencil batches: that saved a batch per
accepted candidate, but a rejected candidate then paid for all its stencil
points, and ``report --all`` on a manifest whose 2000 candidates are all
rejected went from 0.41 to 0.57 s; with the probes of a round in one batch
it takes 0.10 s (in-process, medians of three runs).  On the ``fixtures``
benchmark, where no candidate is rejected, the verdict time went from
0.188 to 0.171 s (medians of ten alternating 30 s runs each, seed 1).  Both
on a 2-core Xeon, numpy 2.4.  :func:`compare` evaluates the symbolic tensor
at all sample points in one call.  A batch does ``+``, ``*`` and ``/`` in
numpy, in the order of ``Expr.evaluate``, and leaves ``x ** k`` and
``exp`` to Python's libm calls: numpy's vectorised
``power`` and ``exp`` round differently on some inputs, which would move the
roundoff-level deviations the reports print.  Every value therefore has the
bits that ``Expr.evaluate`` gives.  A flagged point (where ``Expr.evaluate``
would raise) is run again as a one-point batch when a reference that visits
it is looked up, or when :func:`compare` reaches it, and
:meth:`~parasol.batch.PointBatch.evaluate_or_raise` raises the first flagged
entry's own error, in the same order as evaluating the entries one by one.
On badly scaled metrics the float work may overflow; numpy's warnings are
silenced, because the resulting inf and NaN values already fail the checks
(see :func:`max_deviation`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .chart import SAMPLE_COUNT, Chart
from .batch import Plan, PointBatch
from .symexpr import coordinate_values
from .tensor import Metric, TensorField

__all__ = [
    "OracleConfig",
    "OracleConfigError",
    "StencilDegeneracyError",
    "StencilSampler",
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

    The sampler keeps the metric's :class:`~parasol.batch.Plan`, built once,
    and runs it on one :class:`~parasol.batch.PointBatch` per round of
    candidates' probes (:meth:`probe_fails`) and one per sample point.  A
    sample point's references, the Christoffel symbols at h and at h/2 and
    the Riemann and Ricci tensors at h, are computed together at the point's
    first lookup, from the batch of every point they visit: the Riemann
    stencil of stencils at h and the Christoffel stencil at h/2, at most
    1 + 2n(n + 2) + 2n points.  Points are keyed by the exact float
    coordinates that the stencil arithmetic (:func:`_neighbours`) produces,
    so a point that several stencils visit is evaluated once; the values are
    one stacked (points, n, n) array, indexed through the keys.  The
    Christoffel symbols of all 2n + 2 stencils come from one stacked
    ``np.linalg.inv`` and three stacked einsums, the Riemann tensor from
    those of the point and its 2n neighbours at h, the Ricci tensor from the
    Riemann tensor; each stacked value has the bits of the same arithmetic
    on one stencil.

    The degeneracy checks run on the stacked determinants.  Each reference
    keeps its first failing visit, in the order the one-stencil computation
    visits the points: a stencil's centre, then its neighbours, plus before
    minus, axis by axis; for the Riemann tensor the point's stencil, then
    each neighbour's.  Looking the reference up raises there: the metric's
    own error where an entry is degenerate (a one-point batch of the entries
    raises it), else :class:`StencilDegeneracyError`.
    """

    def __init__(self, metric: Metric, h: float):
        self.chart = metric.chart
        self.h = h
        self._entries = metric.field._comps
        self._plan = Plan(self._entries)
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
                PointBatch(self.chart, [at]).evaluate_or_raise(self._entries)
            raise StencilDegeneracyError(
                "metric determinant %.3e degenerates inside the stencil at %r" % (det, at)
            )
        return value

    @np.errstate(all="ignore")
    def probe_fails(self, candidates: list[Point]) -> list[bool]:
        """Whether each candidate sample point fails one of its probes, all in one batch of the plan.

        A candidate's probes are the candidate and the candidate moved by
        +-2h along each axis; one fails where a metric entry is degenerate,
        where |det g| < ``DEGENERACY_CUTOFF``, or where det g has the other
        sign than at the candidate.  No reference is computed or kept.
        """
        step = 2.0 * self.h
        probes = [_stencil(coordinate_values(self.chart, point), step) for point in candidates]
        dets, degenerate = self._metric_at([p for stencil in probes for p in stencil])[1:]
        index = np.arange(dets.size).reshape(len(probes), -1)
        return _failures(dets, degenerate, index).any(axis=1).tolist()

    def _metric_at(self, points: Iterable[Sequence[float]]) -> tuple[np.ndarray, ...]:
        """The metric's matrices at the points, their determinants, and where an entry is degenerate."""
        values, flags = self._plan.run(PointBatch(self.chart, points))
        n = self.chart.dimension
        matrices = values.T.reshape(-1, n, n)
        return matrices, np.linalg.det(matrices), flags.any(axis=0)

    @np.errstate(all="ignore")
    def _compute(self, xs: list[float]) -> dict[str, _Reference]:
        h, n = self.h, len(xs)
        # the stencils at h of xs and of its 2n neighbours, then the stencil at h/2 of xs
        stencils = [_stencil(q, h) for q in _stencil(xs, h)] + [_stencil(xs, h / 2.0)]
        rows: dict[tuple[float, ...], int] = {}
        index = np.array([[rows.setdefault(tuple(p), len(rows)) for p in s] for s in stencils])
        matrices, dets, degenerate = self._metric_at(rows)
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


def require_step_fits(chart: Chart, h: float) -> None:
    """Raise ``OracleConfigError`` unless the +-2h stencil fits the narrowest box interval."""
    width = min(hi - lo for lo, hi in chart.domain_box)
    if 4.0 * h >= width:
        raise OracleConfigError(
            "step h = %g does not fit the domain box: the +-2h stencil needs 4h below "
            "its narrowest interval width %s" % (h, width)
        )


def oracle_sample_points(sampler: StencilSampler, seed: int) -> list[dict[str, float]]:
    """Seeded sample points from the domain box, avoiding degeneracy loci.

    A candidate is probed at 1 + 2n points, itself and itself moved by +-2h
    along each axis, and rejected when a probe fails; the candidates of one
    round of :meth:`~parasol.chart.Chart.sample_points` are probed in one
    batch (:meth:`StencilSampler.probe_fails`).  The stencils' other points
    (the +-h and diagonal steps) are not probed; a reference that visits a
    failing one raises when it is looked up.  A step whose +-2h stencil
    spans the narrowest box interval is an input error
    (:func:`require_step_fits`), so the box is not blamed for what the step
    causes.
    """
    require_step_fits(sampler.chart, sampler.h)
    return sampler.chart.sample_points(SAMPLE_COUNT, seed, reject=sampler.probe_fails)


@np.errstate(all="ignore")
def compare(
    symbolic: TensorField,
    oracle_fn: Callable[[Mapping[str, float]], np.ndarray],
    points: Iterable[Mapping[str, float]],
    evaluated: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Max relative deviation between a symbolic tensor and an oracle, NaN if any is NaN.

    Relative deviation uses max(1, |reference|) as denominator so that
    zero-valued components do not produce spurious failures.  ``evaluated``
    is ``symbolic.numeric_many`` on the points, when the caller has it.  A
    flagged point raises its error from a one-point batch, after its reference.
    """
    points = list(points)
    if evaluated is None:
        evaluated = symbolic.numeric_many(PointBatch(symbolic.chart, points))
    values, degenerate = evaluated
    deviations: list[float] = []
    for point, value, skip in zip(points, values, degenerate.tolist()):
        reference = oracle_fn(point)
        if skip:
            PointBatch(symbolic.chart, [point]).evaluate_or_raise(symbolic._comps)
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
