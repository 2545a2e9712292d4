"""Finite-difference cross-validation of the symbolic geometry.

The oracle recomputes Christoffel symbols, Riemann and Ricci tensors from
central differences of numerically evaluated metric components.  It shares
nothing with the symbolic derivative code paths except float evaluation
(:mod:`parasol.batch`), which keeps it an independent witness.  Central
differences are O(h^2): halving the step should shrink the deviation by
roughly 4x, and that scaling is itself a checkable property.

A sample point is a candidate whose every stencil visit is sound
(:meth:`StencilSampler.judge`), so each of its references is a number, and
the references of the accepted candidates are kept with the points
(:func:`oracle_sample_points`).  Float evaluation is planned once per run
and batched: the sampler runs the metric's :class:`~parasol.batch.Plan` on
one batch per group of candidates, of at most ``GROUP_VISITS`` = 240 visits
(six candidates at n = 3, two at n = 5), and computes the group's
references in one stacked numpy pass.  The cap is there because the size of
the stacks sets the run's peak RSS: all ten points in one group (810 visits
at n = 5) raised the ``fixtures`` benchmark's ``peak_rss_mb`` by 0.47 MB
over one point per group, and three points at n = 5 (243 visits) raised the
traced peak of ``report --all`` on ``ex5d_r5_g1`` by 100 KB, two points by
37 KB.  The symbolic tensors that the ``oracle`` command compares, and its
Lie-dual pair, are evaluated on one batch of the sample points, so each
``x ** k`` and ``exp`` column is computed once per run.  A batch does ``+``, ``*`` and
``/`` in numpy, in the order of ``Expr.evaluate``, and leaves ``x ** k``
and ``exp`` to Python's libm calls: numpy's vectorised ``power`` and
``exp`` round differently on some inputs, which would move the
roundoff-level deviations the reports print.  Every value therefore has the
bits that ``Expr.evaluate`` gives.  A flagged symbolic component (where
``Expr.evaluate`` would raise) is run again as a one-point batch, where
:meth:`~parasol.batch.PointBatch.evaluate_or_raise` raises the first
flagged entry's own error, in the same order as evaluating the entries one
by one.  On badly scaled metrics the float work may overflow; numpy's
warnings are silenced, because the resulting inf and NaN values already
fail the checks (see :func:`max_deviation`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .chart import SAMPLE_COUNT, Chart
from .batch import Plan, PointBatch
from .symexpr import coordinate_values
from .tensor import Metric, TensorField

__all__ = [
    "OracleConfig",
    "OracleConfigError",
    "StencilSampler",
    "oracle_sample_points",
    "require_step_fits",
    "compare",
    "max_deviation",
]

DEGENERACY_CUTOFF = 1e-6

# stencil visits that one group of candidates may evaluate in one batch; the
# size of its stacks drives the run's peak RSS
GROUP_VISITS = 240

# the references of a sample point, by name
REFERENCES = ("christoffel", "christoffel_half_step", "riemann", "ricci")

Point = Mapping[str, float] | Sequence[float]


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


# the steps, as multiples of h and in order, that a coordinate of a stencil visit
# takes from the sample point: none, one, two (the Riemann stencil of stencils),
# or one of h/2
_CHAINS = ((), (1.0,), (-1.0,), (1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0), (0.5,), (-0.5,))


def _chain_values(centres: np.ndarray, h: float) -> np.ndarray:
    """Each coordinate of each centre after each chain of ``_CHAINS``, on a new last axis.

    A step is ``+ s * h`` on one coordinate, in float arithmetic: s * h is
    exact, and x + (-h) is x - h.  A coordinate that takes no step keeps
    its float as it is.
    """
    chains = []
    for chain in _CHAINS:
        values = centres
        for s in chain:
            values = values + s * h
        chains.append(values)
    return np.stack(chains, axis=-1)


@lru_cache(maxsize=None)
def _distinct_visits(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The row of each visit of a point's references among its distinct visits, and their chains.

    The visits, shape (2n + 2, 2n + 1), are the Christoffel stencils at h
    of the point and of its 2n neighbours, then its stencil at h/2; a
    stencil visits its centre, then its neighbours, plus before minus, axis
    by axis.  Each visit's coordinates are told by their chains of steps
    (the indices into ``_CHAINS`` of the last axis of :func:`_chain_values`,
    one per coordinate), and visits told alike have the same floats:
    (x + h e_i) + h e_j is (x + h e_j) + h e_i.  There are 2n^2 + 6n + 1
    distinct visits; the first 2n + 1 are the point's stencil at h.
    """
    steps = [()] + [((i, sign),) for i in range(n) for sign in (1.0, -1.0)]
    halves = [tuple((i, s / 2) for i, s in b) for b in steps]
    visits = [a + b for a in steps for b in steps] + halves
    rows: dict[tuple[int, ...], int] = {}
    pattern = []
    for visit in visits:
        chains = tuple(_CHAINS.index(tuple(s for j, s in visit if j == i)) for i in range(n))
        pattern.append(rows.setdefault(chains, len(rows)))
    return np.array(pattern).reshape(2 * n + 2, 2 * n + 1), np.array(list(rows))


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


class StencilSampler:
    """Central-difference references of one metric at one step h, for the length of one run.

    The sampler keeps the metric's :class:`~parasol.batch.Plan`, built once,
    and runs it on one :class:`~parasol.batch.PointBatch` per group of
    candidates (:meth:`judge`).  A point's references are the Christoffel
    symbols at h and at h/2 and the Riemann and Ricci tensors at h; they
    visit the Riemann stencil of stencils at h and the Christoffel stencil at
    h/2, 2n + 2 stencils in all.  The visits are float arrays made by
    :func:`_chain_values`, and a visit that several stencils make by the
    same steps (:func:`_distinct_visits`) is evaluated once: 2n^2 + 6n + 1
    visits per candidate, and a group holds as many consecutive candidates
    as keep it within ``GROUP_VISITS`` visits (at least one).  The
    degeneracy checks run on the stacked determinants, and a candidate with
    a failing visit is not sound.  The values are one stacked (visits, n, n)
    array, indexed by stencil.  The Christoffel symbols of every stencil of
    the group's sound candidates come from one stacked ``np.linalg.inv`` and
    three stacked einsums, the Riemann tensors from those of each point and
    its 2n neighbours at h, the Ricci tensors from the Riemann tensors; each
    stacked value has the bits of the same arithmetic on one stencil.  The
    cap bounds the stacks, whose size sets the run's peak RSS (see the
    module docstring).
    """

    def __init__(self, metric: Metric, h: float):
        self.chart = metric.chart
        self.h = h
        self._plan = Plan(metric.field._comps)
        self._pattern, self._chains = _distinct_visits(self.chart.dimension)

    def judge(self, candidates: Iterable[Point]) -> tuple[list[bool], dict[str, list[np.ndarray]]]:
        """Whether each candidate is sound, and each reference at the sound ones, in order.

        A candidate is sound where no visit of its stencils fails
        (:func:`_failures`).  The references are those of ``REFERENCES``.
        """
        n = self.chart.dimension
        size = max(1, GROUP_VISITS // (2 * n * n + 6 * n + 1))
        pending = [coordinate_values(self.chart, point) for point in candidates]
        sound: list[bool] = []
        references: dict[str, list[np.ndarray]] = {name: [] for name in REFERENCES}
        for start in range(0, len(pending), size):
            group_sound, computed = self._compute(pending[start : start + size])
            sound += group_sound
            for name, values in computed.items():
                references[name] += values
        return sound, references

    def _metric_at(self, group: list[list[float]]) -> tuple[np.ndarray, ...]:
        """The metric at the group's distinct visits: matrices, determinants, degenerate entries.

        The batch and the plan's output are freed on return: alive during the
        stacked pass, they raised the traced peak of ``report --all`` on
        ``ex5d_r5_g2`` by 52 KB.
        """
        n = self.chart.dimension
        # the distinct visits of every point, shape (points, 2n^2 + 6n + 1, n)
        visits = _chain_values(np.array(group), self.h)[:, np.arange(n), self._chains]
        batch = PointBatch.of_coordinates(self.chart, visits.reshape(-1, n).tolist())
        values, flags = self._plan.run(batch)
        matrices = values.T.reshape(-1, n, n)
        return matrices, np.linalg.det(matrices), flags.any(axis=0)

    @np.errstate(all="ignore")
    def _compute(self, group: list[list[float]]) -> tuple[list[bool], dict[str, list[np.ndarray]]]:
        """Whether each point of the group is sound, and the sound ones' references, in one pass."""
        h, n = self.h, self.chart.dimension
        matrices, dets, degenerate = self._metric_at(group)
        # the row of each visit of every point's stencils among the distinct visits
        index = self._pattern + len(self._chains) * np.arange(len(group))[:, None, None]
        fails = _failures(dets, degenerate, index.reshape(-1, 2 * n + 1))
        sound = ~fails.reshape(len(group), -1).any(axis=1)
        index = index[sound]
        # a sound centre has |det g| >= the cutoff, so inv raises nowhere (det and inv
        # factor alike: a centre inv would call singular has det 0)
        ginv = np.linalg.inv(matrices[index[..., 0]])
        steps = np.array([2.0 * h] * (2 * n + 1) + [2.0 * (h / 2.0)])
        # in place where the arithmetic allows, since the stacks set the run's peak RSS
        dg = matrices[index[..., 1::2]]
        dg -= matrices[index[..., 2::2]]
        dg /= steps[:, None, None, None]
        del matrices
        # gamma[p, s, k, i, j] = 1/2 g^{kl} (dg_i[j, l] + dg_j[i, l] - dg_l[i, j]) on stencil s of p
        gamma = np.einsum("...kl,...ijl->...kij", ginv, dg)
        gamma += np.einsum("...kl,...jil->...kij", ginv, dg)
        gamma -= np.einsum("...kl,...lij->...kij", ginv, dg)
        gamma *= 0.5
        # riem[l, i, j, k] = d_i gamma[l, j, k] - d_j gamma[l, i, k]
        #                    + gamma[l, i, m] gamma[m, j, k] - gamma[l, j, m] gamma[m, i, k]
        dgamma = gamma[:, 1:-1:2] - gamma[:, 2:-1:2]
        dgamma /= 2.0 * h
        riem = np.einsum("...iljk->...lijk", dgamma) - np.einsum("...jlik->...lijk", dgamma)
        centre = gamma[:, 0]
        riem += np.einsum("...lim,...mjk->...lijk", centre, centre)
        riem -= np.einsum("...ljm,...mik->...lijk", centre, centre)
        return sound.tolist(), {
            "christoffel": [g.copy() for g in centre],
            "christoffel_half_step": [g.copy() for g in gamma[:, -1]],
            "riemann": list(riem),
            "ricci": list(np.einsum("...iijk->...jk", riem)),
        }


def require_step_fits(chart: Chart, h: float) -> None:
    """Raise ``OracleConfigError`` unless the +-2h stencil fits the narrowest box interval."""
    width = min(hi - lo for lo, hi in chart.domain_box)
    if 4.0 * h >= width:
        raise OracleConfigError(
            "step h = %g does not fit the domain box: the +-2h stencil needs 4h below "
            "its narrowest interval width %s" % (h, width)
        )


def oracle_sample_points(
    sampler: StencilSampler, seed: int
) -> tuple[list[dict[str, float]], dict[str, list[np.ndarray]]]:
    """Seeded sample points whose every stencil visit is sound, and their references.

    Each round of candidates of :meth:`~parasol.chart.Chart.sample_points`
    is judged by :meth:`StencilSampler.judge`: a candidate is rejected where
    a visit of its stencils fails, and the references of an accepted one are
    kept, so each reference's list is aligned with the points.  A step whose
    +-2h stencil spans the narrowest box interval is an input error
    (:func:`require_step_fits`), so the box is not blamed for what the step
    causes.
    """
    require_step_fits(sampler.chart, sampler.h)
    references: dict[str, list[np.ndarray]] = {name: [] for name in REFERENCES}

    def reject(candidates: list[dict[str, float]]) -> list[bool]:
        sound, found = sampler.judge(candidates)
        for name, values in found.items():
            references[name] += values
        return [not ok for ok in sound]

    points = sampler.chart.sample_points(SAMPLE_COUNT, seed, reject=reject)
    return points, references


@np.errstate(all="ignore")
def compare(
    symbolic: TensorField,
    references: Sequence[np.ndarray],
    points: Iterable[Mapping[str, float]],
    evaluated: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Max relative deviation between a symbolic tensor and its references, NaN if any is NaN.

    ``references`` is one reference's values (:func:`oracle_sample_points`),
    aligned with the points; a list of another length raises
    ``ValueError``.  Relative deviation uses max(1, |reference|) as
    denominator so that zero-valued components do not produce spurious
    failures.  ``evaluated`` is ``symbolic.numeric_many`` on the points,
    when the caller has it.  A flagged component raises its error from a
    one-point batch.  Deviations are taken point by point: one expression
    over the stacked references holds two more arrays of the tensor's size,
    and for the Riemann tensor at n = 5 that raised the ``oracle`` command's
    peak of traced memory by about 100 KB.
    """
    points = list(points)
    if evaluated is None:
        evaluated = symbolic.numeric_many(PointBatch(symbolic.chart, points))
    values, degenerate = evaluated
    deviations: list[float] = []
    for point, reference, value, skip in zip(
        points, references, values, degenerate.tolist(), strict=True
    ):
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
