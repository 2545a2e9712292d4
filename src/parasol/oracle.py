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
probes: each candidate and its +-2h steps), then computes the references of
the sample points in one call (:meth:`StencilSampler.references`), one
batch per group of points: every point that their references (Christoffel
symbols at h and at h/2, Riemann and Ricci tensors at h) visit, 2n^2 + 6n +
1 per sample point, from which the references of the whole group come by
one stacked numpy pass with a leading point axis.  A group holds at most
``GROUP_VISITS`` = 240 visits (six sample points at n = 3, two at n = 5),
because the size of its stacks sets the run's peak RSS: all ten points in
one group (810 visits at n = 5) raised the ``fixtures`` benchmark's
``peak_rss_mb`` by 0.47 MB over one point per group, and three points at
n = 5 (243 visits) raised the traced peak of ``report --all`` on
``ex5d_r5_g1`` by 100 KB, two points by 37 KB.  The probes stay out of the
stencil batches, where a rejected candidate would pay for all its stencil
points: ``report --all`` on a manifest whose 2000 candidates are all
rejected took 0.57 s that way, and takes 0.10 s with the probes of a round
in one batch (in-process, medians of three runs).  The symbolic tensors
that the ``oracle`` command compares, and its Lie-dual pair, are evaluated
on one batch of the sample points, so each ``x ** k`` and ``exp`` column is
computed once per run.  A batch does ``+``, ``*`` and ``/`` in numpy, in the
order of ``Expr.evaluate``, and leaves ``x ** k`` and ``exp`` to Python's
libm calls: numpy's vectorised ``power`` and ``exp`` round differently on
some inputs, which would move the roundoff-level deviations the reports
print.  Every value therefore has the bits that ``Expr.evaluate`` gives.  A
reference whose stencil fails comes with the error that comparing it raises,
and a flagged point (where ``Expr.evaluate`` would raise) is run again as a
one-point batch, where :meth:`~parasol.batch.PointBatch.evaluate_or_raise`
raises the first flagged entry's own error, in the same order as evaluating
the entries one by one.  On badly scaled metrics the float work may
overflow; numpy's warnings are silenced, because the resulting inf and NaN
values already fail the checks (see :func:`max_deviation`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .chart import SAMPLE_COUNT, Chart
from .batch import Plan, PointBatch
from .symexpr import DegenerateEvaluationError, coordinate_values
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

# stencil visits that one group of sample points may evaluate in one batch; the
# size of its stacks drives the run's peak RSS
GROUP_VISITS = 240

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


# a reference's value at a sample point, and the error that comparing it raises, or None
Reference = tuple[np.ndarray, Exception | None]


class StencilSampler:
    """Central-difference references of one metric at one step h, for the length of one run.

    The sampler keeps the metric's :class:`~parasol.batch.Plan`, built once,
    and runs it on one :class:`~parasol.batch.PointBatch` per round of
    candidates' probes (:meth:`probe_fails`) and one per group of sample
    points (:meth:`references`).  A point's references are the Christoffel
    symbols at h and at h/2 and the Riemann and Ricci tensors at h; they
    visit the Riemann stencil of stencils at h and the Christoffel stencil at
    h/2.  The visits are float arrays made by :func:`_chain_values`, and a
    visit that several stencils make by the same steps
    (:func:`_distinct_visits`) is evaluated once: 2n^2 + 6n + 1 visits per
    point, and a group holds as many consecutive points as keep it within
    ``GROUP_VISITS`` visits (at least one).  The values are one stacked
    (visits, n, n) array, indexed by stencil.  The Christoffel symbols of
    every stencil of the group come from one stacked ``np.linalg.inv`` and
    three stacked einsums, the Riemann tensors from those of each point and
    its 2n neighbours at h, the Ricci tensors from the Riemann tensors; each
    stacked value has the bits of the same arithmetic on one stencil.  The
    cap bounds the stacks, whose size sets the run's peak RSS (see the
    module docstring).

    The degeneracy checks run on the stacked determinants.  A reference
    fails at its first failing visit, in the order the one-stencil
    computation visits the points: a stencil's centre, then its neighbours,
    plus before minus, axis by axis; for the Riemann tensor the point's
    stencil, then each neighbour's.  Its error is the metric's own where an
    entry is degenerate there (a one-point batch of the entries raises it),
    else :class:`StencilDegeneracyError`.
    """

    def __init__(self, metric: Metric, h: float):
        self.chart = metric.chart
        self.h = h
        self._entries = metric.field._comps
        self._plan = Plan(self._entries)
        self._pattern, self._chains = _distinct_visits(self.chart.dimension)

    def references(self, points: Iterable[Point]) -> dict[str, list[Reference]]:
        """Each reference's (value, error) at each point, in the points' order.

        The references are ``christoffel``, ``christoffel_half_step``,
        ``riemann`` and ``ricci``.  A group is consecutive points, as many as
        2n^2 + 6n + 1 visits each fit within ``GROUP_VISITS`` (at least one).
        """
        n = self.chart.dimension
        size = max(1, GROUP_VISITS // (2 * n * n + 6 * n + 1))
        pending = [coordinate_values(self.chart, point) for point in points]
        references: dict[str, list[Reference]] = {
            name: [] for name in ("christoffel", "christoffel_half_step", "riemann", "ricci")
        }
        for start in range(0, len(pending), size):
            for name, computed in self._compute(pending[start : start + size]).items():
                references[name] += computed
        return references

    @np.errstate(all="ignore")
    def probe_fails(self, candidates: list[Point]) -> list[bool]:
        """Whether each candidate sample point fails one of its probes, all in one batch of the plan.

        A candidate's probes are the candidate and the candidate moved by
        +-2h along each axis; one fails where a metric entry is degenerate,
        where |det g| < ``DEGENERACY_CUTOFF``, or where det g has the other
        sign than at the candidate.  No reference is computed or kept.
        """
        n = self.chart.dimension
        centres = np.array([coordinate_values(self.chart, point) for point in candidates])
        probes = _chain_values(centres, 2.0 * self.h)[:, np.arange(n), self._chains[: 2 * n + 1]]
        dets, degenerate = self._metric_at(probes.reshape(-1, n).tolist())[1:]
        index = np.arange(dets.size).reshape(len(candidates), 2 * n + 1)
        return _failures(dets, degenerate, index).any(axis=1).tolist()

    def _metric_at(self, points: list[list[float]]) -> tuple[np.ndarray, ...]:
        """The metric's matrices at the points, their determinants, and where an entry is degenerate."""
        values, flags = self._plan.run(PointBatch.of_coordinates(self.chart, points))
        n = self.chart.dimension
        matrices = values.T.reshape(-1, n, n)
        return matrices, np.linalg.det(matrices), flags.any(axis=0)

    @np.errstate(all="ignore")
    def _compute(self, group: list[list[float]]) -> dict[str, list[Reference]]:
        """The references of each point of the group: one batch of the plan, one stacked pass."""
        h, n = self.h, self.chart.dimension
        # the distinct visits of every point, shape (points, 2n^2 + 6n + 1, n),
        # and the row of each visit of every point's stencils
        visits = _chain_values(np.array(group), h)[:, np.arange(n), self._chains]
        index = self._pattern + len(self._chains) * np.arange(len(group))[:, None, None]
        matrices, dets, degenerate = self._metric_at(visits.reshape(-1, n).tolist())
        fails = _failures(dets, degenerate, index.reshape(-1, 2 * n + 1)).reshape(index.shape)
        failing = fails.any(axis=2).tolist()

        def error(p: int, first: int, last: int) -> Exception | None:
            """The error of point p's stencils first..last, at their first failing visit."""
            if not any(failing[p][first : last + 1]):
                return None
            s, k = divmod(int(np.flatnonzero(fails[p, first : last + 1])[0]), 2 * n + 1)
            at, row = visits[p, self._pattern[first + s, k]].tolist(), index[p, first + s, k]
            if degenerate[row]:
                try:
                    PointBatch(self.chart, [at]).evaluate_or_raise(self._entries)
                except DegenerateEvaluationError as exc:
                    return exc
            return StencilDegeneracyError(
                "metric determinant %.3e degenerates inside the stencil at %r" % (dets[row], at)
            )

        # a failing centre is replaced by the identity, so that inv raises nowhere
        # (det and inv factor alike: a centre inv would call singular has det 0):
        # the references on its stencil carry their error instead
        centres = np.where(fails[..., 0, None, None], np.eye(n), matrices[index[..., 0]])
        ginv = np.linalg.inv(centres)
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
        ricci = np.einsum("...iijk->...jk", riem)
        points = range(len(group))
        riemann_errors = [error(p, 0, 2 * n) for p in points]
        return {
            "christoffel": [(gamma[p, 0].copy(), error(p, 0, 0)) for p in points],
            "christoffel_half_step": [
                (gamma[p, -1].copy(), error(p, 2 * n + 1, 2 * n + 1)) for p in points
            ],
            "riemann": list(zip(riem, riemann_errors)),
            "ricci": list(zip(ricci, riemann_errors)),
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
    failing one carries its error (:meth:`StencilSampler.references`).  A
    step whose +-2h stencil spans the narrowest box interval is an input
    error (:func:`require_step_fits`), so the box is not blamed for what the
    step causes.
    """
    require_step_fits(sampler.chart, sampler.h)
    return sampler.chart.sample_points(SAMPLE_COUNT, seed, reject=sampler.probe_fails)


@np.errstate(all="ignore")
def compare(
    symbolic: TensorField,
    references: Sequence[Reference],
    points: Iterable[Mapping[str, float]],
    evaluated: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Max relative deviation between a symbolic tensor and its references, NaN if any is NaN.

    ``references`` is one reference's (value, error) pairs
    (:meth:`StencilSampler.references`), aligned with the points; a list of
    another length raises ``ValueError``.  Relative deviation uses max(1,
    |reference|) as denominator so that zero-valued components do not
    produce spurious failures.  ``evaluated`` is ``symbolic.numeric_many``
    on the points, when the caller has it.  At each point a reference's
    error is raised first, then a flagged component's error from a one-point
    batch.  Deviations are taken point by point: one expression over the
    stacked references holds two more arrays of the tensor's size, and for
    the Riemann tensor at n = 5 that raised the ``oracle`` command's peak of
    traced memory by about 100 KB.
    """
    points = list(points)
    if evaluated is None:
        evaluated = symbolic.numeric_many(PointBatch(symbolic.chart, points))
    values, degenerate = evaluated
    deviations: list[float] = []
    for point, (reference, error), value, skip in zip(
        points, references, values, degenerate.tolist(), strict=True
    ):
        if error is not None:
            # one error object per failed stencil: each raise starts a new traceback
            raise error.with_traceback(None)
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
