"""Finite-difference cross-validation of the symbolic geometry.

The oracle recomputes Christoffel symbols, Riemann and Ricci tensors from
central differences of numerically evaluated metric components.  It shares
nothing with the symbolic derivative code paths except float evaluation
(``Expr.evaluate`` and its batched form, :mod:`parasol.batch`), which keeps
it an independent witness.  Central differences are O(h^2): halving the step
should shrink the deviation by roughly 4x, and that scaling is itself a
checkable property.  Within one oracle run each stencil point is evaluated
once: the Riemann stencil revisits the points of its Christoffel stencils,
and the Ricci and step-halving checks reuse the Riemann and Christoffel
references, so a :class:`StencilSampler` keeps them for the run.

Float evaluation is batched.  A Christoffel or Riemann reference evaluates
the metric at the points of its stencil in one batch (at most 1 + 2n(n + 2)
points, so the arrays stay a few kilobytes); each candidate sample point's
probes form one batch; :func:`compare` evaluates the symbolic tensor at all
sample points in one call.  A batch does ``+``, ``*`` and
``/`` in numpy, in the order of the one-point path, and leaves ``x ** k``
and ``exp`` to Python's libm calls: numpy's vectorised ``power`` and ``exp``
round differently on some inputs, which would move the roundoff-level
deviations the reports print.  Every value therefore has the bits that
``Expr.evaluate`` gives, and a point where ``Expr.evaluate`` would raise is
evaluated alone when it is looked up, so it raises the same error in the
same order.  On badly scaled metrics the float work may overflow; numpy's
warnings are silenced, because the resulting inf and NaN values already fail
the checks (see :func:`max_deviation`).
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
    """The points a Christoffel stencil at ``xs`` visits: the centre and its neighbours."""
    return [xs] + [side for pair in _neighbours(xs, h) for side in pair]


class StencilSampler:
    """Central-difference references of one metric for the length of one run.

    The metric's matrix and determinant are kept per point, keyed by the
    exact float coordinates that the stencil arithmetic (:func:`_neighbours`)
    produces, so a point that several stencils visit is evaluated once.  A
    Christoffel or Riemann reference first fills, in one
    :class:`~parasol.batch.PointBatch`, the keys of its stencil that are not
    kept yet: 1 + 2n points for a Christoffel stencil, up to 1 + 2n(n + 2)
    for a Riemann stencil.  Each metric entry is evaluated once over the
    batch and one ``np.linalg.det`` runs over the stack.  The batch leaves
    ``x ** k`` and ``exp`` to Python rather than ``np.power`` and ``np.exp``,
    which round differently from libm on some inputs, so every value has the
    bits of ``Expr.evaluate``.  A key where an entry is degenerate is not
    kept: its lookup evaluates it alone, and that raises the entry's own
    error.  The degeneracy checks run on every lookup, in the order the
    stencils visit their points: stencils that share a point check it against
    their own centre's determinant sign.  Christoffel and Riemann references
    at the points looked up are kept per point and step for the checks that
    reuse them.  Once a Riemann reference is computed, the points of its
    stencil other than the centre are dropped, and so are the Christoffel
    symbols of the neighbours: no later check visits them, and the run's
    memory peaks while they would be kept.
    """

    def __init__(self, metric: Metric):
        self.chart = metric.chart
        self._field = metric.field
        # every fill batches the same entries: their float tables are built once, here
        for comp in metric.field._comps:
            if not comp.is_symbolically_zero:
                comp.keep_float_tables()
        self._samples: dict[tuple[float, ...], tuple[np.ndarray, float]] = {}
        self._gammas: dict[tuple, np.ndarray] = {}
        self._riemanns: dict[tuple, np.ndarray] = {}

    @np.errstate(all="ignore")
    def fill(self, keys: Iterable[Sequence[float]]) -> bool:
        """Evaluate the metric at the points not kept yet, in one batch.

        Returns False when an entry is degenerate at one of them; such a
        point is not kept.
        """
        keys = [key for key in dict.fromkeys(map(tuple, keys)) if key not in self._samples]
        if not keys:
            return True
        stack, degenerate = self._field.numeric_many(PointBatch(self.chart, keys))
        dets = np.linalg.det(stack).tolist()
        for key, matrix, det, skip in zip(keys, stack, dets, degenerate.tolist()):
            if not skip:
                matrix = matrix.copy()  # its own memory, freed when the key is dropped
                matrix.flags.writeable = False
                self._samples[key] = (matrix, det)
        return not degenerate.any()

    def sample(self, xs: list[float], center_det_sign: float | None = None) -> tuple[np.ndarray, float]:
        """(matrix, det) of the metric at ``xs``; raises where the stencil degenerates."""
        key = tuple(xs)
        sample = self._samples.get(key)
        if sample is None:
            xs = coordinate_values(self.chart, xs)
            matrix = self._field.numeric_at(xs)
            matrix.flags.writeable = False
            with np.errstate(all="ignore"):
                det = float(np.linalg.det(matrix))
            sample = self._samples[key] = (matrix, det)
        det = sample[1]
        if abs(det) < DEGENERACY_CUTOFF or (
            center_det_sign is not None and det * center_det_sign < 0
        ):
            raise StencilDegeneracyError(
                "metric determinant %.3e degenerates inside the stencil at %r" % (det, list(xs))
            )
        return sample

    def christoffel(self, point: Point, h: float) -> np.ndarray:
        """Christoffel symbols gamma[k, i, j] from central differences of g."""
        xs = coordinate_values(self.chart, point)
        key = (tuple(xs), h)
        gamma = self._gammas.get(key)
        if gamma is None:
            self.fill(_stencil(xs, h))
            gamma = self._gammas[key] = self._christoffel(xs, h)
        return gamma

    @np.errstate(all="ignore")
    def _christoffel(self, xs: list[float], h: float) -> np.ndarray:
        n = len(xs)
        center, det = self.sample(xs)
        sign = float(np.sign(det))
        ginv = np.linalg.inv(center)
        dg = np.empty((n, n, n))
        for i, (plus, minus) in enumerate(_neighbours(xs, h)):
            dg[i] = (self.sample(plus, sign)[0] - self.sample(minus, sign)[0]) / (2.0 * h)
        # gamma[k, i, j] = 1/2 g^{kl} (dg_i[j, l] + dg_j[i, l] - dg_l[i, j])
        return 0.5 * (
            np.einsum("kl,ijl->kij", ginv, dg)
            + np.einsum("kl,jil->kij", ginv, dg)
            - np.einsum("kl,lij->kij", ginv, dg)
        )

    def riemann(self, point: Point, h: float) -> np.ndarray:
        """Riemann tensor riem[l, i, j, k] from nested central differences."""
        xs = coordinate_values(self.chart, point)
        key = (tuple(xs), h)
        riem = self._riemanns.get(key)
        if riem is None:
            stencil = [tuple(p) for q in _stencil(xs, h) for p in _stencil(q, h)]
            self.fill(stencil)
            riem = self._riemanns[key] = self._riemann(xs, h)
            for dropped in set(stencil) - {key[0]}:
                del self._samples[dropped]
        return riem

    @np.errstate(all="ignore")
    def _riemann(self, xs: list[float], h: float) -> np.ndarray:
        n = len(xs)
        gamma = self.christoffel(xs, h)
        dgamma = np.empty((n, n, n, n))
        for i, (plus, minus) in enumerate(_neighbours(xs, h)):
            dgamma[i] = (self._christoffel(plus, h) - self._christoffel(minus, h)) / (2.0 * h)
        # riem[l, i, j, k] = d_i gamma[l, j, k] - d_j gamma[l, i, k]
        #                    + gamma[l, i, m] gamma[m, j, k] - gamma[l, j, m] gamma[m, i, k]
        riem = np.einsum("iljk->lijk", dgamma) - np.einsum("jlik->lijk", dgamma)
        riem += np.einsum("lim,mjk->lijk", gamma, gamma)
        riem -= np.einsum("ljm,mik->lijk", gamma, gamma)
        return riem

    def ricci(self, point: Point, h: float) -> np.ndarray:
        """Ricci tensor S[j, k] = riem[i, i, j, k] (weighted trace only)."""
        return np.einsum("iijk->jk", self.riemann(point, h))


def fd_christoffel(metric: Metric, point: Point, cfg: OracleConfig) -> np.ndarray:
    """Christoffel symbols gamma[k, i, j] from central differences of g."""
    return StencilSampler(metric).christoffel(point, cfg.h)


def fd_riemann(metric: Metric, point: Point, cfg: OracleConfig) -> np.ndarray:
    """Riemann tensor riem[l, i, j, k] from nested central differences."""
    return StencilSampler(metric).riemann(point, cfg.h)


def fd_ricci(metric: Metric, point: Point, cfg: OracleConfig) -> np.ndarray:
    """Ricci tensor S[j, k] = riem[i, i, j, k] (weighted trace only)."""
    return StencilSampler(metric).ricci(point, cfg.h)


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

    def reject(point: dict[str, float]) -> bool:
        xs = [point[c] for c in chart.coordinates]
        probes = [xs]
        for i in range(chart.dimension):
            for offset in (-2.0 * cfg.h, 2.0 * cfg.h):
                shifted = list(xs)
                shifted[i] += offset
                probes.append(shifted)
        # a candidate's probes share no points with another's: nothing to keep
        stencil = StencilSampler(metric)
        if not stencil.fill(probes):
            return True
        try:
            sign = float(np.sign(stencil.sample(xs)[1]))
            for probe in probes[1:]:
                stencil.sample(probe, sign)
        except StencilDegeneracyError:
            return True
        return False

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
