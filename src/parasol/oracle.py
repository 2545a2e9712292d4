"""Finite-difference cross-validation of the symbolic geometry.

The oracle recomputes Christoffel symbols, Riemann and Ricci tensors from
central differences of numerically evaluated metric components.  It shares
nothing with the symbolic derivative code paths except ``Expr.evaluate``,
which keeps it an independent witness.  Central differences are O(h^2):
halving the step should shrink the deviation by roughly 4x, and that scaling
is itself a checkable property.  Within one oracle run each stencil point is
evaluated once: the Riemann stencil revisits the points of its Christoffel
stencils, and the Ricci and step-halving checks reuse the Riemann and
Christoffel references, so a :class:`StencilSampler` keeps them for the run.
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
from .symexpr import DegenerateEvaluationError, coordinate_values
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


class StencilSampler:
    """Central-difference references of one metric for the length of one run.

    The metric's matrix and determinant are kept per point, keyed by the
    exact float coordinates that the stencil arithmetic (``xs[i] += h``)
    produces, so a point that several stencils visit is evaluated once.  The
    degeneracy checks run on every lookup: stencils that share a point check
    it against their own centre's determinant sign.  Christoffel and Riemann
    references are kept per point and step for the checks that reuse them.
    """

    def __init__(self, metric: Metric):
        self.chart = metric.chart
        n = self.chart.dimension
        self._rows = [[metric[i, j] for j in range(n)] for i in range(n)]
        self._samples: dict[tuple[float, ...], tuple[np.ndarray, float]] = {}
        self._gammas: dict[tuple, np.ndarray] = {}
        self._riemanns: dict[tuple, np.ndarray] = {}

    def sample(self, xs: list[float], center_det_sign: float | None = None) -> tuple[np.ndarray, float]:
        """(matrix, det) of the metric at ``xs``; raises where the stencil degenerates."""
        key = tuple(xs)
        sample = self._samples.get(key)
        if sample is None:
            xs = coordinate_values(self.chart, xs)
            matrix = np.array([[comp.evaluate(xs) for comp in row] for row in self._rows])
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
            gamma = self._gammas[key] = self._christoffel(xs, h)
        return gamma

    @np.errstate(all="ignore")
    def _christoffel(self, xs: list[float], h: float) -> np.ndarray:
        n = len(xs)
        center, det = self.sample(xs)
        sign = float(np.sign(det))
        ginv = np.linalg.inv(center)
        dg = np.empty((n, n, n))
        for i in range(n):
            plus = list(xs)
            minus = list(xs)
            plus[i] += h
            minus[i] -= h
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
            riem = self._riemanns[key] = self._riemann(xs, h)
        return riem

    @np.errstate(all="ignore")
    def _riemann(self, xs: list[float], h: float) -> np.ndarray:
        n = len(xs)
        gamma = self.christoffel(xs, h)
        dgamma = np.empty((n, n, n, n))
        for i in range(n):
            plus = list(xs)
            minus = list(xs)
            plus[i] += h
            minus[i] -= h
            dgamma[i] = (self.christoffel(plus, h) - self.christoffel(minus, h)) / (2.0 * h)
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

    A point is rejected when |det g| < ``DEGENERACY_CUTOFF`` at the point or
    anywhere on its finite-difference stencil, or when the determinant changes
    sign there.  A step whose +-2h stencil spans the narrowest box interval is
    an input error (:func:`require_step_fits`), so the box is not blamed for
    what the step causes.
    """
    require_step_fits(chart, cfg)

    def reject(point: dict[str, float]) -> bool:
        xs = [point[c] for c in chart.coordinates]
        # a candidate's probes share no points with another's: nothing to keep
        stencil = StencilSampler(metric)
        try:
            sign = float(np.sign(stencil.sample(xs)[1]))
            for i in range(chart.dimension):
                for offset in (-2.0 * cfg.h, 2.0 * cfg.h):
                    shifted = list(xs)
                    shifted[i] += offset
                    stencil.sample(shifted, sign)
        except (StencilDegeneracyError, DegenerateEvaluationError):
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
    deviations: list[float] = []
    for point in points:
        reference = oracle_fn(point)
        values = symbolic.numeric_at(point)
        if values.shape != reference.shape:
            raise ValueError(
                "shape mismatch: symbolic %r vs oracle %r" % (values.shape, reference.shape)
            )
        deviation = np.abs(values - reference) / np.maximum(1.0, np.abs(reference))
        deviations.append(float(deviation.max()))
    return max_deviation(deviations)


def max_deviation(deviations: Sequence[float]) -> float:
    """Largest deviation, NaN when any deviation is NaN (Python's ``max`` drops NaN)."""
    return float(np.max(deviations)) if deviations else 0.0
