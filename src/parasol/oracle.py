"""Cross-validation of the symbolic geometry by second-order jets of the metric.

The oracle recomputes Christoffel symbols, Riemann and Ricci tensors at each
sample point from the metric's value, gradient and Hessian there (its
second-order jet), by forward-mode Taylor arithmetic (Griewank & Walther,
*Evaluating Derivatives*, SIAM, 2nd ed. 2008).  It shares two things with the
symbolic path: the metric entries' float tables (``Expr._float_tables``) and
the columns of :meth:`~parasol.batch.PointBatch.column`, so each ``x ** k``
and ``exp`` has the libm bits of ``Expr.evaluate``.  It reads none of the
symbolic derivative code (``differentiate``, ``partials``, ``contract``, the
connection builders), which keeps it an independent witness.  The jets are
exact up to roundoff: there is no step, and no truncation error to tell from
a wrong symbolic result.

An entry is N / (x^d * B^e), where N and B are sums of terms
c * x^a * exp(lambda . x).  A term's jet is closed form (:func:`_sum_jets`);
x^d * B^e and the quotient follow by the product and quotient rules.  The
references come from the jets in one stacked ``np.linalg.inv`` and a few
einsums per group of at most ``GROUP_POINTS`` points, since the stacks set
the run's peak RSS: at n = 5 (``ex5d_r5_g1``), all ten points in one group
had a traced peak of 334 KB, groups of five 203 KB.  The points are the
report's (:meth:`~parasol.analysis.Analysis.sample_points`), less those where
a jet or a reference is not a finite float.  numpy's warnings are silenced:
the inf and NaN values of badly scaled metrics drop the point or fail the
checks (see :func:`max_deviation`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

import numpy as np

from .batch import PointBatch
from .tensor import Metric, TensorField

__all__ = ["OracleConfig", "OracleConfigError", "oracle_sample_points", "compare", "max_deviation"]

# points whose references one stacked pass computes; the size of its stacks sets the run's peak RSS
GROUP_POINTS = 5

# the references of a sample point, by name
REFERENCES = ("christoffel", "riemann", "ricci")

Jet = tuple[np.ndarray, np.ndarray, np.ndarray]


class OracleConfigError(ValueError):
    """A tolerance that is not a positive finite number."""


@dataclass(frozen=True)
class OracleConfig:
    """Sampling seed and relative tolerance of one run."""

    seed: int = 42
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise OracleConfigError(
                "tolerance must be a positive finite number, got %r" % (self.tolerance,)
            )


def _layout(metric: Metric) -> tuple:
    """The upper-triangle entries (i, j, numerator, x^d, base, e), and their sums' terms.

    A part is the index of a sum of float-table terms, None where the entry has
    none.  A term's factor along axis i reads the rows of x_i^k, x_i^(k-1) and
    x_i^(k-2) in the column stack; row 0 is ones, as for a power 0 or no factor.
    """
    n = metric.chart.dimension
    sums: list[list] = []
    entries = []

    def add(table: list) -> int:
        sums.append(table)
        return len(sums) - 1

    for i in range(n):
        for j in range(i, n):
            expr = metric[i, j]
            if not expr._num:
                continue
            try:
                num, dmono, base = expr._float_tables()
            except OverflowError:  # a coefficient too large for a float: no jet is finite
                num, dmono, base = [(math.nan, (), ())], (), None
            entries.append((
                i, j, add(num), add([(1.0, dmono, ())]) if dmono else None,
                None if base is None else add(base), expr._dexp,
            ))
    columns: dict[tuple, int] = {}

    def row(key: tuple, used: bool = True) -> int:
        return columns.setdefault(key, len(columns) + 1) if used else 0

    terms = [term for table in sums for term in table]
    rows = np.zeros((3, len(terms), n), dtype=int)
    powers, rates = np.zeros((2, len(terms), n)), np.zeros((len(terms), n))
    for t, (_, mono, atom) in enumerate(terms):
        for i, k in mono:
            rows[:, t, i] = row((i, k)), row((i, k - 1), k != 1), row((i, k - 2), k not in (1, 2))
            powers[:, t, i] = k, k * (k - 1)
        for i, lam in atom:
            rates[t, i] = lam
    atoms = [row(atom, bool(atom)) for _, _, atom in terms]
    ends = list(accumulate(len(table) for table in sums))
    spans = list(zip([0] + ends, ends))
    coeffs = np.array([c for c, _, _ in terms])
    return entries, list(columns), (coeffs, atoms, rows, powers, rates, spans)


def _sum_jets(terms: tuple, stack: np.ndarray) -> list[Jet]:
    """Value, gradient and Hessian of each sum at every point, shapes (P,), (P, n), (P, n, n).

    A term's factor along axis i is x^k e^(lambda_i x), whose derivatives are
    e^(lambda_i x) times ``b`` and ``d``; the sweep multiplies the factors in by
    the product rule, and before axis i no derivative along it is nonzero.
    """
    coeffs, atoms, rows, (k1, k2), rates, spans = terms
    a, a1, a2 = stack[rows]  # (terms, n, points)
    b = k1[..., None] * a1 + rates[..., None] * a
    d = k2[..., None] * a2 + (2.0 * k1 * rates)[..., None] * a1 + (rates * rates)[..., None] * a
    v = coeffs[:, None] * stack[atoms]
    n = rows.shape[2]
    g, h = np.zeros(v.shape + (n,)), np.zeros(v.shape + (n, n))
    for i in range(n):
        cross = g * b[:, i, :, None]
        h *= a[:, i, :, None, None]
        h[..., i, :] = cross
        h[..., :, i] = cross
        h[..., i, i] = v * d[:, i]
        g *= a[:, i, :, None]
        g[..., i] = v * b[:, i]
        v = v * a[:, i]
    return [(v[s:e].sum(axis=0), g[s:e].sum(axis=0), h[s:e].sum(axis=0)) for s, e in spans]


def _product(x: Jet, y: Jet) -> Jet:
    (u, gu, hu), (w, gw, hw) = x, y
    outer = gu[..., :, None] * gw[..., None, :]
    hessian = u[:, None, None] * hw + w[:, None, None] * hu + outer + outer.swapaxes(-1, -2)
    return u * w, u[:, None] * gw + w[:, None] * gu, hessian


def _quotient(x: Jet, y: Jet) -> Jet:
    """x / y, from x = f y differentiated twice."""
    (u, gu, hu), (w, gw, hw) = x, y
    f = u / w
    gf = (gu - f[:, None] * gw) / w[:, None]
    outer = gf[..., :, None] * gw[..., None, :]
    hf = (hu - f[:, None, None] * hw - outer - outer.swapaxes(-1, -2)) / w[:, None, None]
    return f, gf, hf


def _metric_jets(layout: tuple, batch: PointBatch) -> Jet:
    """g, dg and ddg at every point, dg[p, a, b, c] = d_c g_ab and ddg[p, a, b, c, e] = d_c d_e g_ab."""
    entries, keys, terms = layout
    n = batch.chart.dimension
    stack = np.array([[1.0] * batch.size] + [batch.column(key)[0] for key in keys])
    sums = _sum_jets(terms, stack)
    value = np.zeros((batch.size, n, n))
    grad, hess = np.zeros(value.shape + (n,)), np.zeros(value.shape + (n, n))
    for i, j, num, mono, base, power in entries:
        den = None if mono is None else sums[mono]
        for _ in range(power if base is not None else 0):
            den = sums[base] if den is None else _product(den, sums[base])
        jet = sums[num] if den is None else _quotient(sums[num], den)
        for a, b in {(i, j), (j, i)}:
            value[:, a, b], grad[:, a, b], hess[:, a, b] = jet
    return value, grad, hess


def _finite(*stacks: np.ndarray) -> np.ndarray:
    """Where every stack, indexed by point on its first axis, holds finite floats only."""
    finite = np.ones(len(stacks[0]), dtype=bool)
    for stack in stacks:
        finite &= np.isfinite(stack).all(axis=tuple(range(1, stack.ndim)))
    return finite


@np.errstate(all="ignore")
def _references(layout: tuple, batch: PointBatch) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Where every jet and reference is finite, and the references there, stacked."""
    g, dg, ddg = _metric_jets(layout, batch)
    finite = _finite(g, dg, ddg)
    finite[finite] = np.linalg.det(g[finite]) != 0.0  # inv raises where det is 0
    g, dg, ddg = g[finite], dg[finite], ddg[finite]
    ginv = np.linalg.inv(g)
    # first[p, l, i, j] = 1/2 (d_i g_jl + d_j g_il - d_l g_ij), gamma[p, k, i, j] = Gamma^k_ij
    first = np.einsum("...lji->...lij", dg) + np.einsum("...ilj->...lij", dg)
    first -= np.einsum("...ijl->...lij", dg)
    first *= 0.5
    gamma = np.einsum("...kl,...lij->...kij", ginv, first)
    # d_m Gamma^k_ij = g^kl (d_m first[l, i, j] - d_m g_lb Gamma^b_ij), as dgamma[p, m, k, i, j]
    dfirst = np.einsum("...jlmi->...mlij", ddg) + np.einsum("...ilmj->...mlij", ddg)
    dfirst -= np.einsum("...ijml->...mlij", ddg)
    dfirst *= 0.5
    dfirst -= np.einsum("...lbm,...bij->...mlij", dg, gamma)
    dgamma = np.einsum("...kl,...mlij->...mkij", ginv, dfirst)
    # riem[l, i, j, k] = d_i gamma[l, j, k] - d_j gamma[l, i, k]
    #                    + gamma[l, i, m] gamma[m, j, k] - gamma[l, j, m] gamma[m, i, k]
    riem = np.einsum("...iljk->...lijk", dgamma) - np.einsum("...jlik->...lijk", dgamma)
    riem += np.einsum("...lim,...mjk->...lijk", gamma, gamma)
    riem -= np.einsum("...ljm,...mik->...lijk", gamma, gamma)
    references = {"christoffel": gamma, "riemann": riem, "ricci": np.einsum("...iijk->...jk", riem)}
    # g^-1 may overflow where g does not, as where an entry is subnormal
    sound = _finite(*references.values())
    finite[finite] = sound
    return finite, {name: values[sound] for name, values in references.items()}


def oracle_sample_points(
    metric: Metric, points: Sequence[Mapping[str, float]]
) -> tuple[list[Mapping[str, float]], dict[str, list[np.ndarray]]]:
    """The given points at which every metric jet and reference is finite, and their references.

    Each reference's list is aligned with the points kept.  The float tables are
    read once, and ``GROUP_POINTS`` points at a time make one batch.
    """
    layout = _layout(metric)
    kept: list[Mapping[str, float]] = []
    references: dict[str, list[np.ndarray]] = {name: [] for name in REFERENCES}
    for start in range(0, len(points), GROUP_POINTS):
        group = points[start : start + GROUP_POINTS]
        finite, computed = _references(layout, PointBatch(metric.chart, group))
        kept += [point for point, ok in zip(group, finite.tolist()) if ok]
        for name, values in computed.items():
            references[name] += list(values)
    return kept, references


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
