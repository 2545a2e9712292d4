"""Tensor fields, metrics, frames and index gymnastics on a chart.

Components are exact :class:`~parasol.symexpr.Expr` values stored flat in
row-major order with contravariant slots first: a valence-(p, q) field is
indexed ``T[i1, ..., ip, j1, ..., jq]``.  Raising an index appends the new
contravariant slot after the existing ones; lowering appends the new
covariant slot last.  Metric inverses are exact adjugate-over-determinant
quotients so that downstream identities can be checked symbolically rather
than numerically.

The determinant and the n^2 cofactors come from one memoized cofactor
expansion: each minor, keyed by its original row and column indices, is
expanded along its first row once, reused wherever the expansion meets it
again, and freed once no later cofactor can meet it.  The determinant alone
costs O(n 2^n) ring operations and the whole inverse O(n^2 2^n), against
O(n!) and O(n n!) for a plain expansion.  Each minor is still built from
the same ring operations in the same order as a plain expansion, so every
printed expression is unchanged.  Bareiss elimination would need exact
division of sums, which the ``Expr`` ring does not provide.

Index gymnastics go through one exact Einstein summation,
:func:`contract`, e.g. ``contract("ab,ai,bj->ij", g, phi, phi)`` for
g(phi X, phi Y); the connection layer (Christoffel symbols, Riemann tensor,
covariant derivatives) is built by it too.  The ring is exact, but the order
of its operations still decides the insertion order of an expression's
terms, hence the float summation order of its evaluation and the low-order
bits of every reported ``numeric_max``.  So ``contract`` builds each
component from the ring operations of the plain nested loop, in that loop's
order:

* summed indices (those not in the output) are iterated outermost-first in
  alphabetical order;
* each product is formed left to right in operand order;
* a product with a symbolically zero factor is skipped, which changes
  nothing, since ``x + 0`` returns ``x`` and ``0 * y`` returns ``0``;
* products joined by ``+`` or ``-`` share one accumulator and are added or
  subtracted in turn for each value of the summed indices they name:
  ``"mk,mij+jm,mik->ijk"`` adds both products for m = 0, then both for
  m = 1, and so on, with no intermediate tensor; a product that does not
  name a summed index is added once, at that index's first value, so
  ``"jk-mk,mj->jk"`` starts from T[j, k] and subtracts the m-terms;
* each output index takes the variance of the first operand slot it
  names, and contravariant output indices must come first;
* permutations (``"kji->kij"``) and traces (``"iijk->jk"``) fall out of the
  same rule, and an empty output (``"ij,i,j->"``) returns a scalar ``Expr``.

An operand for an empty term (``",kij->kij"``) may be a scalar ``Expr``.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .chart import Chart
from .symexpr import DegenerateEvaluationError, Expr, InvariantError, coordinate_values

__all__ = [
    "TensorField",
    "Metric",
    "Frame",
    "ValenceError",
    "SingularMetricError",
    "DegenerateMetricError",
    "FrameError",
    "SignatureResult",
    "contract",
    "lie_bracket",
    "partials",
    "signature_at",
    "kronecker",
]


class ValenceError(ValueError):
    pass


class SingularMetricError(ValueError):
    """Metric determinant is canonically zero."""


class DegenerateMetricError(ValueError):
    """Metric degenerates numerically at a specific point."""

    def __init__(self, message: str, det_value: float):
        super().__init__(message)
        self.det_value = det_value


class FrameError(ValueError):
    pass


class TensorField:
    """Valence-(p, q) tensor field with exact symbolic components."""

    __slots__ = ("chart", "p", "q", "_n", "_comps")

    def __init__(self, chart: Chart, p: int, q: int, comps: Sequence[Expr]):
        n = chart.dimension
        expected = n ** (p + q)
        if len(comps) != expected:
            raise ValenceError(
                "component count %d does not match valence (%d, %d) in dimension %d"
                % (len(comps), p, q, n)
            )
        self.chart = chart
        self.p = p
        self.q = q
        self._n = n
        self._comps = list(comps)

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, chart: Chart, p: int, q: int, fn: Callable[[tuple[int, ...]], Expr]) -> "TensorField":
        n = chart.dimension
        return cls(chart, p, q, [fn(idx) for idx in product(range(n), repeat=p + q)])

    @classmethod
    def filled(cls, chart: Chart, p: int, q: int, value: Expr) -> "TensorField":
        n = chart.dimension
        return cls(chart, p, q, [value] * (n ** (p + q)))

    @classmethod
    def zero(cls, chart: Chart, p: int, q: int) -> "TensorField":
        return cls.filled(chart, p, q, Expr.zero(chart))

    @classmethod
    def vector(cls, chart: Chart, comps: Sequence[Expr]) -> "TensorField":
        return cls(chart, 1, 0, list(comps))

    @classmethod
    def oneform(cls, chart: Chart, comps: Sequence[Expr]) -> "TensorField":
        return cls(chart, 0, 1, list(comps))

    # -- access ---------------------------------------------------------------

    @property
    def rank(self) -> int:
        return self.p + self.q

    @property
    def valence(self) -> tuple[int, int]:
        return self.p, self.q

    def __getitem__(self, index) -> Expr:
        if isinstance(index, int):
            index = (index,)
        if len(index) != self.p + self.q:
            raise ValenceError("index %r has wrong length for valence %r" % (index, self.valence))
        n = self._n
        flat = 0
        for k in index:
            flat = flat * n + k
        return self._comps[flat]

    def indices(self) -> Iterator[tuple[int, ...]]:
        return product(range(self.chart.dimension), repeat=self.rank)

    def components(self) -> Iterator[tuple[tuple[int, ...], Expr]]:
        for idx, comp in zip(self.indices(), self._comps):
            yield idx, comp

    # -- pointwise algebra ----------------------------------------------------

    def _check_compatible(self, other: "TensorField") -> None:
        self.chart.require_same(other.chart)
        if self.valence != other.valence:
            raise ValenceError("valence mismatch: %r vs %r" % (self.valence, other.valence))

    def map(self, fn: Callable[[Expr], Expr]) -> "TensorField":
        return TensorField(self.chart, self.p, self.q, [fn(c) for c in self._comps])

    def zip_with(self, other: "TensorField", fn: Callable[[Expr, Expr], Expr]) -> "TensorField":
        self._check_compatible(other)
        return TensorField(
            self.chart, self.p, self.q, [fn(a, b) for a, b in zip(self._comps, other._comps)]
        )

    def __add__(self, other: "TensorField") -> "TensorField":
        return self.zip_with(other, lambda a, b: a + b)

    def __sub__(self, other: "TensorField") -> "TensorField":
        return self.zip_with(other, lambda a, b: a - b)

    def __neg__(self) -> "TensorField":
        return self.map(lambda a: -a)

    def scale(self, factor) -> "TensorField":
        if not isinstance(factor, Expr):
            factor = Expr.constant(self.chart, Fraction(factor))
        return self.map(lambda a: a * factor)

    # -- tensor algebra ---------------------------------------------------------

    def trace(self) -> Expr:
        """Trace of a (1, 1) tensor."""
        if self.valence != (1, 1):
            raise ValenceError("trace needs a (1, 1) tensor, got %r" % (self.valence,))
        return contract("ii->", self)

    def swap_down(self, a: int, b: int) -> "TensorField":
        """Transpose two covariant slots."""
        letters = string.ascii_letters[: self.rank]
        out = list(letters)
        a, b = self.p + a, self.p + b
        out[a], out[b] = out[b], out[a]
        return contract("%s->%s" % (letters, "".join(out)), self)

    # -- predicates and evaluation ----------------------------------------------

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self._comps)

    def is_symmetric_down(self, a: int, b: int) -> bool:
        return (self - self.swap_down(a, b)).is_zero()

    def max_abs(self, points: Iterable[Mapping[str, float]]) -> float:
        """Largest |component| over the sample points; degenerate points skipped."""
        comps = [comp for comp in self._comps if not comp.is_symbolically_zero]
        worst = 0.0
        for point in points:
            xs = coordinate_values(self.chart, point)
            for comp in comps:
                try:
                    value = abs(comp.evaluate(xs))
                except DegenerateEvaluationError:
                    continue
                if value > worst:
                    worst = value
        return worst

    def numeric_at(self, point: Mapping[str, float] | Sequence[float]) -> np.ndarray:
        n = self.chart.dimension
        xs = coordinate_values(self.chart, point)
        values = [0.0 if comp.is_symbolically_zero else comp.evaluate(xs) for comp in self._comps]
        return np.array(values, dtype=float).reshape((n,) * self.rank) if self.rank else np.array(values[0])

    def __repr__(self) -> str:
        return "TensorField(p=%d, q=%d, dim=%d)" % (self.p, self.q, self.chart.dimension)


def kronecker(chart: Chart) -> TensorField:
    """Identity (1, 1) tensor."""
    one = Expr.one(chart)
    zero = Expr.zero(chart)
    n = chart.dimension
    return TensorField(chart, 1, 1, [one if i == j else zero for i in range(n) for j in range(n)])


def partials(tensor: TensorField) -> TensorField:
    """Coordinate partial derivatives, the derivative slot appended as the last covariant index."""
    coords = tensor.chart.coordinates
    comps = [comp.differentiate(name) for comp in tensor._comps for name in coords]
    return TensorField(tensor.chart, tensor.p, tensor.q + 1, comps)


def contract(spec: str, *operands: TensorField | Expr) -> TensorField | Expr:
    """Exact Einstein summation, e.g. ``contract("ab,ai,bj->ij", g, phi, phi)``.

    The rules, and why each component is built in plain nested-loop order,
    are in the module docstring.
    """
    lhs, arrow, out = spec.partition("->")
    if not arrow:
        raise ValenceError("contraction spec %r has no '->'" % spec)
    negated = [sign == "-" for sign in "+" + "".join(re.findall("[+-]", lhs))]
    products = [part.split(",") for part in re.split("[+-]", lhs)]
    terms = [term for part in products for term in part]
    if len(terms) != len(operands):
        raise ValenceError("%r names %d operands, got %d" % (spec, len(terms), len(operands)))
    chart = operands[0].chart
    fields = []
    for term, op in zip(terms, operands):
        if op.chart is not chart:
            chart.require_same(op.chart)
        if isinstance(op, Expr):
            op = TensorField(chart, 0, 0, [op])
        if len(term) != op.rank:
            raise ValenceError("index %r does not fit a valence %r operand" % (term, op.valence))
        fields.append((term, op))
    if len(set(out)) != len(out):
        raise ValenceError("repeated output index in %r" % spec)
    upper = []
    for letter in out:
        if not all(letter in "".join(part) for part in products):
            raise ValenceError("output index %r is missing from a product of %r" % (letter, spec))
        term, op = next((term, op) for term, op in fields if letter in term)
        upper.append(term.index(letter) < op.p)
    if upper != sorted(upper, reverse=True):
        raise ValenceError("contravariant output indices must come first in %r" % spec)

    n = chart.dimension
    summed = sorted(set(lhs) - set(out) - set("+-,"))
    assignments = list(product(range(n), repeat=len(summed)))

    def offsets(term: str, letters: Sequence[str], values: Iterable[tuple[int, ...]]) -> list[int]:
        """Flat offset into the operand of each assignment of values to ``letters``."""
        strides = [
            sum(n ** (len(term) - 1 - k) for k, t in enumerate(term) if t == letter)
            for letter in letters
        ]
        return [sum(map(int.__mul__, strides, v)) for v in values]

    # one step per (summed assignment, product) in loop order; a product runs
    # only where the summed indices it does not name sit at their first value
    plans = []
    operand = iter(fields)
    outputs = list(product(range(n), repeat=len(out)))
    for negate, part in zip(negated, products):
        factors = [next(operand) for _ in part]
        plan = [(op._comps, offsets(t, out, outputs), offsets(t, summed, assignments)) for t, op in factors]
        plans.append((negate, "".join(part), plan))
    steps = [
        (negate, [(comps, outs, sums[s]) for comps, outs, sums in plan])
        for s, values in enumerate(assignments)
        for negate, named, plan in plans
        if all(v == 0 or letter in named for letter, v in zip(summed, values))
    ]

    zero = Expr.zero(chart)
    components = []
    for o in range(len(outputs)):
        acc = zero
        for negate, factors in steps:
            row = [comps[outs[o] + offset] for comps, outs, offset in factors]
            for factor in row:
                if factor.is_symbolically_zero:
                    break
            else:
                value = row[0]
                for factor in row[1:]:
                    value = value * factor
                acc = acc - value if negate else acc + value
        components.append(acc)
    if not out:
        return components[0]
    return TensorField(chart, sum(upper), len(out) - sum(upper), components)


def _minor_det(
    matrix: list[list[Expr]],
    chart: Chart,
    cache: dict[tuple[tuple[int, ...], tuple[int, ...]], Expr],
    rows: tuple[int, ...],
    cols: tuple[int, ...],
) -> Expr:
    """Determinant of the minor on ``rows`` x ``cols``, memoized in ``cache``.

    Expands along the first remaining row in column order, skipping
    symbolically zero entries, so each minor is built from the same ring
    operations as a plain recursive cofactor expansion; the cache only
    drops the repeats.
    """
    if len(rows) == 1:
        return matrix[rows[0]][cols[0]]
    key = (rows, cols)
    cached = cache.get(key)
    if cached is not None:
        return cached
    first, rest = rows[0], rows[1:]
    total = Expr.zero(chart)
    for k, col in enumerate(cols):
        entry = matrix[first][col]
        if entry.is_symbolically_zero:
            continue
        cof = entry * _minor_det(matrix, chart, cache, rest, cols[:k] + cols[k + 1 :])
        total = total + (cof if k % 2 == 0 else -cof)
    cache[key] = total
    return total


class Metric:
    """Symmetric (0, 2) metric with eagerly cached exact inverse and determinant."""

    def __init__(self, field: TensorField):
        if field.valence != (0, 2):
            raise ValenceError("metric must be a (0, 2) tensor")
        if not field.is_symmetric_down(0, 1):
            raise ValenceError("metric components are not symmetric")
        self.field = field
        self.chart = field.chart
        n = self.chart.dimension
        matrix = [[field[i, j] for j in range(n)] for i in range(n)]
        cache: dict[tuple[tuple[int, ...], tuple[int, ...]], Expr] = {}
        everything = tuple(range(n))
        self.determinant = _minor_det(matrix, self.chart, cache, everything, everything)
        if self.determinant.is_symbolically_zero:
            raise SingularMetricError("metric determinant is canonically zero")
        reciprocal = self.determinant._reciprocal()
        inverse_entries = [None] * (n * n)
        for j in range(n):
            rows = everything[:j] + everything[j + 1 :]
            for i in range(n):
                cols = everything[:i] + everything[i + 1 :]
                entry = _minor_det(matrix, self.chart, cache, rows, cols) * reciprocal
                inverse_entries[i * n + j] = entry if (i + j) % 2 == 0 else -entry
            # cofactors for a later j drop a later row, so of the minors cached
            # so far they only meet those on rows (k, ..., n - 1) with k > j + 1;
            # dropping the rest keeps peak memory near the plain expansion's
            for key in [key for key in cache if key[0][0] <= j + 1]:
                del cache[key]
        self.inverse = TensorField(self.chart, 2, 0, inverse_entries)
        identity = self._product_with_inverse()
        if not identity.is_zero():
            raise InvariantError("metric inverse failed g * g^-1 = I")

    def _product_with_inverse(self) -> TensorField:
        return contract("im,mj->ij", self.inverse, self.field) - kronecker(self.chart)

    def __getitem__(self, index) -> Expr:
        return self.field[index]

    def inner(self, x: TensorField, y: TensorField) -> Expr:
        """g(X, Y) for vector fields X, Y."""
        if x.valence != (1, 0) or y.valence != (1, 0):
            raise ValenceError("inner product needs two vector fields")
        return contract("ij,i,j->", self.field, x, y)

    def lower(self, tensor: TensorField, up_slot: int = 0) -> TensorField:
        """Lower one contravariant slot; the new covariant slot goes last."""
        if not 0 <= up_slot < tensor.p:
            raise ValenceError("no contravariant slot %d to lower" % up_slot)
        *letters, new, summed = string.ascii_letters[: tensor.rank + 1]
        slots = "".join(letters[:up_slot] + [summed] + letters[up_slot:])
        return contract("%s%s,%s->%s" % (new, summed, slots, "".join(letters) + new), self.field, tensor)

    def raise_index(self, tensor: TensorField, down_slot: int = 0) -> TensorField:
        """Raise one covariant slot; the new contravariant slot goes last."""
        if not 0 <= down_slot < tensor.q:
            raise ValenceError("no covariant slot %d to raise" % down_slot)
        *letters, new, summed = string.ascii_letters[: tensor.rank + 1]
        cut = tensor.p + down_slot
        slots = "".join(letters[:cut] + [summed] + letters[cut:])
        out = "".join(letters[: tensor.p] + [new] + letters[tensor.p :])
        return contract("%s%s,%s->%s" % (new, summed, slots, out), self.inverse, tensor)

    def numeric_at(self, point: Mapping[str, float] | Sequence[float]) -> np.ndarray:
        return self.field.numeric_at(point)


@dataclass(frozen=True)
class SignatureResult:
    n_plus: int
    n_minus: int

    @property
    def index(self) -> int:
        return self.n_minus


def signature_at(
    metric: Metric,
    point: Mapping[str, float] | Sequence[float],
    det_tolerance: float = 1e-9,
) -> SignatureResult:
    """Pointwise signature (eigenvalue sign counts) of the metric matrix.

    By Sylvester's law of inertia the sign counts equal the pivot signs of a
    symmetric pivoted elimination; the counts are computed from the symmetric
    eigenvalue decomposition of the numeric matrix.  Signature is reported
    per point only: metrics whose determinant changes sign across the chart
    have no global signature.
    """
    matrix = metric.numeric_at(point)
    det = float(np.linalg.det(matrix))
    if abs(det) <= det_tolerance:
        raise DegenerateMetricError(
            "metric is degenerate at the point (det = %.3e)" % det, det
        )
    eigenvalues = np.linalg.eigvalsh(matrix)
    n_plus = int(np.sum(eigenvalues > 0.0))
    n_minus = int(np.sum(eigenvalues < 0.0))
    if n_plus + n_minus != metric.chart.dimension:
        raise DegenerateMetricError(
            "eigenvalue signs did not split cleanly (det = %.3e)" % det, det
        )
    return SignatureResult(n_plus, n_minus)


def lie_bracket(x: TensorField, y: TensorField) -> TensorField:
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k."""
    if x.valence != (1, 0) or y.valence != (1, 0):
        raise ValenceError("lie_bracket needs two vector fields")
    return contract("i,ki-i,ki->k", x, partials(y), y, partials(x))


class Frame:
    """Ordered list of n vector fields, numerically independent at the base point."""

    def __init__(self, vectors: Sequence[TensorField]):
        if not vectors:
            raise FrameError("empty frame")
        chart = vectors[0].chart
        n = chart.dimension
        if len(vectors) != n:
            raise FrameError("frame needs %d vectors, got %d" % (n, len(vectors)))
        for vec in vectors:
            chart.require_same(vec.chart)
            if vec.valence != (1, 0):
                raise FrameError("frame entries must be vector fields")
        self.chart = chart
        self.vectors = tuple(vectors)
        base = {name: float(v) for name, v in zip(chart.coordinates, chart.base_point)}
        matrix = np.array([[vec[i].evaluate(base) for i in range(n)] for vec in vectors])
        if abs(np.linalg.det(matrix)) <= 1e-9:
            raise FrameError("frame vectors are numerically dependent at the base point")

    def __iter__(self):
        return iter(self.vectors)

    def __len__(self) -> int:
        return len(self.vectors)

    def __getitem__(self, i: int) -> TensorField:
        return self.vectors[i]

    def orthonormal_signs(self, metric: Metric) -> tuple[int, ...]:
        """Verify g(E_i, E_j) = +/- delta_ij symbolically and return the signs."""
        n = self.chart.dimension
        signs: list[int] = []
        for i in range(n):
            for j in range(i, n):
                value = metric.inner(self.vectors[i], self.vectors[j])
                if i == j:
                    constant = value.as_rational_constant()
                    if constant == 1:
                        signs.append(1)
                    elif constant == -1:
                        signs.append(-1)
                    else:
                        raise FrameError(
                            "frame is not orthonormal: g(E_%d, E_%d) = %s" % (i + 1, i + 1, value)
                        )
                elif not value.is_symbolically_zero:
                    raise FrameError(
                        "frame is not orthonormal: g(E_%d, E_%d) = %s" % (i + 1, j + 1, value)
                    )
        return tuple(signs)
