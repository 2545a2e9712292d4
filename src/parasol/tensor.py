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
printed expression is unchanged.  As g is symmetric, so is adj(g): only the
cofactors with i >= j are expanded, ``inverse[j, i]`` is ``inverse[i, j]``,
and the g g^-1 = I check still multiplies out every entry.  Bareiss
elimination would need exact division of sums, which the ``Expr`` ring does
not provide.

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

``contract`` reaches that result without the loop's bookkeeping.  A plan,
built once per (spec, n, operand valences) and kept for the process, checks
the spec against the valences and holds each factor's flat operand offsets
over the outputs and over the summed assignments, and which products run at
which assignment; no operand value enters it.  Per call, each operand's
symbolically zero components are marked once, and for each factor and
assignment the outputs where it is nonzero become one bitmask, gathered
with byte-string slices.  The steps then run in the loop's order, and a
product visits only the outputs in the AND of its factors' masks: every
factor is known nonzero before the first multiplication, the product is
formed left to right and added to or subtracted from that output's
accumulator.  Outputs are visited step by step rather than one after
another, but each accumulator meets the same ring operations in the same
order as in the loop, so every printed expression and every float bit is
unchanged.

``contract(..., antisymmetric=(a, b))`` builds a result antisymmetric in
output positions a < b (of one variance) from the outputs whose index at a
is less than the one at b, and ``symmetric=(a, b)`` a symmetric one from
those where it is at most that (one mask per (n, rank, pair, sign), kept
for the process, ANDed into each product's hits).  Every other output is
its partner with the two indices swapped: the same object, or under
antisymmetry its negation, and zero where the two indices are equal.  A
kept output meets the loop's ring operations in the loop's order, so its
printed expression and float bits are unchanged.  A negation keeps its
partner's numerator terms and denominator and flips the sign of the scale,
so ``x + (-x)`` is zero at once, and :meth:`TensorField.numeric_many`
evaluates each component once up to sign: the negation's float is the
partner's negated, or the partner's own where that is a zero sum (both sums
start from +0.0).  Pass a keyword only where the spec has the symmetry by
construction, as the Riemann tensor is antisymmetric in (i, j) for any
Gamma, or by an exact check, as 2 G^k_ij is symmetric once ``Metric`` has
checked g_ij = g_ji: mirroring an unchecked property would assert what a
check has to decide.

A :class:`Contraction` holds a spec and its operands unexpanded.  It sums
the spec with ``numpy.einsum`` over residues modulo a prime (an exact
nonzero certificate, see :mod:`parasol.checks`) or over float values at
each point of a batch, and ``build`` expands it with ``contract``.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, compress, product, repeat
from operator import and_, attrgetter, mul, or_
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .batch import Plan, PointBatch
from .chart import Chart
from .symexpr import RESIDUE_PRIME, Expr, FormalPoint, InvariantError

__all__ = [
    "TensorField",
    "Metric",
    "Frame",
    "ValenceError",
    "SingularMetricError",
    "DegenerateMetricError",
    "FrameError",
    "SignatureResult",
    "Contraction",
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
    def zero(cls, chart: Chart, p: int, q: int) -> "TensorField":
        return cls(chart, p, q, [Expr.zero(chart)] * chart.dimension ** (p + q))

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

    def numeric_many(self, batch: PointBatch) -> tuple[np.ndarray, np.ndarray]:
        """Components at every point of a batch, stacked on a leading axis, and per-point flags.

        A point is flagged where :meth:`Expr.evaluate` raises on a component;
        every other row has its bits there (see :class:`~parasol.batch.Plan`).
        """
        values, degenerate = Plan(self._comps).run(batch)
        shape = (batch.size,) + (self.chart.dimension,) * self.rank
        return values.T.reshape(shape), degenerate.any(axis=0)

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
    rows: dict[int, list[Expr]] = {}  # each distinct nonzero component is differentiated once
    for comp in tensor._comps:
        if id(comp) not in rows:
            rows[id(comp)] = [comp.differentiate(name) if comp._num else comp for name in coords]
    comps = [d for comp in tensor._comps for d in rows[id(comp)]]
    return TensorField(tensor.chart, tensor.p, tensor.q + 1, comps)


_NUMERATOR = attrgetter("_num")  # an Expr's numerator terms, empty iff it is symbolically zero


def _split(spec: str) -> tuple[str, tuple[tuple[bool, tuple[str, ...]], ...]]:
    """(output letters, products) of a contraction spec, each product ``(negate, terms)``."""
    lhs, arrow, out = spec.partition("->")
    if not arrow:
        raise ValenceError("contraction spec %r has no '->'" % spec)
    negated = [sign == "-" for sign in "+" + "".join(re.findall("[+-]", lhs))]
    parts = re.split("[+-]", lhs)
    return out, tuple((negate, tuple(part.split(","))) for negate, part in zip(negated, parts))


@lru_cache(maxsize=None)
def _offsets(strides: tuple[int, ...], n: int) -> tuple[int, ...]:
    """``sum(stride * value)`` for each assignment of values in range(n), the last stride fastest.

    Kept per (strides, n), so all plans whose factors share strides share one tuple.
    """
    values = [0]
    for stride in strides:
        values = [v + stride * i for v in values for i in range(n)]
    return tuple(values)


@lru_cache(maxsize=None)
def _mirror(n: int, rank: int, pair: tuple[int, int], sign: int) -> tuple[int, tuple]:
    """The outputs kept under (anti)symmetry in positions ``pair``, and the mirrored ones.

    Returns the kept outputs (index at a < index at b, or <= for ``sign`` +1)
    as an int with one byte per output, and (output, partner) for each output
    whose index at a is greater, the partner having the two indices swapped.
    """
    a, b = pair
    # swapping the indices at a and b moves an output by (index[b] - index[a]) * step
    step = n ** (rank - 1 - a) - n ** (rank - 1 - b)
    keep, mirrored = bytearray(n**rank), []
    for o, index in enumerate(product(range(n), repeat=rank)):
        if index[a] < index[b] or (sign > 0 and index[a] == index[b]):
            keep[o] = 1
        elif index[a] > index[b]:
            mirrored.append((o, o + (index[b] - index[a]) * step))
    return int.from_bytes(keep, "little"), tuple(mirrored)


class _Plan(NamedTuple):
    """The bookkeeping of one spec on operands of given valences in one dimension.

    No operand value enters it.  A factor's flat operand offset at output
    ``o`` and assignment ``s`` is ``bases[q] + stride * r + sums[s]`` with
    ``q, r = divmod(o, count)``: ``stride`` steps through the ``count``
    innermost outputs, which move the offset as one row-major index (a
    stride of 0 repeats it), and ``bases`` holds the offset at each value
    of the outer output indices.
    """

    upper: int  # contravariant output indices
    lower: int  # covariant output indices
    size: int  # output components
    count: int  # assignments of values to the summed indices, in loop order
    outs: tuple  # per factor, (stride, count, bases)
    sums: tuple  # per factor, its flat operand offset at each assignment
    products: tuple  # per product (negate, its factors, runs): runs is None or 0/1 per assignment


@lru_cache(maxsize=None)
def _plan(spec: str, n: int, variances: tuple[int, ...]) -> _Plan:
    """The plan of ``spec`` on operands of valences (p0, q0), (p1, q1), ... = ``variances``.

    Raises ``ValenceError`` where the spec does not fit them.
    """
    out, parts = _split(spec)
    terms = [term for _, part in parts for term in part]
    valences = list(zip(variances[::2], variances[1::2]))
    if len(terms) != len(valences):
        raise ValenceError("%r names %d operands, got %d" % (spec, len(terms), len(valences)))
    for term, valence in zip(terms, valences):
        if len(term) != sum(valence):
            raise ValenceError("index %r does not fit a valence %r operand" % (term, valence))
    if len(set(out)) != len(out):
        raise ValenceError("repeated output index in %r" % spec)
    upper = []
    for letter in out:
        for _, part in parts:
            if letter not in "".join(part):
                raise ValenceError(
                    "output index %r is missing from a product of %r" % (letter, spec)
                )
        for term, (p, _) in zip(terms, valences):
            if letter in term:
                upper.append(term.index(letter) < p)
                break
    if upper != sorted(upper, reverse=True):
        raise ValenceError("contravariant output indices must come first in %r" % spec)
    summed = sorted(set("".join(terms)) - set(out))

    outs, sums = [], []
    for term in terms:
        place: dict[str, int] = {}  # the flat operand offset of one step in each letter
        for k, letter in enumerate(term):
            place[letter] = place.get(letter, 0) + n ** (len(term) - 1 - k)
        steps = tuple(map(place.get, out, repeat(0)))
        k, stride, count = len(steps), steps[-1] if steps else 0, 1
        while k and steps[k - 1] == stride * count:
            k, count = k - 1, count * n
        outs.append((stride, count, _offsets(steps[:k], n)))
        sums.append(_offsets(tuple(map(place.get, summed, repeat(0))), n))

    products, first = [], 0
    for negate, part in parts:
        # a product runs only where the summed indices it does not name sit at
        # their first value: at the assignments that vary the ones it names
        named = "".join(part)
        runs = None
        if not set(summed) <= set(named):
            runs = bytearray(n ** len(summed))
            steps = [n ** (len(summed) - 1 - k) if s in named else 0 for k, s in enumerate(summed)]
            for s in _offsets(tuple(steps), n):
                runs[s] = 1
            runs = bytes(runs)
        products.append((negate, range(first, first + len(part)), runs))
        first += len(part)
    upper = sum(upper)
    size, count = n ** len(out), n ** len(summed)
    return _Plan(upper, len(out) - upper, size, count, tuple(outs), tuple(sums), tuple(products))


def _parse(spec: str, operands: Sequence[TensorField | Expr]) -> tuple[Chart, _Plan]:
    """The operands' chart and the plan of ``spec`` on them."""
    if not operands:
        raise ValenceError("%r has no operands" % spec)
    chart = operands[0].chart
    variances: list[int] = []
    for op in operands:
        if op.chart is not chart:
            chart.require_same(op.chart)
        variances += (0, 0) if isinstance(op, Expr) else (op.p, op.q)
    return chart, _plan(spec, chart.dimension, tuple(variances))


def contract(
    spec: str,
    *operands: TensorField | Expr,
    antisymmetric: tuple[int, int] | None = None,
    symmetric: tuple[int, int] | None = None,
) -> TensorField | Expr:
    """Exact Einstein summation, e.g. ``contract("ab,ai,bj->ij", g, phi, phi)``.

    The rules, and why each component is built in plain nested-loop order,
    are in the module docstring.  ``antisymmetric=(a, b)`` builds only the
    outputs with index a < index b and mirrors the rest, ``symmetric=(a, b)``
    those with index a <= index b; pass one only where the spec has that
    symmetry in those output positions for the operands it is given.
    """
    chart, plan = _parse(spec, operands)
    keep = None
    sign, pair = (-1, antisymmetric) if symmetric is None else (1, symmetric)
    if pair is not None:
        if sign > 0 and antisymmetric is not None:
            raise ValenceError("pass antisymmetric= or symmetric=, not both")
        a, b = pair
        rank = plan.upper + plan.lower
        if not 0 <= a < b < rank or (a < plan.upper) != (b < plan.upper):
            raise ValenceError(
                "%ssymmetric=%r needs output positions a < b of one variance in %r"
                % ("" if sign > 0 else "anti", pair, spec)
            )
        keep, mirrored = _mirror(chart.dimension, rank, (a, b), sign)
    comps = [[op] if isinstance(op, Expr) else op._comps for op in operands]

    # per factor and assignment, the outputs where the factor is nonzero as an
    # int with one byte per output; a product visits the nonzero bytes of the AND
    nonzero = {id(values): bytes(map(bool, map(_NUMERATOR, values))) for values in comps}
    masks = []
    for (stride, count, bases), sums, values in zip(plan.outs, plan.sums, comps):
        flags = nonzero[id(values)]
        span = stride * (count - 1) + 1
        by_offset = {}
        for off in set(sums):
            if len(bases) == 1:  # bases == (0,): one slice, no list
                gathered = flags[off : off + span : stride] if stride else flags[off : off + 1] * count
            elif stride:
                gathered = b"".join([flags[b : b + span : stride] for b in map(off.__add__, bases)])
            else:
                gathered = b"".join([flags[b : b + 1] * count for b in map(off.__add__, bases)])
            by_offset[off] = int.from_bytes(gathered, "little")
        masks.append(list(map(by_offset.__getitem__, sums)))

    # per product, the AND of its factors' masks at each assignment, 0 where it does not run
    hits = []
    for _, factors, runs in plan.products:
        product_hits = masks[factors[0]]
        for f in factors[1:]:
            product_hits = map(and_, product_hits, masks[f])
        if runs is not None:
            product_hits = map(mul, product_hits, runs)
        if keep is not None:
            product_hits = map(and_, product_hits, repeat(keep))
        hits.append(list(product_hits))
    active = hits[0]
    for product_hits in hits[1:]:
        active = map(or_, active, product_hits)

    components = [Expr.zero(chart)] * plan.size
    outputs = range(plan.size)
    for s in compress(range(plan.count), active):
        for (negate, factors, _), product_hits in zip(plan.products, hits):
            if not product_hits[s]:
                continue
            row = [(comps[f], *plan.outs[f], plan.sums[f][s]) for f in factors]
            for o in compress(outputs, product_hits[s].to_bytes(plan.size, "little")):
                value = None
                for values, stride, count, bases, off in row:
                    q, r = divmod(o, count)
                    factor = values[bases[q] + stride * r + off]
                    value = factor if value is None else value * factor
                components[o] = components[o] - value if negate else components[o] + value
    if keep is not None:
        for o, partner in mirrored:
            if components[partner]._num:  # a zero partner leaves Expr.zero in place
                components[o] = components[partner] if sign > 0 else -components[partner]
    if not plan.upper + plan.lower:
        return components[0]
    return TensorField(chart, plan.upper, plan.lower, components)


class Contraction:
    """``contract(spec, *operands)`` left unexpanded, so it can be decided before it is built.

    The operands are built fields (or scalars).  The summation itself runs
    with numpy over one array of values per operand: residues modulo
    ``RESIDUE_PRIME`` at the formal point (:meth:`residues`), or floats at
    each point of a batch (:meth:`numeric_many`).  :meth:`build` expands it
    exactly with :func:`contract`.
    """

    __slots__ = ("spec", "operands", "chart", "_out", "_products", "_fields")

    def __init__(self, spec: str, *operands: TensorField | Expr):
        self.chart, _ = _parse(spec, operands)
        self.spec, self.operands = spec, operands
        self._out, parts = _split(spec)
        # one (negate, [(term, field), ...]) per product, a scalar operand wrapped as a rank-0 field
        fields = iter(
            [TensorField(self.chart, 0, 0, [op]) if isinstance(op, Expr) else op for op in operands]
        )
        self._products = [(negate, [(t, next(fields)) for t in part]) for negate, part in parts]
        # each distinct operand field, keyed by id, valued once per summation
        self._fields = {id(op): op for _, factors in self._products for _, op in factors}

    def build(self) -> TensorField | Expr:
        return contract(self.spec, *self.operands)

    def _einsum(self, arrays: Mapping[int, np.ndarray]) -> np.ndarray:
        """The summation over the array of each operand field, keyed as ``_fields``."""
        total = 0
        for negate, factors in self._products:
            spec = ",".join(term for term, _ in factors) + "->" + self._out
            value = np.einsum(spec, *(arrays[id(op)] for _, op in factors))
            total = total - value if negate else total + value
        return total

    def residues(self) -> np.ndarray:
        """Every component modulo ``RESIDUE_PRIME`` at the formal point, as Python ints.

        Raises ``NonUnitResidueError`` when an operand has no residue there.
        """
        point = FormalPoint(self.chart)
        n = self.chart.dimension
        arrays = {
            key: np.array([point.residue(c) for c in op._comps], dtype=object).reshape((n,) * op.rank)
            for key, op in self._fields.items()
        }
        return np.asarray(self._einsum(arrays) % RESIDUE_PRIME)

    def numeric_many(self, batch: PointBatch) -> list[np.ndarray] | None:
        """Float components at each point of a batch, summed from the operands' float values.

        Each operand is valued once on the batch, then one einsum runs per
        point.  None when an operand is degenerate or not finite somewhere.
        """
        stacks = {}
        for key, op in self._fields.items():
            values, degenerate = op.numeric_many(batch)
            if degenerate.any() or not np.isfinite(values).all():
                return None
            # einsum picks its kernel by the operands' strides: keep each
            # point's values C-contiguous, as a one-point array is
            stacks[key] = np.ascontiguousarray(values)
        with np.errstate(all="ignore"):
            return [self._einsum({k: s[p] for k, s in stacks.items()}) for p in range(batch.size)]


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
            for i in range(j, n):  # adj(g) is symmetric: one object per (i, j) pair
                cols = everything[:i] + everything[i + 1 :]
                entry = _minor_det(matrix, self.chart, cache, rows, cols) * reciprocal
                entry = entry if (i + j) % 2 == 0 else -entry
                inverse_entries[i * n + j] = inverse_entries[j * n + i] = entry
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


# |det g| at most this makes signature_at report the metric degenerate at the point
SIGNATURE_DET_CUTOFF = 1e-9


@dataclass(frozen=True)
class SignatureResult:
    n_plus: int
    n_minus: int

    @property
    def index(self) -> int:
        return self.n_minus


def signature_at(metric: Metric, point: Mapping[str, float] | Sequence[float]) -> SignatureResult | None:
    """Signature (eigenvalue sign counts) of the metric at a point; None where it is not finite.

    An entry that is flagged there (where ``Expr.evaluate`` raises) is not
    finite.  By Sylvester's law of inertia the sign counts equal the pivot
    signs of a symmetric pivoted elimination; the counts are computed from the
    symmetric eigenvalue decomposition of the numeric matrix.  Signature is
    reported per point only: metrics whose determinant changes sign across
    the chart have no global signature.
    """
    (matrix,), (flagged,) = metric.field.numeric_many(PointBatch(metric.chart, [point]))
    if flagged or not np.isfinite(matrix).all():
        return None
    with np.errstate(all="ignore"):  # a finite matrix may still overflow its determinant
        det = float(np.linalg.det(matrix))
    if abs(det) <= SIGNATURE_DET_CUTOFF:
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
    """Ordered list of n vector fields, finite and numerically independent at the base point."""

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
        # the vectors as columns, E[a, i] = E_i^a, and the pairs (i, j), i <= j, in row-major order
        self.matrix = TensorField(chart, 1, 1, [vec[a] for a in range(n) for vec in vectors])
        self.pairs = tuple(combinations_with_replacement(range(n), 2))
        (values,), (flagged,) = self.matrix.numeric_many(PointBatch(chart, [chart.base_point]))
        if flagged or not np.isfinite(values).all():
            raise FrameError("frame vectors are not finite at the base point")
        # |det E| <= prod_i |E_i| (Hadamard), with equality for orthogonal vectors:
        # compared with that bound, a frame of a large- or small-scale metric passes
        with np.errstate(all="ignore"):  # finite entries may still overflow both sides
            if abs(np.linalg.det(values)) <= 1e-9 * np.prod(np.linalg.norm(values, axis=0)):
                raise FrameError("frame vectors are numerically dependent at the base point")

    def __iter__(self):
        return iter(self.vectors)

    def __getitem__(self, i: int) -> TensorField:
        return self.vectors[i]

    def table(self, tensor: TensorField) -> TensorField:
        """[i, j] = T(E_i, E_j) for a (0, 2) tensor T, from one contraction E^T T E.

        Each entry is built as ``contract("ij,i,j->", T, E_i, E_j)`` builds it.
        """
        return contract("ab,ai,bj->ij", tensor, self.matrix, self.matrix)

    def orthonormal_signs(self, gram: TensorField) -> tuple[int, ...]:
        """Verify g(E_i, E_j) = +/- delta_ij on the :meth:`table` of g and return the signs.

        The first failing pair of ``pairs`` is reported.
        """
        signs: list[int] = []
        for i, j in self.pairs:
            value = gram[i, j]
            sign = value.as_rational_constant() if i == j else None
            if sign in (1, -1):
                signs.append(int(sign))
            elif i == j or not value.is_symbolically_zero:
                raise FrameError(
                    "frame is not orthonormal: g(E_%d, E_%d) = %s" % (i + 1, j + 1, value)
                )
        return tuple(signs)
