"""Batched float evaluation of expressions, with the bits of ``Expr.evaluate``.

This is the program's one float evaluator, at sample points and the base
point alike (the oracle's jets read its columns); ``Expr.evaluate`` is its
reference and the source of its error texts.  Evaluation comes in two
parts.  A :class:`Plan` is the part that does not depend on the points:
which expressions are one another up to sign, the columns their terms
multiply (one per ``x_i ** k`` and per exponential atom), and each term's
coefficient, factor columns and place in the summing order.
:meth:`Plan.run` evaluates the expressions at the points of one
:class:`PointBatch`.  A caller that evaluates the same expressions on many
batches (the report's metric entries) keeps its plan;
:meth:`PointBatch.evaluate` builds one for a single batch, and
:meth:`PointBatch.evaluate_or_raise` also raises the error of the first
value it flags, from ``Expr.evaluate`` of that expression at that point.

``+``, ``*`` and ``/`` run elementwise in numpy, in the order of
``Expr.evaluate`` (``symexpr._seval``), so they round the same way.  ``x ** k``
and ``exp`` stay in Python, because numpy's vectorised ``power`` and ``exp``
round differently from libm on some inputs; each column is computed once per
batch (an exp's argument too, summed as ``_seval`` sums it: faster than a
numpy round trip at a few points, with the same bits).  A point where
``Expr.evaluate`` would raise (a denominator at most ``DENOMINATOR_CUTOFF``
in magnitude, a Python float overflow, or a coefficient too large for a
float) is flagged.

The plan calls only numpy routines that the rest of the program calls too
(``take``, ``where``, ``concatenate``, ``add.accumulate``, elementwise
arithmetic).  The first call of another routine can raise a process's peak
RSS by more than the ``fixtures`` benchmark allows (0.1 MB): after three
``report --all`` passes over the fixtures, a first ``np.argsort`` raised it
by 128 KB (numpy 2.4).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .chart import Chart
from .symexpr import DENOMINATOR_CUTOFF, Expr, coordinate_values

__all__ = ["Plan", "PointBatch"]

# terms times points that Plan.run works on in one step
_STEP_ELEMENTS = 2048


def _python_floats(fn, values: list[float]) -> tuple[list[float], list[bool] | None]:
    """``fn`` of each value in Python float arithmetic, and where it overflowed (None: nowhere)."""
    try:
        return [fn(v) for v in values], None
    except OverflowError:
        pass
    out, overflowed = [], []
    for v in values:
        try:
            out.append(fn(v))
            overflowed.append(False)
        except OverflowError:
            out.append(math.nan)
            overflowed.append(True)
    return out, overflowed


def _product_layout(terms: list) -> tuple[np.ndarray, list[list[int]]]:
    """The coefficients of (coefficient, factor rows) terms, and factor k of each term in list k.

    Row 0 of the column stack (ones) pads a term with fewer factors: x * 1.0 is x.
    """
    width = max([1, *(len(rows) for _, rows in terms)])
    index = [[rows[k] if k < len(rows) else 0 for _, rows in terms] for k in range(width)]
    return np.array([c for c, _ in terms]), index


def _sum_layout(tables: list[list]) -> tuple:
    """The terms of some sums in summing order, as blocks of rows, and the way back to ``tables``.

    Each sum adds its terms in order from 0.0.  Few long sums are summed one
    ``np.add.accumulate`` each (``by_table``); many short ones longest first
    and term by term: term k of every sum that long is one block of rows,
    added to a prefix of the totals.
    """
    lengths = [len(table) for table in tables]
    by_table = len(tables) < max(lengths)
    if by_table:
        order, blocks = range(len(tables)), lengths
        terms = [term for table in tables for term in table]
    else:
        order = sorted(range(len(tables)), key=lengths.__getitem__, reverse=True)
        blocks = [sum(length > k for length in lengths) for k in range(max(lengths))]
        terms = [tables[order[j]][k] for k, count in enumerate(blocks) for j in range(count)]
    back = sorted(range(len(tables)), key=order.__getitem__)
    return _product_layout(terms), by_table, blocks, back


def _products(layout: tuple, stack: np.ndarray, overflowed: list) -> tuple[np.ndarray, np.ndarray | None]:
    """coefficient * factor * ... of each term at every point, and where a factor overflowed.

    ``overflowed`` holds, per row of ``stack``, where it overflowed (None: nowhere).
    """
    coeffs, index = layout
    products = coeffs[:, None] * np.take(stack, index[0], axis=0)
    for rows in index[1:]:
        products *= np.take(stack, rows, axis=0)
    if not any(overflowed):
        return products, None
    overflowed = np.array([o or [False] * stack.shape[1] for o in overflowed])
    return products, np.take(overflowed, index, axis=0).any(axis=0)


def _sums(layout: tuple, stack: np.ndarray, overflowed: list) -> tuple[np.ndarray, np.ndarray | None]:
    """Each sum of a :func:`_sum_layout` at every point, and where a factor overflowed.

    ``np.add.accumulate`` keeps the order of the terms (from the first term:
    ``0.0 +`` mends the sign of an all -0.0 sum); ``np.add.reduce`` and
    ``reduceat`` do not.
    """
    terms, by_table, blocks, back = layout
    products, overflowed = _products(terms, stack, overflowed)
    totals = np.zeros((len(back), stack.shape[1]))
    bad = None if overflowed is None else np.zeros(totals.shape, dtype=bool)
    start = 0
    for t, block in enumerate(blocks):
        rows, start = slice(start, start + block), start + block
        if by_table:
            totals[t] += np.add.accumulate(products[rows])[-1]
            if bad is not None:
                bad[t] = overflowed[rows].any(axis=0)
        else:
            totals[:block] += products[rows]
            if bad is not None:
                bad[:block] |= overflowed[rows]
    if by_table:  # the tables' own order
        return totals, bad
    return np.take(totals, back, axis=0), bad if bad is None else np.take(bad, back, axis=0)


class Plan:
    """Some expressions made ready to run on any :class:`PointBatch`.

    Each distinct nonzero expression is evaluated once up to sign: its
    negation takes the negated value, except where its numerator sums to
    +0.0, which the negated terms sum to as well, so every value keeps the
    bits of :meth:`Expr.evaluate`.  A run takes the kept expressions a few
    at a time, so that no temporary holds much more than ``_STEP_ELEMENTS``
    floats; which expressions share a step depends on the batch size.  The
    layout of a step (its terms' coefficients and factor rows, in summing
    order) is built on the step's first run and kept; the float tables it
    comes from are not.
    """

    __slots__ = ("kept", "_rows", "_flag_rows", "_negated", "_weights", "_columns", "_layouts")

    def __init__(self, exprs: Sequence[Expr]):
        distinct: dict[tuple, int] = {}
        kept: list[Expr] = []  # the expressions evaluated, one per class up to sign
        flag_rows, negated = [], []
        for expr in exprs:
            r, negate = -1, False  # row -1: the row of zeros after the kept ones
            if expr._num:
                # a negation shares its partner's terms and denominator, and |scale|
                key = (id(expr._num), id(expr._dbase), expr._dmono, expr._dexp,
                       abs(expr._sn), expr._sd)
                r = distinct.setdefault(key, len(kept))
                if r == len(kept):
                    kept.append(expr)
                else:
                    negate = expr._sn != kept[r]._sn
            flag_rows.append(r)
            negated.append(negate)
        self.kept = kept
        # run stacks the kept rows, the row of zeros, then their negated copy,
        # where a negation reads its row; None: the kept rows are the expressions
        count = len(self.kept) + 1
        self._negated = any(negated)
        self._flag_rows = None if flag_rows == list(range(count - 1)) else flag_rows
        self._rows = None if self._flag_rows is None else [
            r % count + count * negate for r, negate in zip(flag_rows, negated)
        ]
        self._weights = [len(expr._num) + len(expr._dbase or ()) for expr in self.kept]
        self._columns: dict[tuple, int] = {}  # column key -> row of the column stack; row 0 is ones
        self._layouts: dict[tuple[int, int], tuple] = {}

    def _column(self, key: tuple) -> int:
        """Row of x_i ** k for a monomial pair (i, k), or of exp of an atom's linear form."""
        return self._columns.setdefault(key, len(self._columns) + 1)

    def _layout(self, first: int, stop: int) -> tuple:
        """The step of the kept expressions first..stop - 1."""
        shapes: dict[tuple, list[int]] = {}  # (pairs, atom) -> the factor rows of such a term

        def terms(table: list) -> list:
            """(coefficient, factor rows) of each (coefficient, pairs, atom) term of a float table."""
            out = []
            for c, mono, atom in table:
                rows = shapes.get((mono, atom))
                if rows is None:
                    rows = [self._column(pair) for pair in mono] + ([self._column(atom)] if atom else [])
                    shapes[mono, atom] = rows
                out.append((c, rows))
            return out

        tables, overflowing = [], []
        for j, expr in enumerate(self.kept[first:stop]):
            try:
                tables.append(expr._float_tables())
            except OverflowError:  # a coefficient overflows: evaluate raises at every point
                tables.append(([(0.0, (), ())], (), None))
                overflowing.append(j)
        based = [j for j, (_, _, base) in enumerate(tables) if base is not None]
        monomial = any(dmono for _, dmono, _ in tables)
        return (
            overflowing,
            _product_layout(terms([(1.0, dmono, ()) for _, dmono, _ in tables])) if monomial else None,
            based,
            [self.kept[first + j]._dexp for j in based],
            _sum_layout([terms(tables[j][2]) for j in based]) if based else None,
            _sum_layout([terms(num) for num, _, _ in tables]),
        )

    def _grow(self, stack: np.ndarray, overflowed: list, batch: PointBatch) -> np.ndarray:
        """``stack`` with the batch's columns that it lacks; ``overflowed`` grows with it."""
        columns = []
        for key in islice(self._columns, len(stack) - 1, None):
            values, overflow = batch.column(key)
            columns.append(values)
            overflowed.append(overflow)
        return np.concatenate([stack, columns])

    @np.errstate(all="ignore")
    def run(self, batch: PointBatch) -> tuple[np.ndarray, np.ndarray]:
        """Each expression at every point, shape (len(exprs), size), and where evaluate raises.

        A value that is not flagged has the bits :meth:`Expr.evaluate`
        returns at that point; where the flag is set, :meth:`Expr.evaluate`
        raises ``DegenerateEvaluationError`` and the value means nothing.
        """
        stack, overflowed = np.ones((1, batch.size)), [None]
        shape = (len(self.kept) + 1, batch.size)
        num, den, flags = np.zeros(shape), np.ones(shape), np.zeros(shape, dtype=bool)
        first, load = 0, 0
        for j, weight in enumerate(self._weights):
            load += weight * batch.size
            if load < _STEP_ELEMENTS and j + 1 < len(self._weights):
                continue
            layout = self._layouts.get((first, j + 1))
            if layout is None:
                layout = self._layouts[first, j + 1] = self._layout(first, j + 1)
            if len(stack) <= len(self._columns):
                stack = self._grow(stack, overflowed, batch)
            step = slice(first, j + 1)
            num[step], step_den, step_flags = self._step(layout, stack, overflowed)
            if step_den is not None:
                den[step] = step_den
            if step_flags is not None:
                flags[step] = step_flags
            first, load = j + 1, 0
        values = num / den
        if self._rows is None:
            return values[:-1], flags[:-1]
        if self._negated:
            values = np.concatenate([values, np.where(num == 0.0, values, values * -1.0)])
        return np.take(values, self._rows, axis=0), np.take(flags, self._flag_rows, axis=0)

    @staticmethod
    def _step(layout: tuple, stack: np.ndarray, overflowed: list) -> tuple[np.ndarray | None, ...]:
        """Numerator sums, denominators and flags of one step's expressions.

        The denominators are None where all are 1, the flags where none is set.
        """
        overflowing, dmono, based, powers, bases, terms = layout
        num, flags = _sums(terms, stack, overflowed)
        if overflowing:
            flags = np.zeros(num.shape, dtype=bool) if flags is None else flags
            flags[overflowing] = True
        if dmono is None and not based:
            return num, None, flags
        # the order of Expr.evaluate: den = x^d (a product from 1.0), times B^e; then num / den
        den, bad = (np.ones(num.shape), None) if dmono is None else _products(dmono, stack, overflowed)
        if bad is not None:
            flags = bad if flags is None else flags | bad
        if flags is None:
            flags = np.zeros(den.shape, dtype=bool)
        if based:
            values, bad = _sums(bases, stack, overflowed)
            if bad is not None:
                flags[based] |= bad
            for j, base, power in zip(based, values.tolist(), powers):
                powered, bad = _python_floats(lambda v: v**power, base)
                den[j] = den[j] * np.array(powered)
                if bad is not None:
                    flags[j] |= bad
        flags |= np.abs(den) <= DENOMINATOR_CUTOFF  # a denominator of 1 never is
        return num, den, flags


class PointBatch:
    """Float points at which a :class:`Plan` evaluates expressions.

    Each column (``x_i ** k`` or the exp of an atom) is computed once per
    batch and shared by every plan run on it.
    """

    __slots__ = ("chart", "points", "size", "_columns")

    def __init__(self, chart: Chart, points: Iterable[Mapping[str, float] | Sequence[float]]):
        self.chart = chart
        self.points = [coordinate_values(chart, point) for point in points]
        self.size = len(self.points)
        self._columns: dict[tuple, tuple[list[float], list[bool] | None]] = {}

    def column(self, key: tuple) -> tuple[list[float], list[bool] | None]:
        """A column at every point, and where it overflowed (None: nowhere).

        ``key`` is a monomial pair (i, k) for x_i ** k, or an atom
        ((axis, rate), ...) for the exp of its linear form.
        """
        column = self._columns.get(key)
        if column is None:
            if isinstance(key[0], tuple):  # an atom: ((axis, rate), ...)
                args = []
                for xs in self.points:  # summed as symexpr._seval sums it
                    arg = 0.0
                    for i, lam in key:
                        arg += lam * xs[i]
                    args.append(arg)
                column = _python_floats(math.exp, args)
            else:
                i, k = key
                column = _python_floats(lambda x: x**k, [xs[i] for xs in self.points])
            self._columns[key] = column
        return column

    def evaluate(self, exprs: Sequence[Expr]) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`Plan.run` of a plan of ``exprs`` used on this batch alone."""
        return Plan(exprs).run(self)

    def evaluate_or_raise(self, exprs: Sequence[Expr]) -> np.ndarray:
        """:meth:`evaluate`'s values; the first (point, expression) flagged raises its own error."""
        values, flags = self.evaluate(exprs)
        for p, e in np.argwhere(flags.T)[:1]:
            exprs[e].evaluate(self.points[p])
        return values
