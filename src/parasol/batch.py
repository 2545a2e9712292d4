"""Batched float evaluation of expressions, with the bits of ``Expr.evaluate``.

:class:`PointBatch` evaluates many expressions at many points at once.
``+``, ``*`` and ``/`` run elementwise in numpy, in the order of the
one-point path (``symexpr._seval``), so they round the same way.  ``x ** k``
and ``exp`` stay in Python, because numpy's vectorised ``power`` and ``exp``
round differently from libm on some inputs; each such column is computed once
per batch.  A point where ``Expr.evaluate`` would raise (a denominator at most
``DENOMINATOR_CUTOFF`` in magnitude, or a Python float overflow) is flagged.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import Iterable, Sequence

import numpy as np

from .chart import Chart
from .symexpr import DENOMINATOR_CUTOFF, Expr, coordinate_values

__all__ = ["PointBatch"]

# terms times points that PointBatch.evaluate works on in one step
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


class PointBatch:
    """Float points at which :meth:`evaluate` evaluates many expressions at once.

    Each column of ``x ** k`` (one per axis and exponent) and of ``exp`` (one
    per exponential atom) is computed once per batch and shared by every
    expression evaluated on it.
    """

    __slots__ = ("chart", "points", "size", "_keys", "_factors", "_stack", "_new", "_overflowed")

    def __init__(self, chart: Chart, points: Iterable[Mapping[str, float] | Sequence[float]]):
        self.chart = chart
        self.points = [coordinate_values(chart, point) for point in points]
        self.size = len(self.points)
        self._keys: dict = {}  # column key -> row of _stack
        self._factors: dict = {}  # (pairs, atom) of a term -> its rows of _stack
        self._stack = np.ones((1, self.size))  # row 0 pads a term's factors: x * 1.0 is x
        self._new: list = []  # rows made since _stack last grew
        self._overflowed: list = [None]

    def _row(self, key: tuple) -> int:
        """Row of x_i ** k for a monomial pair (i, k), or of exp of an atom's linear form."""
        row = self._keys.get(key)
        if row is None:
            if isinstance(key[0], tuple):  # an atom: ((axis, rate), ...)
                arg = 0.0
                for i, lam in key:
                    arg = arg + lam * np.array([xs[i] for xs in self.points])
                values, overflowed = _python_floats(math.exp, arg.tolist())
            else:
                i, k = key
                values, overflowed = _python_floats(lambda x: x**k, [xs[i] for xs in self.points])
            row = self._keys[key] = len(self._stack) + len(self._new)
            self._new.append(values)
            self._overflowed.append(overflowed)
        return row

    def _products(self, terms: list) -> tuple[np.ndarray, np.ndarray | None]:
        """coefficient * factor * ... of each (coefficient, pairs, atom) term at every point.

        Also returns where a factor overflowed (None: nowhere).
        """
        rows = []
        for _, mono, atom in terms:
            factors = self._factors.get((mono, atom))
            if factors is None:
                factors = [self._row(pair) for pair in mono] + ([self._row(atom)] if atom else [])
                self._factors[mono, atom] = factors
            rows.append(factors)
        if self._new:
            self._stack = np.concatenate([self._stack, self._new])
            self._new = []
        # factor k of every term, row 0 (ones) where a term has fewer factors
        width = max([1, *map(len, rows)])
        index = [[r[k] if k < len(r) else 0 for r in rows] for k in range(width)]
        stack = self._stack
        products = np.array([c for c, _, _ in terms])[:, None] * np.take(stack, index[0], axis=0)
        for factors in index[1:]:
            products *= np.take(stack, factors, axis=0)
        if not any(self._overflowed):
            return products, None
        overflowed = np.array([o or [False] * self.size for o in self._overflowed])
        return products, np.take(overflowed, index, axis=0).any(axis=0)

    def _sums(self, tables: list) -> tuple[np.ndarray, np.ndarray | None]:
        """The sum of each _float_table at every point, adding its terms in order from 0.0.

        ``np.add.accumulate`` keeps that order (from the first term: ``0.0 +``
        mends the sign of an all -0.0 sum); ``np.add.reduce`` and ``reduceat`` do not.
        """
        lengths = [len(table) for table in tables]
        by_table = len(tables) < max(lengths)
        if by_table:
            # few long tables: one accumulate per table
            order, blocks = range(len(tables)), lengths
            terms = [term for table in tables for term in table]
        else:
            # many short tables, longest first and term by term: term k of every
            # table that long is one block of rows, added to a prefix of totals
            order = sorted(range(len(tables)), key=lengths.__getitem__, reverse=True)
            blocks = [sum(length > k for length in lengths) for k in range(max(lengths))]
            terms = [tables[order[j]][k] for k, count in enumerate(blocks) for j in range(count)]
        products, overflowed = self._products(terms)
        totals = np.zeros((len(tables), self.size))
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
        back = sorted(range(len(tables)), key=order.__getitem__)  # to the order of ``tables``
        return np.take(totals, back, axis=0), bad if bad is None else np.take(bad, back, axis=0)

    @np.errstate(all="ignore")
    def evaluate(self, exprs: Sequence[Expr]) -> tuple[np.ndarray, np.ndarray]:
        """Each expression at every point, shape (len(exprs), size), and where evaluate raises.

        A value that is not flagged has the bits :meth:`Expr.evaluate`
        returns at that point; where the flag is set, :meth:`Expr.evaluate`
        raises ``DegenerateEvaluationError`` and the value means nothing.
        """
        values = np.zeros((len(exprs), self.size))
        degenerate = np.zeros(values.shape, dtype=bool)
        # a few expressions at a time, so no temporary holds much more than
        # _STEP_ELEMENTS floats however many terms the expressions have
        step, size = [], 0
        for e, expr in enumerate(exprs):
            if not expr._num:
                continue
            step.append(e)
            size += (len(expr._num) + len(expr._dbase or ())) * self.size
            if size >= _STEP_ELEMENTS:
                self._evaluate(exprs, step, values, degenerate)
                step, size = [], 0
        if step:
            self._evaluate(exprs, step, values, degenerate)
        return values, degenerate

    def _evaluate(self, exprs: Sequence[Expr], live: list[int], values, degenerate) -> None:
        """Fill the rows ``live`` of :meth:`evaluate`'s arrays."""
        # float tables are built per step, not kept: a residual is evaluated once
        tables = [exprs[e]._float or exprs[e]._float_tables() for e in live]
        # the one-point order: den = x^d (a product from 1.0), times B^e; then num / den
        den, overflowed = self._products([(1.0, dmono, ()) for _, dmono, _ in tables])
        flags = np.zeros(den.shape, dtype=bool) if overflowed is None else overflowed
        based = [j for j, (_, _, den_terms) in enumerate(tables) if den_terms is not None]
        if based:
            bases, overflowed = self._sums([tables[j][2] for j in based])
            if overflowed is not None:
                flags[based] |= overflowed
            for j, base in zip(based, bases.tolist()):
                power = exprs[live[j]]._dexp
                powered, overflowed = _python_floats(lambda v: v**power, base)
                den[j] = den[j] * np.array(powered)
                if overflowed is not None:
                    flags[j] |= overflowed
        num, overflowed = self._sums([terms for terms, _, _ in tables])
        if overflowed is not None:
            flags |= overflowed
        for j, (_, dmono, den_terms) in enumerate(tables):
            if dmono or den_terms is not None:  # a denominator other than 1
                flags[j] |= np.abs(den[j]) <= DENOMINATOR_CUTOFF
        values[live] = num / den
        degenerate[live] = flags
