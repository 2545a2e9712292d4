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
_STEP_ELEMENTS = 4096


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

    __slots__ = ("chart", "points", "size", "_axes", "_keys", "_rows", "_overflowed")

    def __init__(self, chart: Chart, points: Iterable[Mapping[str, float] | Sequence[float]]):
        self.chart = chart
        self.points = [coordinate_values(chart, point) for point in points]
        self.size = len(self.points)
        self._axes = [[xs[i] for xs in self.points] for i in range(chart.dimension)]
        self._keys: dict = {}  # column key -> row of _rows
        self._rows = [[1.0] * self.size]  # row 0 pads a term's factors: x * 1.0 is x
        self._overflowed: list = [None]

    def _row(self, key: tuple) -> int:
        """Row of x_i ** k for a monomial pair (i, k), or of exp of an atom's linear form."""
        row = self._keys.get(key)
        if row is None:
            if isinstance(key[0], tuple):  # an atom: ((axis, rate), ...)
                arg = 0.0
                for i, lam in key:
                    arg = arg + lam * np.array(self._axes[i])
                values, overflowed = _python_floats(math.exp, arg.tolist())
            else:
                i, k = key
                values, overflowed = _python_floats(lambda x: x**k, self._axes[i])
            row = self._keys[key] = len(self._rows)
            self._rows.append(values)
            self._overflowed.append(overflowed)
        return row

    def _products(self, terms: list) -> tuple[np.ndarray, np.ndarray | None]:
        """coefficient * factor * ... of each (coefficient, pairs, atom) term at every point.

        Also returns where a factor overflowed (None: nowhere).
        """
        rows = [
            [self._row(pair) for pair in mono] + ([self._row(atom)] if atom else [])
            for _, mono, atom in terms
        ]
        index = np.zeros((max([1, *map(len, rows)]), len(rows)), dtype=np.intp)
        for t, factors in enumerate(rows):
            index[: len(factors), t] = factors
        stack = np.array(self._rows)
        products = np.array([coeff for coeff, _, _ in terms])[:, None] * stack[index[0]]
        for factors in index[1:]:
            products *= stack[factors]
        if not any(self._overflowed):
            return products, None
        overflowed = np.array([o or [False] * self.size for o in self._overflowed])
        return products, overflowed[index].any(axis=0)

    def _sums(self, tables: list) -> tuple[np.ndarray, np.ndarray | None]:
        """The sum of each _float_table at every point, adding its terms in order from 0.0."""
        terms = [term for table in tables for term in table]
        products, overflowed = self._products(terms)
        lengths = np.array([len(table) for table in tables])
        starts = np.cumsum(lengths) - lengths
        totals = np.zeros((len(tables), self.size))
        bad = None if overflowed is None else np.zeros(totals.shape, dtype=bool)
        for t in range(lengths.max()):
            which = np.flatnonzero(lengths > t)
            totals[which] += products[starts[which] + t]
            if bad is not None:
                bad[which] |= overflowed[starts[which] + t]
        return totals, bad

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
            if expr._float is None:
                expr._float = expr._float_tables()
            step.append(e)
            size += (len(expr._float[0]) + len(expr._float[2] or ())) * self.size
            if size >= _STEP_ELEMENTS:
                self._evaluate(exprs, step, values, degenerate)
                step, size = [], 0
        if step:
            self._evaluate(exprs, step, values, degenerate)
        return values, degenerate

    def _evaluate(self, exprs: Sequence[Expr], live: list[int], values, degenerate) -> None:
        """Fill the rows ``live`` of :meth:`evaluate`'s arrays."""
        tables = [exprs[e]._float for e in live]
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
        flags |= np.abs(den) <= DENOMINATOR_CUTOFF
        values[live] = num / den
        degenerate[live] = flags
