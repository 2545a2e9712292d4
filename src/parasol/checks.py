"""Check outcomes and the check table shared by the validation suites and the CLI reports.

Every verification operation produces named outcomes carrying the symbolic
residual itself, not just a boolean: near-misses in user-supplied structures
are diagnosed from the residual's numeric size at sample points, which the
CLI renders next to the symbolic verdict.

A suite is a table of :class:`Check` rows (id, statement, residual, needs)
run in order by :func:`run_checks`.  A :class:`Need` is a named
precondition: a predicate over the facts the suite was given and the reason
it reports, so a row whose hypotheses fail is inapplicable.  A row gives its
residual built, or as a thunk that the runner calls only once the needs
hold, when the residual's inputs exist only under the needs or building it
would be wasted work otherwise.  Each row follows one rule:

* ``IDENTITY`` passes iff the residual is zero; the statement is the details.
* ``CLASSIFICATION`` always passes and records whether the residual is zero;
  a statement pair reads (when zero, when not).
* ``FACT`` passes iff an exact boolean holds: the residual is
  ``(holds, *args)`` and the details are ``statement % args``.

A residual is an ``Expr`` or ``TensorField``, whose numeric size the report
samples, a lazy :class:`~parasol.tensor.Contraction` (a spec and its built
operands), an exact rational, or a tuple of these that is zero when every
one is (the report samples the first).

A contraction is fingerprinted before it is built: every operand component
is reduced modulo the prime p = 2^61 - 1 at one seeded formal point
(x_i, E_i = e^{x_i/L}), and the residues are contracted with the same spec.
That is a ring map of the exact expressions, so a nonzero residue proves
the residual nonzero exactly, and the outcome keeps the contraction for the
report to size from float factors.  When every residue is zero, or some
denominator is not a unit mod p, the runner falls back to the exact build
and ``is_zero``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Union

from .symexpr import Expr, NonUnitResidueError
from .tensor import Contraction, TensorField

__all__ = [
    "CheckOutcome",
    "Check",
    "Need",
    "run_checks",
    "inapplicable",
    "IDENTITY",
    "CLASSIFICATION",
    "FACT",
    "PASS",
    "FAIL",
    "INAPPLICABLE",
]

PASS = "pass"
FAIL = "fail"
INAPPLICABLE = "inapplicable"

IDENTITY = "identity"
CLASSIFICATION = "classification"
FACT = "fact"

Residual = Union[Expr, TensorField, Contraction, None]


@dataclass
class CheckOutcome:
    """One named verification result.

    ``status`` is "pass", "fail" or "inapplicable".  Classification-style
    outcomes (Codazzi or not, parallel or not, torse-forming class) always
    pass; their finding lives in ``details`` and ``symbolic_zero``.
    """

    id: str
    status: str
    symbolic_zero: bool | None = None
    residual: Residual = None
    details: str = ""


class Need:
    """A precondition: a predicate over a suite's facts, and the reason reported when it fails."""

    __slots__ = ("holds", "reason")

    def __init__(self, holds: Callable[[Any], bool], reason: str):
        self.holds, self.reason = holds, reason


class Check:
    """One table row: an identity, classification or fact with its hypotheses."""

    __slots__ = ("id", "statement", "residual", "needs", "rule")

    def __init__(
        self,
        id: str,
        statement: str | tuple[str, str],
        residual: Any,
        needs: tuple[Need, ...] = (),
        rule: str = IDENTITY,
    ):
        self.id, self.statement, self.residual, self.needs, self.rule = (
            id, statement, residual, needs, rule
        )


def inapplicable(check_id: str, details: str) -> CheckOutcome:
    return CheckOutcome(check_id, INAPPLICABLE, details=details)


def run_checks(rows, **facts) -> list[CheckOutcome]:
    """The outcomes of the rows in order; a ready ``CheckOutcome`` row is passed through."""
    known = SimpleNamespace(**facts)
    return [row if isinstance(row, CheckOutcome) else _run(row, known) for row in rows]


def _run(row: Check, facts) -> CheckOutcome:
    unmet = next((need for need in row.needs if not need.holds(facts)), None)
    if unmet is not None:
        return inapplicable(row.id, unmet.reason)
    value = row.residual() if callable(row.residual) else row.residual
    if row.rule == FACT:
        holds, *args = value
        details = row.statement % tuple(args)
        return CheckOutcome(row.id, PASS if holds else FAIL, holds, details=details)
    parts = tuple(map(_certified_or_built, value if isinstance(value, tuple) else (value,)))
    zero = all(_is_zero(p) for p in parts)
    status = PASS if zero or row.rule == CLASSIFICATION else FAIL
    details = row.statement if isinstance(row.statement, str) else row.statement[not zero]
    return CheckOutcome(row.id, status, zero, _kept(parts[0], zero), details)


def _certified_or_built(part):
    """A contraction with a nonzero residue as it is, any other contraction built exactly."""
    if not isinstance(part, Contraction):
        return part
    try:
        if part.residues().any():
            return part
    except NonUnitResidueError:
        pass
    return part.build()


def _is_zero(part) -> bool:
    if isinstance(part, Contraction):
        return False  # _certified_or_built kept it for its nonzero residue
    if isinstance(part, (Expr, TensorField)):
        return part.is_zero()
    return part == 0


def _kept(residual, zero: bool) -> Residual:
    """The residual an outcome keeps for its numeric size, which the report samples later.

    A zero residual keeps only its shape: one shared zero component instead
    of n^rank distinct ones, which would stay alive until the report is built.
    """
    if isinstance(residual, TensorField):
        return TensorField.zero(residual.chart, residual.p, residual.q) if zero else residual
    if isinstance(residual, Expr):
        return Expr.zero(residual.chart) if zero else residual
    return residual if isinstance(residual, Contraction) else None
