"""Verification reports: deterministic JSON and human-readable tables.

A report records the conventions in force (curvature sign, Ricci mode,
sampling seed), one entry per executed check with both the symbolic verdict
and the largest numeric residual over seeded sample points, and the derived
constants.  Reports are byte-identical across repeated runs with the same
manifest, flags and seed; golden-file tests rely on that.

Exit codes: 0 when no check failed (inapplicable entries do not fail),
1 when any check failed, 2 on input or usage errors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .batch import PointBatch
from .checks import CheckOutcome, FAIL
from .symexpr import Expr
from .tensor import Contraction, TensorField

__all__ = ["CheckEntry", "VerificationReport", "CURVATURE_SIGN_CONVENTION"]

CURVATURE_SIGN_CONVENTION = (
    "R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z"
)

# the report's constants, in this order, each null when no command recorded it
CONSTANT_KEYS = ("epsilon", "a", "b", "c", "lambda", "mu", "f", "classification", "regular")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


@dataclass
class CheckEntry:
    id: str
    status: str
    symbolic_zero: bool | None
    numeric_max: float | None
    details: str

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "status": self.status,
            "symbolic_zero": self.symbolic_zero,
            "numeric_max": self.numeric_max,
            "details": self.details,
        }


def _round_float(value: float) -> float:
    # six significant digits: stable across repeated runs, readable in tables
    return float("%.6e" % value)


def _factored_max(residual: Contraction, points: list[Mapping[str, float]]) -> float | None:
    """Largest |component| summed from float factors, or None where the exact build must decide.

    That is when an operand is degenerate or not finite at some point, or the
    summed value is not finite.
    """
    values = residual.numeric_many(PointBatch(residual.chart, points))
    if values is None or not all(np.isfinite(value).all() for value in values):
        return None
    return max((float(np.abs(value).max()) for value in values), default=0.0)


def residual_numeric_max(residual, points: Iterable[Mapping[str, float]]) -> float | None:
    """Largest |residual| over the points, or None when there is none or it is not finite.

    A contraction takes it from float factors when every operand is finite and
    nondegenerate at every point, else from its exact build.  A built residual evaluates
    each distinct nonzero component once on a batch, skipping it where degenerate or NaN.
    A symbolically zero residual has the size 0.0; a nonzero one with no value left to
    take (no points, or each degenerate or NaN) has none.
    """
    points = list(points)
    if isinstance(residual, Contraction):
        if not points:
            return None  # a kept contraction has a nonzero residue
        worst = _factored_max(residual, points)
        if worst is not None:
            return _round_float(worst)
        residual = residual.build()
    if isinstance(residual, Expr):
        residual = TensorField(residual.chart, 0, 0, [residual])
    elif not isinstance(residual, TensorField):
        return None
    distinct = {id(c): c for _, c in residual.components() if not c.is_symbolically_zero}
    if not distinct:
        return 0.0
    if not points:
        return None
    values, degenerate = PointBatch(residual.chart, points).evaluate(list(distinct.values()))
    kept = zip(values.ravel().tolist(), degenerate.ravel().tolist())
    worst = max((abs(v) for v, skip in kept if not (skip or math.isnan(v))), default=math.inf)
    return _round_float(worst) if math.isfinite(worst) else None


def constant_text(value) -> str | None:
    """A value as printed: an expression that is a rational constant prints as that constant."""
    if value is None:
        return None
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Expr):
        constant = value.as_rational_constant()
        return str(constant) if constant is not None else str(value)
    return str(value)


def _json_constant(value):
    """epsilon, regular and classification as they are (int, bool, str); other values as text."""
    return value if isinstance(value, (int, str)) else constant_text(value)


@dataclass
class VerificationReport:
    name: str
    ricci_mode: str
    seed: int
    checks: list[CheckEntry] = field(default_factory=list)
    constants: dict = field(default_factory=dict)

    def extend_outcomes(
        self, outcomes: Iterable[CheckOutcome], points: list[Mapping[str, float]]
    ) -> None:
        """One entry per outcome, with the residual's largest value over the points."""
        for o in outcomes:
            numeric_max = residual_numeric_max(o.residual, points)
            self.checks.append(CheckEntry(o.id, o.status, o.symbolic_zero, numeric_max, o.details))

    @property
    def exit_code(self) -> int:
        return EXIT_CHECK_FAILED if any(c.status == FAIL for c in self.checks) else EXIT_OK

    def to_dict(self) -> dict:
        constants = {key: _json_constant(self.constants.get(key)) for key in CONSTANT_KEYS}
        return {
            "name": self.name,
            "conventions": {
                "curvature_sign": CURVATURE_SIGN_CONVENTION,
                "ricci_mode": self.ricci_mode,
                "seed": self.seed,
            },
            "checks": [c.to_dict() for c in self.checks],
            "constants": constants,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\n"

    def to_table(self) -> str:
        lines = []
        lines.append("manifest: %s" % self.name)
        lines.append(
            "conventions: %s | ricci_mode=%s | seed=%d"
            % (CURVATURE_SIGN_CONVENTION, self.ricci_mode, self.seed)
        )
        header = ("check", "status", "symbolic", "numeric max", "details")
        rows = [header]
        for entry in self.checks:
            symbolic = (
                "-"
                if entry.symbolic_zero is None
                else ("zero" if entry.symbolic_zero else "nonzero")
            )
            numeric = "-" if entry.numeric_max is None else "%.3e" % entry.numeric_max
            rows.append((entry.id, entry.status, symbolic, numeric, entry.details))
        widths = [max(len(row[i]) for row in rows) for i in range(4)]
        lines.append("-" * (sum(widths) + 14))
        for idx, row in enumerate(rows):
            lines.append(
                "%-*s  %-*s  %-*s  %-*s  %s"
                % (widths[0], row[0], widths[1], row[1], widths[2], row[2], widths[3], row[3], row[4])
            )
            if idx == 0:
                lines.append("-" * (sum(widths) + 14))
        shown = {
            key: value
            for key, value in self.to_dict()["constants"].items()
            if value is not None
        }
        if shown:
            lines.append("constants: " + ", ".join("%s=%s" % kv for kv in sorted(shown.items())))
        lines.append("result: %s" % ("FAIL" if self.exit_code else "PASS"))
        return "\n".join(lines) + "\n"
