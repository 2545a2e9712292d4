"""Coordinate charts.

A chart fixes an ordered list of coordinate names, a rational base point
and a rational sampling box.  Every symbolic expression and tensor field
in this package is bound to exactly one chart; mixing charts is an error.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

__all__ = ["Chart", "ChartError", "ChartMismatchError", "SAMPLE_COUNT"]

# Identifiers with special meaning in the expression grammar.
RESERVED_NAMES = frozenset({"e", "exp"})

# seeded points per numeric check: report residuals, the oracle and the soliton-solve guard
SAMPLE_COUNT = 10
# candidates drawn before sample_points gives up on a box that rejects almost everywhere
MAX_SAMPLE_TRIES = 2000


class ChartError(ValueError):
    """Invalid chart data."""


class ChartMismatchError(ValueError):
    """Operands live on different charts."""


@dataclass(frozen=True)
class Chart:
    """An n-dimensional coordinate chart (n >= 2).

    ``base_point`` must lie inside ``domain_box``; both are exact rationals
    so that evaluation at the base point can stay exact.
    """

    coordinates: tuple[str, ...]
    base_point: tuple[Fraction, ...]
    domain_box: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        n = len(self.coordinates)
        if n < 2:
            raise ChartError("chart needs at least 2 coordinates, got %d" % n)
        if len(set(self.coordinates)) != n:
            raise ChartError("duplicate coordinate names: %r" % (self.coordinates,))
        for name in self.coordinates:
            if not name.isidentifier():
                raise ChartError("coordinate name %r is not an identifier" % name)
            if name in RESERVED_NAMES:
                raise ChartError("coordinate name %r is reserved by the expression grammar" % name)
        if len(self.base_point) != n or len(self.domain_box) != n:
            raise ChartError("base point / domain box dimension mismatch")
        for name, value, (lo, hi) in zip(self.coordinates, self.base_point, self.domain_box):
            if not lo < hi:
                raise ChartError("degenerate domain interval [%s, %s]" % (lo, hi))
            if not (lo <= value <= hi):
                raise ChartError("base point %s = %s outside [%s, %s]" % (name, value, lo, hi))

    @classmethod
    def make(
        cls,
        coordinates: Sequence[str],
        base_point: Sequence | None = None,
        domain_box: Sequence | None = None,
    ) -> "Chart":
        """Build a chart, defaulting to base point 0 and box [-1, 1]^n."""
        coords = tuple(coordinates)
        n = len(coords)
        if base_point is None:
            base = (Fraction(0),) * n
        else:
            base = tuple(Fraction(v) for v in base_point)
        if domain_box is None:
            box = tuple((b - 1, b + 1) for b in base)
        else:
            box = tuple((Fraction(lo), Fraction(hi)) for lo, hi in domain_box)
        return cls(coords, base, box)

    @property
    def dimension(self) -> int:
        return len(self.coordinates)

    def axis(self, name: str) -> int:
        """Index of a coordinate name; raises KeyError on unknown names."""
        try:
            return self.coordinates.index(name)
        except ValueError:
            raise KeyError(name) from None

    def require_same(self, other: "Chart") -> None:
        if self != other:
            raise ChartMismatchError(
                "charts differ: %r vs %r" % (self.coordinates, other.coordinates)
            )

    def sample_points(
        self,
        count: int,
        seed: int,
        reject: Callable[[list[dict[str, float]]], Sequence[bool]] | None = None,
    ) -> list[dict[str, float]]:
        """Deterministic uniform samples from the ``domain_box``, with optional rejection.

        ``reject`` takes candidates in the order they are drawn and returns,
        for each, whether to drop it (used to avoid metric degeneracy loci
        and denominator zeros).  It is given as many candidates at a time as
        points are still missing, so it sees exactly the candidates that a
        draw of one at a time would, and can judge them in one batch; a
        rule that returns another number of flags raises ``ValueError``.
        Returns the points found, at most ``count``.
        """
        rng = random.Random(seed)
        ranges = [(c, float(lo), float(hi)) for c, (lo, hi) in zip(self.coordinates, self.domain_box)]
        points: list[dict[str, float]] = []
        tries = 0
        while len(points) < count and tries < MAX_SAMPLE_TRIES:
            drawn = min(count - len(points), MAX_SAMPLE_TRIES - tries)
            tries += drawn
            candidates = [
                {name: lo + (hi - lo) * rng.random() for name, lo, hi in ranges}
                for _ in range(drawn)
            ]
            if reject is None:
                points += candidates
            else:
                flags = zip(candidates, reject(candidates), strict=True)
                points += [point for point, drop in flags if not drop]
        return points
