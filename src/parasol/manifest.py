"""Manifest files: the JSON input format of the verifier.

A manifest is a UTF-8 JSON document::

    {
      "name": "ex1_r3_spacelike",
      "coordinates": ["x", "y", "z"],
      "base_point": ["0", "0", "0"],
      "domain_box": [["-1", "1"], ["-1", "1"], ["-1", "1"]],
      "epsilon": 1,
      "metric": [["exp(2*z)", "0", "0"], ...],        # n x n, row i col j = g_ij
      "phi":    [["1", "0", "0"], ...],               # phi[i][j] = dx^i(phi d_j)
      "xi":     ["0", "0", "1"],
      "eta":    ["0", "0", "1"],
      "frame":  [["exp(-z)", "0", "0"], ...],         # row i = components of E_i
      "potential": "xi",                               # or "<expr>*xi" or n strings
      "constants": {"lambda": "0", "mu": "2"},         # exact rationals
      "alpha": [["1", "0", "0"], ...],                 # optional symmetric (0,2)
      "ricci_mode": "weighted_trace"                   # or "paper_frame_sum"
    }

Expression strings follow the shared grammar (see :mod:`parasol.symexpr`);
rationals are written as "p/q" strings or integers.  ``epsilon`` is optional
and, when present, must agree with g(xi, xi).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .chart import Chart, ChartError
from .connection import RICCI_MODES, WEIGHTED_TRACE
from .paracontact import ParacontactStructure
from .symexpr import Expr, ExprError, parse
from .tensor import Frame, FrameError, Metric, TensorField, ValenceError

__all__ = ["Manifest", "ManifestError", "PotentialSpec", "XI_POTENTIAL", "load_manifest"]

# a potential written as 'xi' or '<k> * xi', with spaces allowed around '*';
# group 1 is the factor k (None for plain xi, empty for '*xi')
XI_POTENTIAL = re.compile(r"\s*(?:(.*?)\s*\*\s*)?xi\s*", re.DOTALL)


class ManifestError(ValueError):
    """Malformed manifest; message names the offending field."""


@dataclass
class PotentialSpec:
    """Potential vector field: xi itself, k*xi, or explicit components."""

    kind: str  # "xi" | "collinear" | "components"
    k: Expr | None = None
    components: list[Expr] | None = None

    def k_expr(self, chart: Chart) -> Expr:
        if self.kind == "xi":
            return Expr.one(chart)
        if self.kind == "collinear":
            return self.k
        raise ManifestError("potential is not collinear with xi")

    def vector(self, structure: ParacontactStructure) -> TensorField:
        if self.kind == "xi":
            return structure.xi
        if self.kind == "collinear":
            return structure.xi.map(lambda comp: self.k * comp)
        return TensorField.vector(structure.chart, self.components)

    @classmethod
    def from_value(cls, value, chart: Chart) -> "PotentialSpec":
        if isinstance(value, str):
            form = XI_POTENTIAL.fullmatch(value)
            if form is None:
                raise ManifestError(
                    "potential string must be 'xi' or '<expr>*xi', got %r" % value
                )
            factor = form.group(1)
            if factor is None:
                return cls("xi")
            if not factor:
                raise ManifestError("potential: empty factor in 'k*xi' form")
            return cls("collinear", k=_parse(factor, chart, "potential"))
        if isinstance(value, list):
            if len(value) != chart.dimension:
                raise ManifestError(
                    "potential needs %d components, got %d" % (chart.dimension, len(value))
                )
            return cls(
                "components",
                components=[_parse(v, chart, "potential[%d]" % i) for i, v in enumerate(value)],
            )
        raise ManifestError("potential must be a string or a list of expressions")


def _parse(source, chart: Chart, where: str) -> Expr:
    try:
        return parse(str(source), chart)
    except ExprError as exc:
        raise ManifestError("%s: %s" % (where, exc)) from None


def _as_fraction(value, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ManifestError("%s: %r is not an exact rational (use 'p/q' strings)" % (where, value))
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ManifestError("%s: invalid rational %r (%s)" % (where, value, exc)) from None


def _require(data: dict, key: str):
    if key not in data:
        raise ManifestError("missing required field %r" % key)
    return data[key]


def _parse_matrix(rows, chart: Chart, where: str) -> list[list[Expr]]:
    n = chart.dimension
    if not isinstance(rows, list) or len(rows) != n:
        raise ManifestError("%s must be a %d x %d matrix of expressions" % (where, n, n))
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ManifestError("%s row %d must have %d entries" % (where, i, n))
        out.append([_parse(v, chart, "%s[%d][%d]" % (where, i, j)) for j, v in enumerate(row)])
    return out


def _parse_vector(entries, chart: Chart, where: str) -> list[Expr]:
    n = chart.dimension
    if not isinstance(entries, list) or len(entries) != n:
        raise ManifestError("%s must be a list of %d expressions" % (where, n))
    return [_parse(source, chart, "%s[%d]" % (where, i)) for i, source in enumerate(entries)]


@dataclass
class Manifest:
    name: str
    chart: Chart
    epsilon: int | None
    metric: Metric
    phi: TensorField
    xi: TensorField
    eta: TensorField
    frame: Frame | None
    potential: PotentialSpec | None
    constants: dict[str, Fraction]
    alpha: TensorField | None
    ricci_mode: str | None

    def structure(self) -> ParacontactStructure:
        return ParacontactStructure(
            phi=self.phi,
            xi=self.xi,
            eta=self.eta,
            metric=self.metric,
            epsilon=self.epsilon,
            frame=self.frame,
            ricci_mode=self.ricci_mode or WEIGHTED_TRACE,
        )


def load_manifest(path: str | Path, overrides: dict | None = None) -> Manifest:
    """Load and validate a manifest file; all expressions are canonicalized.

    ``overrides`` replaces top-level fields before validation (used by the
    CLI flags --base-point, --potential and --ricci-mode), so overridden
    values go through exactly the same checks as file contents.
    """
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ManifestError("cannot read %s: %s" % (path, exc)) from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ManifestError("%s is not valid JSON: %s" % (path, exc)) from None
    if not isinstance(data, dict):
        raise ManifestError("manifest root must be a JSON object")
    recenter_box = False
    if overrides:
        recenter_box = "base_point" in overrides and "domain_box" not in overrides
        data.update(overrides)

    name = str(_require(data, "name"))
    coordinates = _require(data, "coordinates")
    if not isinstance(coordinates, list) or not all(isinstance(c, str) for c in coordinates):
        raise ManifestError("coordinates must be a list of names")
    n = len(coordinates)

    base_raw = data.get("base_point", ["0"] * n)
    if not isinstance(base_raw, list) or len(base_raw) != n:
        raise ManifestError("base_point must list %d rationals" % n)
    base = [_as_fraction(v, "base_point[%d]" % i) for i, v in enumerate(base_raw)]

    box_raw = data.get("domain_box")
    if box_raw is None:
        box = [(b - 1, b + 1) for b in base]
    else:
        if not isinstance(box_raw, list) or len(box_raw) != n:
            raise ManifestError("domain_box must list %d intervals" % n)
        box = []
        for i, pair in enumerate(box_raw):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ManifestError("domain_box[%d] must be [lo, hi]" % i)
            box.append(
                (
                    _as_fraction(pair[0], "domain_box[%d]" % i),
                    _as_fraction(pair[1], "domain_box[%d]" % i),
                )
            )
    if recenter_box:
        # an overridden base point keeps the box widths but recenters the box,
        # so sampling stays local to the new base point
        box = [
            (b - (hi - lo) / 2, b + (hi - lo) / 2) for b, (lo, hi) in zip(base, box)
        ]
    try:
        chart = Chart.make(coordinates, base, box)
    except ChartError as exc:
        raise ManifestError(str(exc)) from None

    epsilon = data.get("epsilon")
    # the integers only: True and 1.0 equal 1
    if epsilon is not None and (type(epsilon) is not int or epsilon not in (1, -1)):
        raise ManifestError("epsilon must be +1 or -1, got %r" % epsilon)

    metric_rows = _parse_matrix(_require(data, "metric"), chart, "metric")
    try:
        metric = Metric(TensorField(chart, 0, 2, [e for row in metric_rows for e in row]))
    except (ValenceError, ValueError) as exc:
        raise ManifestError("metric: %s" % exc) from None

    phi_rows = _parse_matrix(_require(data, "phi"), chart, "phi")
    phi = TensorField(chart, 1, 1, [e for row in phi_rows for e in row])
    xi = TensorField.vector(chart, _parse_vector(_require(data, "xi"), chart, "xi"))
    eta = TensorField.oneform(chart, _parse_vector(_require(data, "eta"), chart, "eta"))

    frame = None
    if data.get("frame") is not None:
        frame_rows = _parse_matrix(data["frame"], chart, "frame")
        try:
            frame = Frame([TensorField.vector(chart, row) for row in frame_rows])
        except FrameError as exc:
            raise ManifestError("frame: %s" % exc) from None

    potential = None
    if data.get("potential") is not None:
        potential = PotentialSpec.from_value(data["potential"], chart)

    constants: dict[str, Fraction] = {}
    raw_constants = data.get("constants", {})
    if not isinstance(raw_constants, dict):
        raise ManifestError("constants must be an object")
    for key, value in raw_constants.items():
        if key not in ("lambda", "mu"):
            raise ManifestError("constants: unknown key %r" % key)
        constants[key] = _as_fraction(value, "constants.%s" % key)

    alpha = None
    if data.get("alpha") is not None:
        alpha_rows = _parse_matrix(data["alpha"], chart, "alpha")
        alpha = TensorField(chart, 0, 2, [e for row in alpha_rows for e in row])
        if not alpha.is_symmetric_down(0, 1):
            raise ManifestError("alpha must be symmetric")

    ricci_mode = data.get("ricci_mode")
    if ricci_mode is not None and ricci_mode not in RICCI_MODES:
        raise ManifestError("ricci_mode must be one of %s" % (RICCI_MODES,))

    return Manifest(
        name=name,
        chart=chart,
        epsilon=epsilon,
        metric=metric,
        phi=phi,
        xi=xi,
        eta=eta,
        frame=frame,
        potential=potential,
        constants=constants,
        alpha=alpha,
        ricci_mode=ricci_mode,
    )
