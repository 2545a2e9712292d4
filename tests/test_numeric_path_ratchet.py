"""One float evaluator and one point set for every numeric observation.

A ``batch.Plan`` (run through ``PointBatch``) evaluates every float the
program reads: ``numeric_max``, the soliton base-point guard, the torse note,
the oracle rows and references, the report's candidate points, and the
base-point reads (the signature, the frame check, the soliton residual norm).
``Expr.evaluate`` is kept as the reference of the batch and the source of its
error texts; the one call of it in the program is ``PointBatch.evaluate_or_raise``,
which evaluates the first flagged value alone so that it raises its own error.
``TensorField.numeric_at`` and the caches only the one-point path read (the
float tables kept on an expression, the converted-point passthrough) are gone.

The exact ring's arithmetic keeps an expression's rational content as two
ints; ``Fraction`` is built only where a value is parsed, printed or
evaluated exactly.  Its rates count in units of the chart's one rate
denominator, so no expression carries its own or rescales an operand's.
"""

import ast
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

from parasol.chart import Chart
from parasol.cli import main

SRC = Path(__file__).resolve().parent.parent / "src" / "parasol"
MANIFESTS = Path(__file__).resolve().parent / "golden" / "manifests"

# the fd_* wrappers built a new StencilSampler per call; a sampler is the one way in
# the chart fixes one rate denominator: no expression's rates are rescaled
DELETED_FUNCTIONS = {
    "max_abs", "evaluate_many", "fd_christoffel", "fd_riemann", "fd_ricci", "_rescale_rates",
}
# compare takes a reference's (value, error) pairs, not a per-point lookup
DELETED_PARAMETERS = {"guard_seed", "sample_seed", "oracle_fn"}
# Metric.numeric_at only delegated to its field; the fields were written and never read;
# TensorField.numeric_at and the one-point caches were left without a caller by batch.Plan;
# StencilSampler.references computes the points it is given, with no lazy per-point lookup;
# the sampler judges a candidate by all its stencil visits, with no probes of its own
DELETED_METHODS = {
    "Contraction.numeric_at", "Metric.numeric_at", "TensorField.numeric_at",
    "Expr.keep_float_tables",
    "StencilSampler.expect", "StencilSampler._lookup", "StencilSampler.christoffel",
    "StencilSampler.christoffel_half_step", "StencilSampler.riemann", "StencilSampler.ricci",
    "StencilSampler.probe_fails", "Expr._with_rden", "Expr._aligned",
}
DELETED_FIELDS = {
    "CheckOutcome.data", "SolitonSolveResult.norm_squared", "TorseFormingData.w", "Expr._float",
    "Expr._scale", "Expr._rden",
}
# a sample point's references are numbers, with no error for a failed stencil
DELETED_CLASSES = {"_Coordinates", "StencilDegeneracyError"}
ONE_POINT_CALLS = {"evaluate", "numeric_at"}
# the one one-point call of the program: the raise rule of the batch
RAISE_PATH = {"batch.py": ["PointBatch.evaluate_or_raise: .evaluate"]}
CHART_SAMPLERS = {"Analysis.sample_points", "oracle_sample_points"}
# the ring's arithmetic: the content is an int pair, with no Fraction in between
INT_CONTENT_FUNCTIONS = {
    "Expr.__add__", "Expr.__neg__", "Expr.__sub__", "Expr.__mul__", "Expr._reciprocal",
    "Expr.__pow__", "Expr.differentiate", "Expr._make", "Expr._from_num_den", "_common_content",
}
FRACTION_NAMES = {"Fraction", "_F0", "_F1"}


def _functions(tree: ast.AST, prefix: str = ""):
    """(qualified name, node) of every function, methods as 'Class.method'."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node, prefix + node.name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".")


def _fields(node: ast.ClassDef):
    """The annotated fields and the ``__slots__`` names of a class."""
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            yield item.target.id
        elif isinstance(item, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
        ):
            yield from (e.value for e in ast.walk(item.value) if isinstance(e, ast.Constant))


def deleted_names(source: str) -> list[str]:
    """Classes, functions, parameters and class fields that must stay deleted, found in a module."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            if node.name in DELETED_CLASSES:
                found.append(node.name)
            found += [
                "%s.%s" % (node.name, field)
                for field in _fields(node)
                if "%s.%s" % (node.name, field) in DELETED_FIELDS
            ]
    for name, function in _functions(tree):
        if name.split(".")[-1] in DELETED_FUNCTIONS or name in DELETED_METHODS:
            found.append(name)
        args = function.args
        found += [
            "%s(%s)" % (name, a.arg)
            for a in args.posonlyargs + args.args + args.kwonlyargs
            if a.arg in DELETED_PARAMETERS
        ]
    return found


def chart_sample_callers(source: str) -> list[str]:
    """Functions that call ``Chart.sample_points``: a ``.sample_points(...)`` call with arguments.

    ``Analysis.sample_points()`` takes none, so its callers are not listed.
    """
    return [
        name
        for name, function in _functions(ast.parse(source))
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "sample_points"
        and (node.args or node.keywords)
    ]


def fraction_uses(source: str) -> list[str]:
    """The names of ``FRACTION_NAMES`` read in the ring's arithmetic, as 'function: name'."""
    return [
        "%s: %s" % (name, node.id)
        for name, function in _functions(ast.parse(source))
        if name in INT_CONTENT_FUNCTIONS
        for node in ast.walk(function)
        if isinstance(node, ast.Name) and node.id in FRACTION_NAMES
    ]


def _batch(node: ast.expr, function: str) -> bool:
    """Whether a receiver is a ``PointBatch``, whose ``.evaluate`` is batched.

    That is a ``PointBatch(...)`` call, ``self`` in a ``PointBatch`` method, or
    by convention a name that ends in ``batch``.
    """
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "PointBatch"
    if isinstance(node, ast.Name):
        return node.id.endswith("batch") or (
            node.id == "self" and function.startswith("PointBatch.")
        )
    return False


def one_point_calls(source: str) -> list[str]:
    """The ``.evaluate(...)`` and ``.numeric_at(...)`` calls of a module, as 'function: call'.

    A batch's ``.evaluate(...)`` (see :func:`_batch`) is not listed.
    """
    return [
        "%s: .%s" % (name, node.func.attr)
        for name, function in _functions(ast.parse(source))
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ONE_POINT_CALLS
        and not _batch(node.func.value, name)
    ]


def imported_names(source: str) -> set[str]:
    """Every module and every name a module imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
    return names


def test_detectors_find_the_deleted_paths():
    source = (
        "import numpy as np\n"
        "from .chart import SAMPLE_COUNT\n"
        "class _Coordinates(list):\n"
        "    __slots__ = ()\n"
        "class Expr:\n"
        "    __slots__ = (\"chart\", \"_float\", \"_scale\", \"_rden\")\n"
        "    def keep_float_tables(self):\n        pass\n"
        "    def _aligned(self, other):\n        pass\n"
        "class TensorField:\n"
        "    def max_abs(self, points):\n        pass\n"
        "    def numeric_at(self, point):\n        pass\n"
        "class Contraction:\n"
        "    def numeric_at(self, point):\n        pass\n"
        "class Metric:\n"
        "    def numeric_at(self, point):\n        pass\n"
        "class TorseFormingData:\n"
        "    classification: str\n"
        "    w: TensorField | None = None\n"
        "def solve(structure, guard_seed=42):\n"
        "    return chart.sample_points(10, guard_seed)\n"
        "def torse(structure, *, sample_seed=42):\n"
        "    return analysis.sample_points()[:5]\n"
        "def fd_ricci(metric, point, cfg):\n"
        "    return StencilSampler(metric, cfg.h).ricci(point)\n"
        "class StencilDegeneracyError(ValueError):\n"
        "    pass\n"
        "class StencilSampler:\n"
        "    def expect(self, points):\n        pass\n"
        "    def probe_fails(self, candidates):\n        pass\n"
        "    def _lookup(self, point, name):\n        pass\n"
        "    def riemann(self, point):\n        pass\n"
        "    def references(self, points):\n        pass\n"
        "def compare(symbolic, oracle_fn, points):\n"
        "    pass\n"
        "def _rescale_rates(a, lay, mul):\n"
        "    pass\n"
    )
    assert deleted_names(source) == [
        "_Coordinates", "Expr._float", "Expr._scale", "Expr._rden", "TorseFormingData.w",
        "StencilDegeneracyError",
        "Expr.keep_float_tables", "Expr._aligned",
        "TensorField.max_abs", "TensorField.numeric_at", "Contraction.numeric_at",
        "Metric.numeric_at",
        "solve(guard_seed)", "torse(sample_seed)", "fd_ricci",
        "StencilSampler.expect", "StencilSampler.probe_fails", "StencilSampler._lookup",
        "StencilSampler.riemann", "compare(oracle_fn)", "_rescale_rates",
    ]
    assert chart_sample_callers(source) == ["solve"]
    assert one_point_calls(
        "def guard(det, field, point):\n"
        "    return det.evaluate(point), field.numeric_at(point), batch.evaluate_or_raise([det])\n"
        "def observe(chart, points, exprs, stencil_batch):\n"
        "    return PointBatch(chart, points).evaluate(exprs), stencil_batch.evaluate(exprs)\n"
        "class PointBatch:\n"
        "    def evaluate_or_raise(self, exprs):\n"
        "        return self.evaluate(exprs), exprs[0].evaluate(self.points[0])\n"
        "class Frame:\n"
        "    def check(self, point):\n"
        "        return self.evaluate(point)\n"
    ) == [
        "guard: .evaluate", "guard: .numeric_at", "PointBatch.evaluate_or_raise: .evaluate",
        "Frame.check: .evaluate",
    ]
    assert {"numpy", "SAMPLE_COUNT"} <= imported_names(source)
    assert fraction_uses(
        "def _common_content(p, q):\n"
        "    return Fraction(p.numerator, q.denominator), 1, 1\n"
        "class Expr:\n"
        "    def __neg__(self):\n"
        "        return Expr(-self._sn, self._sd)\n"
        "    def _reciprocal(self):\n"
        "        return _F1 / self._scale\n"
        "    def num_string(self):\n"
        "        return str(Fraction(self._sn, self._sd))\n"
    ) == ["_common_content: Fraction", "Expr._reciprocal: _F1"]


def test_the_one_point_leftovers_stay_deleted():
    found = {
        path.name: deleted_names(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: names for name, names in found.items() if names} == {}


def test_only_the_batch_raise_path_makes_a_one_point_float_call():
    found = {
        path.name: one_point_calls(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: calls for name, calls in found.items() if calls} == RAISE_PATH


def test_the_ring_arithmetic_names_no_fraction():
    source = (SRC / "symexpr.py").read_text(encoding="utf-8")
    assert {name for name, _ in _functions(ast.parse(source))} >= INT_CONTENT_FUNCTIONS
    assert fraction_uses(source) == []


def test_solitons_do_no_float_sampling():
    imported = imported_names((SRC / "solitons.py").read_text(encoding="utf-8"))
    assert not {"numpy", "SAMPLE_COUNT"} & imported


def test_only_the_report_and_oracle_point_sets_draw_from_the_chart():
    callers = {
        caller
        for path in sorted(SRC.glob("*.py"))
        if path.name != "chart.py"
        for caller in chart_sample_callers(path.read_text(encoding="utf-8"))
    }
    assert callers == CHART_SAMPLERS


# ---------------------------------------------------------------------------
# the same rules, seen from a run
# ---------------------------------------------------------------------------


def _report(argv: list[str]) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        main(argv + ["--json"])
    return json.loads(out.getvalue())


def test_a_report_draws_one_point_set_and_the_oracle_another(monkeypatch):
    # ex1 runs the soliton guard, torse_sigmoid_r3 the torse note; both read
    # the report's point set
    draws = []
    sample_points = Chart.sample_points

    def recording(self, count, seed, reject=None):
        draws.append((count, seed))
        return sample_points(self, count, seed, reject)

    monkeypatch.setattr(Chart, "sample_points", recording)
    for manifest in ("fixtures/ex1_r3_spacelike", str(MANIFESTS / "torse_sigmoid_r3.json")):
        draws.clear()
        _report(["report", "--all", manifest, "--seed", "7"])
        assert draws == [(10, 7), (10, 7)], manifest


def test_the_guard_without_sample_points_is_inapplicable(tmp_path):
    # a flat metric scaled so that |det g| = 1e-8 is below the sampling cutoff everywhere
    manifest = {
        "name": "flat_small", "coordinates": ["x", "y", "z"], "base_point": ["0", "0", "0"],
        "domain_box": [["-1", "1"]] * 3, "epsilon": 1,
        "metric": [["1/10000", "0", "0"], ["0", "1/10000", "0"], ["0", "0", "1"]],
        "phi": [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "0"]],
        "xi": ["0", "0", "1"], "eta": ["0", "0", "1"],
        "frame": [["100", "0", "0"], ["0", "100", "0"], ["0", "0", "1"]], "potential": "xi",
    }
    path = tmp_path / "flat_small.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    guard = _report(["soliton", "solve", str(path)])["checks"][-1]
    assert (guard["id"], guard["status"], guard["details"]) == (
        "soliton_base_point_guard",
        "inapplicable",
        "no nondegenerate sample points found in the domain box",
    )
