"""Nonzero certificates mod p and float-factor numeric sizes of lazy contractions.

A ``Contraction`` residual is decided from its residues at the formal point
when one is nonzero, and its ``numeric_max`` is summed from float factors;
everything else falls back to the exact build.  These tests hold both
shortcuts to the exact build they replace.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import FIXTURE_NAMES, fixture_path, numeric_at
from parasol import symexpr
from parasol.analysis import Analysis
from parasol.checks import CLASSIFICATION, Check, run_checks
from parasol.manifest import load_manifest
from parasol.oracle import OracleConfig
from parasol.batch import PointBatch
from parasol.report import _factored_max, _round_float, residual_numeric_max
from parasol.solitons import semi_symmetry_residual
from parasol.symexpr import RESIDUE_PRIME, Expr, FormalPoint, NonUnitResidueError, parse
from parasol.tensor import Contraction, TensorField

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import ladder_manifest  # noqa: E402

GOLDEN_MANIFESTS = sorted((GOLDEN / "manifests").glob("*.json"))


def _ladder(n: int, tmp_path: Path) -> Path:
    path = tmp_path / ("ladder_%d.json" % n)
    path.write_text(json.dumps(ladder_manifest(n, 42), indent=2) + "\n", encoding="utf-8")
    return path


def _semi_symmetry(path: Path):
    analysis = Analysis(load_manifest(path), OracleConfig())
    structure = analysis.structure
    lazy = semi_symmetry_residual(structure, structure.ricci())
    return lazy, analysis.sample_points()


# the golden manifests ladder_n4, ladder_n5 and ladder_n6 are ladder_manifest(n, 42)
MANIFEST_CASES = (
    [pytest.param(fixture_path(name), id=name) for name in FIXTURE_NAMES]
    + [pytest.param(path, id=path.stem) for path in GOLDEN_MANIFESTS]
    + [pytest.param(3, id="ladder_n3")]
)


@pytest.mark.parametrize("manifest", MANIFEST_CASES)
@pytest.mark.usefixtures("float_tables_kept")
def test_certificate_matches_the_exact_build(manifest, tmp_path):
    path = _ladder(manifest, tmp_path) if isinstance(manifest, int) else manifest
    lazy, points = _semi_symmetry(path)
    exact = lazy.build()
    residues = lazy.residues()
    certified = {idx for idx in exact.indices() if residues[idx]}
    nonzero = {idx for idx, comp in exact.components() if not comp.is_zero()}
    assert certified == nonzero
    factored = _factored_max(lazy, points)
    assert factored is not None  # no operand is degenerate at these points
    # the built residual's batch values are its one-point values, bit for bit
    stack, degenerate = exact.numeric_many(PointBatch(exact.chart, points))
    assert not degenerate.any()
    assert stack.tobytes() == np.array([numeric_at(exact, p) for p in points]).tobytes()
    built = residual_numeric_max(exact, points)
    assert built == _round_float(float(np.abs(stack).max(initial=0.0)))
    assert _round_float(factored) == built


def test_ladder_certificates_find_every_nonzero_component():
    counts = []
    for n in (4, 5, 6):
        residues = _semi_symmetry(GOLDEN / "manifests" / ("ladder_n%d.json" % n))[0].residues()
        counts.append(int(np.count_nonzero(residues)))
    assert counts == [48, 100, 180]


# ---------------------------------------------------------------------------
# residues
# ---------------------------------------------------------------------------


def test_residue_is_a_ring_map(ex1):
    chart = replace(ex1.chart, rate_denominator=2)
    a = parse("exp(2*z)/(1 + x^2) - y/3", chart)
    b = parse("x*exp(-z/2) + 5", chart)
    point = FormalPoint(chart)
    ra, rb = point.residue(a), point.residue(b)
    assert point.residue(a * b) == ra * rb % RESIDUE_PRIME
    assert point.residue(a + b) == (ra + rb) % RESIDUE_PRIME
    assert point.residue(a / b) * rb % RESIDUE_PRIME == ra
    assert point.residue(a - a) == 0


def test_a_rate_the_charts_denominator_does_not_cover_raises(ex1):
    chart = replace(ex1.chart, rate_denominator=2)
    with pytest.raises(symexpr.ExprError, match="denominator 3 does not divide .* denominator 2"):
        parse("exp(z/3)", chart)


def test_non_unit_denominators_raise(ex1, monkeypatch):
    chart = ex1.chart
    modulus_inverse = Expr.constant(chart, Fraction(1, RESIDUE_PRIME))
    with pytest.raises(NonUnitResidueError):
        FormalPoint(chart).residue(modulus_inverse)
    monkeypatch.setattr(symexpr, "formal_values", lambda n: ([0] * n, [2] * n))
    over_x = parse("1/x", chart)
    with pytest.raises(NonUnitResidueError):
        FormalPoint(chart).residue(over_x)
    monkeypatch.setattr(symexpr, "formal_values", lambda n: ([1] * n, [0] * n))
    with pytest.raises(NonUnitResidueError):
        FormalPoint(chart)


# ---------------------------------------------------------------------------
# the runner: certified rows keep the contraction, every other row is built
# ---------------------------------------------------------------------------


def _vector_row(chart, first: str) -> Check:
    zero = Expr.zero(chart)
    vector = TensorField.vector(chart, [parse(first, chart), zero, zero])
    return Check("row", ("zero", "nonzero"), Contraction("i->i", vector), rule=CLASSIFICATION)


def test_a_nonzero_residue_keeps_the_contraction(ex1):
    (outcome,) = run_checks([_vector_row(ex1.chart, "x")])
    assert outcome.symbolic_zero is False and outcome.details == "nonzero"
    assert isinstance(outcome.residual, Contraction)


def test_a_scalar_contraction_is_decided_both_ways(ex1):
    g = ex1.metric.field
    rows = [
        Check("xi_xi", ("zero", "nonzero"), Contraction("ij,i,j->", g, ex1.xi, ex1.xi)),
        Check("e1_xi", ("zero", "nonzero"), Contraction("ij,i,j->", g, ex1.frame[0], ex1.xi)),
    ]
    nonzero, zero = run_checks(rows)
    assert nonzero.symbolic_zero is False and isinstance(nonzero.residual, Contraction)
    assert zero.symbolic_zero is True and zero.residual.is_zero()


def test_a_forced_zero_residue_falls_back_to_the_exact_build(ex1, monkeypatch):
    # x = 0 is a root of the residual x: its residue vanishes, the build decides
    monkeypatch.setattr(symexpr, "formal_values", lambda n: ([0] * n, [2] * n))
    row = _vector_row(ex1.chart, "x")
    assert not row.residual.residues().any()
    (outcome,) = run_checks([row])
    assert outcome.symbolic_zero is False and outcome.details == "nonzero"
    assert isinstance(outcome.residual, TensorField)


def test_a_non_unit_denominator_falls_back_to_the_exact_build(ex1, monkeypatch):
    monkeypatch.setattr(symexpr, "formal_values", lambda n: ([0] * n, [2] * n))
    row = _vector_row(ex1.chart, "1/x")
    with pytest.raises(NonUnitResidueError):
        row.residual.residues()
    (outcome,) = run_checks([row])
    assert outcome.symbolic_zero is False
    assert isinstance(outcome.residual, TensorField)


def test_zero_residues_keep_the_exact_verdict(flat):
    # a residual that is exactly zero has zero residues, and is built
    lazy = semi_symmetry_residual(flat, flat.ricci())
    assert not lazy.residues().any()
    (outcome,) = run_checks([Check("semi", ("zero", "nonzero"), lazy, rule=CLASSIFICATION)])
    assert outcome.symbolic_zero is True and outcome.details == "zero"


def test_curvature_report_is_unchanged_when_every_residue_is_zero(monkeypatch):
    # the exact build decides the semi-symmetry row; the report bytes stay the same
    from test_golden import MANIFESTS, run_to_bytes

    monkeypatch.setattr(
        Contraction, "residues", lambda self: np.zeros((self.chart.dimension,) * 3, dtype=object)
    )
    code, payload = run_to_bytes(["curvature", str(MANIFESTS / "ladder_n5.json"), "--json"])
    assert code == 0
    assert payload == (GOLDEN / "ladder_n5__curvature.json").read_bytes()


# ---------------------------------------------------------------------------
# numeric_max: float factors, or the exact build evaluated on a batch
# ---------------------------------------------------------------------------


def test_numeric_max_evaluates_each_distinct_nonzero_component_once(ex1, monkeypatch):
    # nine slots, three distinct nonzero components: one batch evaluates those
    # three at every point, and nothing is evaluated one point at a time
    chart = ex1.chart
    a, b, c = (parse(source, chart) for source in ("x + 2*exp(y)", "x*y - 1", "exp(z) - x"))
    zero = Expr.zero(chart)
    tensor = TensorField(chart, 0, 2, [a, b, zero, b, c, a, zero, a, c])
    points = [{"x": 0.1 * k, "y": -0.2 * k, "z": 0.3} for k in range(4)]
    expected = max(abs(comp.evaluate(p)) for comp in (a, b, c) for p in points)
    batched, one_point = [], []
    evaluate, batch_evaluate = Expr.evaluate, PointBatch.evaluate
    monkeypatch.setattr(Expr, "evaluate", lambda self, xs: one_point.append(self) or evaluate(self, xs))
    monkeypatch.setattr(
        PointBatch, "evaluate", lambda self, exprs: batched.append(exprs) or batch_evaluate(self, exprs)
    )
    assert residual_numeric_max(tensor, points) == _round_float(expected)
    assert [list(map(id, exprs)) for exprs in batched] == [[id(a), id(b), id(c)]]
    assert one_point == []
    # a residual with no nonzero component builds no batch
    assert residual_numeric_max(TensorField.zero(chart, 0, 2), points) == 0.0
    assert len(batched) == 1


def test_no_point_sizes_a_nonzero_residual(ex1):
    chart = ex1.chart
    vector = TensorField.vector(chart, [parse("1/x", chart), parse("y", chart), Expr.zero(chart)])
    assert residual_numeric_max(vector, []) is None
    assert residual_numeric_max(parse("1 + exp(z)", chart), []) is None
    assert residual_numeric_max(Contraction("i->i", vector), []) is None
    assert residual_numeric_max(TensorField.zero(chart, 0, 2), []) == 0.0
    # nor at points where each of its values is degenerate or NaN
    assert residual_numeric_max(parse("1/x + y", chart), [{"x": 0.0, "y": 5.0, "z": 0.0}]) is None
    nan = parse("x^300*exp(300*y) - x^300*exp(300*z)", chart)
    assert residual_numeric_max(nan, [{"x": 10.0, "y": 1.0, "z": 1.0}]) is None


def test_a_degenerate_operand_takes_numeric_max_from_the_build(ex1):
    chart = ex1.chart
    vector = TensorField.vector(chart, [parse("1/x", chart), parse("y", chart), Expr.zero(chart)])
    lazy = Contraction("i->i", vector)
    # 1/x is degenerate at the first point, where the build skips it and keeps |y| = 3
    points = [{"x": 0.0, "y": 3.0, "z": 0.0}, {"x": 0.5, "y": 1.0, "z": 0.0}]
    assert _factored_max(lazy, points) is None
    assert residual_numeric_max(lazy, points) == residual_numeric_max(vector, points) == 3.0


def test_a_nan_or_infinite_component_value(ex1):
    # a NaN value is skipped like a degenerate one; an infinite one leaves no maximum
    chart = ex1.chart
    # at the first point each term of x^300 (e^{300 y} - e^{300 z}) overflows to inf
    nan = parse("x^300*exp(300*y) - x^300*exp(300*z)", chart)
    points = [{"x": 10.0, "y": 1.0, "z": 1.0}, {"x": 0.0, "y": 0.0, "z": 0.0}]
    assert residual_numeric_max(TensorField.vector(chart, [nan, parse("y - 2", chart), nan]), points) == 2.0
    assert residual_numeric_max(parse("x^300*exp(300*y)", chart), points) is None


def test_an_overflowing_manifest_takes_numeric_max_from_the_build(tmp_path):
    # ex1 with every exp rate scaled by 600: S and R(xi, .) overflow a float at
    # the sample points with z > 0.59, while det g = 1 keeps those points
    data = json.loads(fixture_path("ex1_r3_spacelike").read_text(encoding="utf-8"))
    data["metric"][0][0], data["metric"][1][1] = "exp(1200*z)", "exp(-1200*z)"
    data["frame"][0][0], data["frame"][1][1] = "exp(-600*z)", "exp(600*z)"
    path = tmp_path / "ex1_steep.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    lazy, points = _semi_symmetry(path)
    assert lazy.residues().any()
    assert _factored_max(lazy, points) is None
    numeric_max = residual_numeric_max(lazy, points)
    assert numeric_max is not None
    assert numeric_max == residual_numeric_max(lazy.build(), points)


def test_curvature_under_python_O_matches_its_golden():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    manifest = GOLDEN / "manifests" / "ladder_n5.json"
    result = subprocess.run(
        [sys.executable, "-O", "-m", "parasol", "curvature", str(manifest), "--json"],
        capture_output=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (GOLDEN / "ladder_n5__curvature.json").read_bytes()
