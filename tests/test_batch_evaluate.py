"""Batched float evaluation: each value has the bits of ``Expr.evaluate`` at its point.

``Plan.run`` and everything built on it (``PointBatch.evaluate`` and
``evaluate_or_raise``, the oracle's stencil sampler,
``compare``, ``numeric_max``, the report's candidate points, the soliton
guard, the torse note and the oracle's Lie-dual row) must report what the
scalar path reports, down to the last bit, the sign of zero and the points
where it raises.
"""

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from conftest import ALL_MANIFESTS, fixture_path, numeric_at
from parasol.analysis import Analysis, cmd_oracle
from parasol.chart import Chart
from parasol.cli import main
from parasol.connection import WEIGHTED_TRACE
from parasol.manifest import load_manifest
from parasol.oracle import OracleConfig, StencilSampler, oracle_sample_points
from parasol.paracontact import ParacontactStructure, StructureError
from parasol.batch import _STEP_ELEMENTS, Plan, PointBatch
from parasol.symexpr import DegenerateEvaluationError, Expr, parse
from parasol.tensor import Metric, TensorField


def same_bits(a: float, b: float) -> bool:
    """Equal floats, zeros of one sign, or two NaNs."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def mismatches(field: TensorField, batch: PointBatch) -> list[str]:
    """Points where ``numeric_many`` disagrees with ``numeric_at`` in bits or in raising."""
    values, degenerate = field.numeric_many(batch)
    found = []
    for xs, row, flagged in zip(batch.points, values, degenerate.tolist()):
        try:
            expected = numeric_at(field, xs)
        except DegenerateEvaluationError:
            if not flagged:
                found.append("%r: numeric_at raises, the batch does not" % (xs,))
            continue
        if flagged:
            found.append("%r: the batch flags, numeric_at gives %r" % (xs, expected))
        elif not all(map(same_bits, row.ravel().tolist(), expected.ravel().tolist())):
            found.append("%r: batch %r, numeric_at %r" % (xs, row, expected))
    return found


def oracle_run(path: Path, monkeypatch) -> tuple[ParacontactStructure, list[PointBatch]]:
    """The structure of one oracle run, and every batch the run evaluates at.

    Those are the batches of the candidates' stencils and of the sample points.
    """
    analysis = Analysis(load_manifest(path), OracleConfig())
    batches: dict[int, PointBatch] = {}
    run = Plan.run

    def recording(self, batch):
        batches.setdefault(id(batch), batch)
        return run(self, batch)

    with monkeypatch.context() as patch:
        patch.setattr(Plan, "run", recording)
        cmd_oracle(analysis)
    return analysis.structure, list(batches.values())


def plan_mismatches(plan: Plan, exprs: list[Expr], batch: PointBatch) -> list[str]:
    """(expression, point) pairs where ``plan.run`` disagrees with ``Expr.evaluate`` in bits or in raising."""
    values, flags = plan.run(batch)
    assert values.shape == flags.shape == (len(exprs), batch.size)
    found = []
    for expr, row, row_flags in zip(exprs, values.tolist(), flags.tolist()):
        for xs, value, flagged in zip(batch.points, row, row_flags):
            try:
                expected = expr.evaluate(xs)
            except DegenerateEvaluationError:
                if not flagged:
                    found.append("%s at %r: evaluate raises, the plan does not flag" % (expr, xs))
                continue
            if flagged or not same_bits(value, expected):
                found.append("%s at %r: plan %r (flagged %s), evaluate %r" % (expr, xs, value, flagged, expected))
    return found


# on a chart's first coordinate: a denominator that vanishes, exp and x ** k that
# overflow, a power of a base that overflows
PLAN_EDGE_SOURCES = ["1/{0}", "exp(800*{0})", "{0}^200", "({0} - 1)/(1 + {0}^2)"]
PLAN_EDGE_VALUES = [0.0, 1e-12, -1e-12, 1.0000000000000002e-12, 0.95, 40.0, -40.0, 0.5, -0.0]


@pytest.mark.parametrize("path", [pytest.param(p, id=p.stem) for p in ALL_MANIFESTS])
@pytest.mark.usefixtures("float_tables_kept")
def test_batch_values_are_the_scalar_values_bit_for_bit(path, monkeypatch):
    structure, batches = oracle_run(path, monkeypatch)
    # the metric at every point the run evaluates it at; the curvature, which
    # is dearer to evaluate one point at a time, at the largest stencil
    stencil = max(batches, key=lambda batch: batch.size)
    cases = [(structure.metric.field, batches)] + [
        (field, [stencil])
        for field in (structure.connection(), structure.riemann(), structure.ricci(WEIGHTED_TRACE))
    ]
    found = [
        problem for field, where in cases for batch in where for problem in mismatches(field, batch)
    ]
    # one plan run on batches of many sizes: the metric, expressions that
    # overflow or meet DENOMINATOR_CUTOFF (|1/x| at x = 1e-12), scaled copies
    # of them and their negations (which share their terms), more than
    # _STEP_ELEMENTS terms times points on every batch but the empty one
    chart = structure.chart
    edge = [parse(source.format(chart.coordinates[0]), chart) for source in PLAN_EDGE_SOURCES]
    edge[3] = edge[3] ** 120
    scaled = [e * k for k in range(-30, 31) for e in edge]
    exprs = structure.metric.field._comps + scaled + [-e for e in scaled]
    plan = Plan(exprs)
    centre = stencil.points[0]
    points = [[x] + centre[1:] for x in PLAN_EDGE_VALUES]
    assert sum(len(e._num) for e in plan.kept) * len(points) > _STEP_ELEMENTS
    for batch in (PointBatch(chart, []), PointBatch(chart, points), stencil, PointBatch(chart, points[:1])):
        found += plan_mismatches(plan, exprs, batch)
    assert found == []


CHART = Chart.make(["x", "y", "z"])
EDGE_POINTS = [
    [x, y, z]
    for x in (0.0, -0.0, 1e-13, 0.25, -1e3, 1e10)
    for y in (0.0, 1.0, -3.0)
    for z in (-0.9, 0.0, 0.9, 1.0)
]


# (source, power, whether evaluate raises somewhere); the parser expands powers,
# while ** keeps the denominator as a power B^e of its base
EDGE_CASES = [
    ("1/x", 1, True),  # the denominator vanishes
    ("y/(x^2 - y)", 3, True),  # ... through the power of its base
    ("1/(1 + x^2)", 20, True),  # the power of the base overflows
    ("1/(1 + exp(800*z))", 1, True),  # the base overflows
    ("x^200", 1, True),  # x ** k overflows
    ("y/x^200", 1, True),  # ... in the denominator
    ("exp(800*z) - exp(-800*z)", 1, True),  # exp overflows
    ("exp(400*z)/x + x*y^3*exp(x - 2*y)", 1, True),
    ("(x - y)/(1 + x^2*y^2)", 4, False),
    ("-x", 1, False),  # -0.0 at x = 0 comes out as 0.0: the scalar sum starts from 0.0
    ("-x - 2*y", 1, False),  # ... also where one accumulate adds the terms -0.0 + -0.0
    ("x/(y - 2)", 1, False),  # 0.0 over a negative denominator is -0.0
    ("x^3*y^2*z - 2*x*y*z^2/7 + 5", 1, False),
    ("0", 1, False),
    ("10^400*x^2 + 1", 1, True),  # a coefficient that overflows a float: flagged at every point
]
EDGE_EXPRS = [parse(source, CHART) ** power for source, power, _ in EDGE_CASES]


@pytest.mark.parametrize("expr, degenerates", [(e, case[2]) for e, case in zip(EDGE_EXPRS, EDGE_CASES)])
def test_batch_flags_the_points_where_evaluate_raises(expr, degenerates):
    (values,), (flags,) = PointBatch(CHART, EDGE_POINTS).evaluate([expr])
    for xs, value, flagged in zip(EDGE_POINTS, values.tolist(), flags.tolist()):
        try:
            expected = expr.evaluate(xs)
        except DegenerateEvaluationError:
            assert flagged, xs
            continue
        assert not flagged and same_bits(value, expected), (xs, value, expected)
    assert flags.any() == degenerates


def test_powers_and_exponentials_round_like_the_one_point_path():
    # numpy's vectorised power and exp differ from libm in the last bit on a
    # few percent of such inputs; 400 points meet many of them
    rng = random.Random(7)
    points = [[rng.uniform(-2.0, 2.0) for _ in range(3)] for _ in range(400)]
    expr = parse("(x - y)/(3 + x*y^2)", CHART) ** 5 + parse("exp(x/3 - y)*x^7*z^3", CHART)
    (values,), (flags,) = PointBatch(CHART, points).evaluate([expr])
    assert not flags.any()
    assert values.tolist() == [expr.evaluate(xs) for xs in points]


def test_expressions_batched_together_keep_their_own_bits():
    values, flags = PointBatch(CHART, EDGE_POINTS).evaluate(EDGE_EXPRS)
    for expr, row, row_flags in zip(EDGE_EXPRS, values, flags):
        (alone,), (alone_flags,) = PointBatch(CHART, EDGE_POINTS).evaluate([expr])
        assert (row_flags == alone_flags).all()
        assert row[~row_flags].tobytes() == alone[~alone_flags].tobytes()


# ---------------------------------------------------------------------------
# a degenerate stencil rejects its point, and the sound points keep their bits
# ---------------------------------------------------------------------------


def _rejected_beside_a_sound_point(metric, h, rejected, sound):
    """Judge the points, rejected first, and check the sound one against a judge of it alone."""
    sampler = StencilSampler(metric, h)
    flags, references = sampler.judge(rejected + [sound])
    assert flags == [False] * len(rejected) + [True]
    alone = sampler.judge([sound])[1]
    for name, (value,) in references.items():
        assert value.tobytes() == alone[name][0].tobytes(), name


def test_stencil_crossing_t_1_rejects_its_point(structures):
    g2 = structures["ex5d_r5_g2"].metric  # det = 1 + y^2 - t^2
    # at t = 0.9999 and 1.0001 the Christoffel stencil at h = 1e-3 crosses t = 1,
    # at t = 1 the centre has det 0; at t = 0.99 every visit stays below
    at = [{"x": 0.0, "y": 0.0, "z": 0.0, "t": t, "s": 0.0} for t in (0.9999, 1.0001, 1.0, 0.99)]
    _rejected_beside_a_sound_point(g2, 1e-3, at[:3], at[3])


def test_degenerate_metric_entries_reject_their_point():
    entries = ["1 + 1/x", "0", "0", "0", "1", "0", "0", "0", "exp(800*z)"]
    metric = Metric(TensorField(CHART, 0, 2, [parse(e, CHART) for e in entries]))
    # x - h is 0.0 on the first two; exp(800*z) overflows at z = 0.9 and 0.95
    rejected = [[1e-4, 0.1, 0.0], [1e-4, 0.1, 0.8], [1e-4, 0.1, 0.9], [0.3, 0.1, 0.95]]
    _rejected_beside_a_sound_point(metric, 1e-4, rejected, [0.3, 0.1, 0.5])


def test_an_overflowing_coefficient_raises_its_one_point_error(tmp_path):
    exprs = [parse("x", CHART), parse("10^400*x^2 + 1", CHART)]
    with pytest.raises(DegenerateEvaluationError) as error:
        PointBatch(CHART, [[0.5, 0.0, 0.0]]).evaluate_or_raise(exprs)
    assert str(error.value) == "value overflows a float at [0.5, 0.0, 0.0]"
    # no sample point survives; the run reports it, with no traceback
    data = json.loads(fixture_path("flat_r3").read_text())
    data["metric"][0][0] = "10^400*x^2 + 1"
    path = tmp_path / "huge_coefficient.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["oracle", str(path), "--json"])
    (row,) = json.loads(out.getvalue())["checks"]
    assert (code, err.getvalue()) == (1, "")
    assert (row["id"], row["status"], row["details"]) == (
        "oracle_christoffel", "fail", "no nondegenerate sample points found in the domain box"
    )


def test_candidates_whose_probes_overflow_are_rejected():
    box = [(-1, 1), (-1, 1), ("4/5", 1)]
    chart = Chart.make(["x", "y", "z"], base_point=[0, 0, "9/10"], domain_box=box)
    entries = ["1 + 1/x", "0", "0", "0", "1", "0", "0", "0", "exp(800*z)"]
    metric = Metric(TensorField(chart, 0, 2, [parse(e, chart) for e in entries]))
    # exp(800*z) overflows above z = 0.887: 20 of the first 30 candidates visit it
    points, _ = oracle_sample_points(StencilSampler(metric, 1e-3), 3)
    assert [round(point["z"], 4) for point in points] == [
        0.874, 0.8131, 0.8519, 0.879, 0.8272, 0.8127, 0.8177, 0.8302, 0.809, 0.8816
    ]


def _oracle_rows(path: Path) -> tuple[int, list[tuple[str, str, str]]]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["oracle", str(path), "--json"])
    return code, [(c["id"], c["status"], c["details"]) for c in json.loads(out.getvalue())["checks"]]


def test_oracle_verdicts_on_an_overflowing_and_a_crossing_manifest(tmp_path):
    data = json.loads(fixture_path("ex1_r3_spacelike").read_text(encoding="utf-8"))
    data["metric"][0][0], data["metric"][1][1] = "exp(800*z)", "exp(-800*z)"
    data["frame"][0][0], data["frame"][1][1] = "exp(-400*z)", "exp(400*z)"
    steep = tmp_path / "ex1_exp800.json"
    steep.write_text(json.dumps(data), encoding="utf-8")
    over = "over 10 points (tolerance 1.0e-06, h = 1.0e-04)"
    assert _oracle_rows(steep) == (1, [
        ("oracle_christoffel", "fail", "max relative deviation 1.066e-03 " + over),
        ("oracle_riemann", "fail", "max relative deviation 2.131e-03 " + over),
        ("oracle_ricci", "fail", "max relative deviation 1.000e+00 " + over),
        ("oracle_h_scaling", "pass", "halving h changed the Christoffel deviation by a factor "
         "3.998 (expected in [3, 5] for a central O(h^2) scheme)"),
        ("oracle_lie_dual", "pass", "coordinate vs connection Lie derivative deviate by "
         "0.000e+00 numerically"),
    ])
    # ex5d_r5_g2 with t in [-1/2, 3/2]: candidates whose stencil crosses t = 1 are rejected
    data = json.loads(fixture_path("ex5d_r5_g2").read_text(encoding="utf-8"))
    data["domain_box"][3] = ["-1/2", "3/2"]
    wide = tmp_path / "ex5d_g2_wide.json"
    wide.write_text(json.dumps(data), encoding="utf-8")
    assert _oracle_rows(wide) == (1, [
        ("oracle_christoffel", "pass", "max relative deviation 1.106e-13 " + over),
        ("oracle_riemann", "fail", "max relative deviation 1.409e-05 " + over),
        ("oracle_ricci", "fail", "max relative deviation 3.089e-06 " + over),
        ("oracle_h_scaling", "inapplicable", "deviation 1.106e-13 is already at the roundoff "
         "floor; O(h^2) ratio is not informative"),
        ("oracle_lie_dual", "pass", "coordinate vs connection Lie derivative deviate by "
         "0.000e+00 numerically"),
    ])


def test_oracle_evaluates_no_metric_entry_one_point_at_a_time(manifests, monkeypatch):
    analysis = Analysis(manifests["ex5d_r5_g1"], OracleConfig())
    metric = analysis.structure.metric
    n = metric.chart.dimension
    entries = {id(metric[i, j]) for i in range(n) for j in range(n)}
    calls = []
    evaluate = Expr.evaluate

    def counting_evaluate(self, point):
        calls.append(id(self) in entries)
        return evaluate(self, point)

    monkeypatch.setattr(Expr, "evaluate", counting_evaluate)
    assert len(cmd_oracle(analysis).checks) == 5
    # nor any other expression: the report's points come from a plan as well
    assert calls == []
    metric[0, 0].evaluate([0.0] * n)
    assert calls == [True]  # the count sees a one-point call


def test_a_batch_of_no_points_evaluates_to_empty_rows(ex1):
    # every kind of denominator: none, a monomial, a base
    exprs = [parse(source, ex1.chart) for source in ("exp(z) - y", "1/x", "x/(1 + exp(y))")]
    values, degenerate = PointBatch(ex1.chart, []).evaluate(exprs)
    assert values.shape == degenerate.shape == (3, 0)


def test_an_unknown_ricci_mode_is_a_structure_error(flat):
    with pytest.raises(StructureError, match="ricci_mode must be one of .*, got 'frame'"):
        ParacontactStructure(flat.phi, flat.xi, flat.eta, flat.metric, ricci_mode="frame")


def test_report_points_are_judged_as_one_det_evaluate_at_a_time_would(tmp_path):
    # x^2 exp(1600 z): |det g| is below the cutoff for most z < 0, and
    # overflows a float above z = 0.444
    data = json.loads(fixture_path("flat_r3").read_text(encoding="utf-8"))
    data["metric"][0][0] = "x^2*exp(1600*z)"
    del data["frame"], data["alpha"]
    path = tmp_path / "overflowing_det.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    manifest = load_manifest(path)
    det = manifest.structure().metric.determinant
    reasons = []

    def one_at_a_time(candidates):
        drops = []
        for point in candidates:
            try:
                small = abs(det.evaluate(point)) < 1e-6
                reasons.append("cutoff" if small else "kept")
            except DegenerateEvaluationError:
                small = True
                reasons.append("overflow")
            drops.append(small)
        return drops

    for seed in (1, 42):
        reasons.clear()
        expected = manifest.chart.sample_points(10, seed, reject=one_at_a_time)
        assert {"cutoff", "overflow", "kept"} <= set(reasons)
        assert Analysis(manifest, OracleConfig(seed=seed)).sample_points() == expected


def test_an_overflowing_lie_dual_value_raises_the_one_point_error():
    # exp(800 z) xi: L_V g overflows a float where z > 0.887, which seed 1 draws
    path = fixture_path("ex1_r3_spacelike")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["oracle", str(path), "--potential", "exp(800*z)*xi", "--seed", "1"])
    manifest = load_manifest(path, overrides={"potential": "exp(800*z)*xi"})
    structure = manifest.structure()
    fields = structure.lie_derivative_two_ways(manifest.potential.vector(structure))
    expected = None
    for point in oracle_sample_points(StencilSampler(structure.metric, 1e-4), 1)[0]:
        try:
            for field in fields:
                numeric_at(field, point)
        except DegenerateEvaluationError as exc:
            expected = str(exc)
            break
    assert expected is not None and expected.startswith("value overflows a float at ")
    assert (code, out.getvalue(), err.getvalue()) == (2, "", "error: %s\n" % expected)
