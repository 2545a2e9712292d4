"""Finite-difference oracle: values, tolerances, O(h^2) scaling, fault injection."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from conftest import ALL_MANIFESTS, FIXTURE_NAMES, fixture_path, numeric_at
from parasol.analysis import Analysis, cmd_oracle
from parasol.chart import SAMPLE_COUNT, Chart
from parasol.cli import main
from parasol.connection import WEIGHTED_TRACE, lie_derivative_two_ways
from parasol.manifest import load_manifest
from parasol.oracle import (
    DEGENERACY_CUTOFF,
    GROUP_VISITS,
    REFERENCES,
    OracleConfig,
    OracleConfigError,
    StencilSampler,
    compare,
    oracle_sample_points,
)
from parasol.batch import Plan, PointBatch
from parasol.symexpr import DegenerateEvaluationError, Expr, parse
from parasol.tensor import TensorField

CFG = OracleConfig()


def _reference(metric, name, point):
    """One reference's value at one sound point."""
    sound, references = StencilSampler(metric, CFG.h).judge([point])
    assert sound == [True]
    return references[name][0]


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(h=0.0)


@pytest.mark.parametrize(
    "flag, value",
    [("--h", "0"), ("--h", "-1"), ("--h", "nan"), ("--h", "inf"),
     # the +-2h stencil spans 4h, against a domain box 2 wide in each coordinate
     ("--h", "1"), ("--h", "1e308"),
     ("--tolerance", "0"), ("--tolerance", "nan")],
)
def test_invalid_step_or_tolerance_is_an_input_error(flag, value):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["oracle", "fixtures/flat_r3", flag, value])
    assert code == 2
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_step_must_fit_the_domain_box(flat):
    # the box is 2 wide: 4h = 2 does not fit, 4h = 1.6 does
    with pytest.raises(OracleConfigError, match=r"h = 0\.5 .* narrowest interval width 2$"):
        oracle_sample_points(StencilSampler(flat.metric, 0.5), CFG.seed)
    points, _ = oracle_sample_points(StencilSampler(flat.metric, 0.4), CFG.seed)
    assert len(points) == SAMPLE_COUNT


def test_report_all_rejects_the_step_before_any_command(monkeypatch):
    import parasol.analysis as analysis

    ran = []
    for name in analysis.COMMANDS:
        if name != "report":
            monkeypatch.setitem(
                analysis.COMMANDS, name, lambda a, name=name: ran.append(name) or a.report
            )
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["report", "--all", "fixtures/ex1_r3_spacelike", "--h", "1"])
    assert code == 2 and ran == [] and out.getvalue() == ""
    assert err.getvalue() == (
        "error: step h = 1 does not fit the domain box: the +-2h stencil needs 4h below "
        "its narrowest interval width 2\n"
    )
    # with a step that fits, the same stubs all run
    with redirect_stdout(io.StringIO()):
        assert main(["report", "--all", "fixtures/ex1_r3_spacelike", "--h", "0.4"]) == 0
    assert len(ran) == 10


def test_fd_christoffel_value_on_ex1(ex1):
    # Gamma^z_xx = -e^{2z}: at z = 0.3 the value is -e^{0.6}
    gamma = _reference(ex1.metric, "christoffel", {"x": 0.0, "y": 0.0, "z": 0.3})
    expected = -math.exp(0.6)
    assert abs(gamma[2, 0, 0] - expected) <= 1e-6 * abs(expected)


def test_fd_christoffel_flat_is_zero(flat):
    gamma = _reference(flat.metric, "christoffel", {"x": 0.1, "y": -0.2, "z": 0.4})
    assert np.max(np.abs(gamma)) <= 1e-10


def test_fd_christoffel_value_on_ex2(ex2):
    # Gamma^x_xz = -1 for the timelike example
    gamma = _reference(ex2.metric, "christoffel", {"x": 0.0, "y": 0.0, "z": 0.0})
    assert abs(gamma[0, 0, 2] - (-1.0)) <= 1e-6


def test_fd_riemann_frame_value_on_ex1(ex1):
    # component of R(E1, E2)E2 along E1 at the origin is 1
    riem = _reference(ex1.metric, "riemann", {"x": 0.0, "y": 0.0, "z": 0.0})
    frame = np.array([numeric_at(vec, {"x": 0.0, "y": 0.0, "z": 0.0}) for vec in ex1.frame])
    g = numeric_at(ex1.metric.field, {"x": 0.0, "y": 0.0, "z": 0.0})
    vector = np.einsum("lijk,i,j,k->l", riem, frame[0], frame[1], frame[1])
    along_e1 = vector @ g @ frame[0]  # g(R(E1,E2)E2, E1), e1 is unit spacelike
    assert abs(along_e1 - 1.0) <= 1e-5


def test_fd_riemann_flat_is_zero(flat):
    riem = _reference(flat.metric, "riemann", {"x": 0.0, "y": 0.0, "z": 0.0})
    assert np.max(np.abs(riem)) <= 1e-8


def test_fd_ricci_diag_on_ex2(ex2):
    # weighted-trace Ricci has frame diagonal (0, 0, -2) on the timelike example
    point = {"x": 0.0, "y": 0.0, "z": 0.0}
    ricci = _reference(ex2.metric, "ricci", point)
    frame = np.array([numeric_at(vec, point) for vec in ex2.frame])
    diag = [frame[i] @ ricci @ frame[i] for i in range(3)]
    assert abs(diag[0]) <= 1e-5 and abs(diag[1]) <= 1e-5
    assert abs(diag[2] - (-2.0)) <= 1e-5


def test_compare_passes_on_fixture_geometry(ex1):
    points, references = oracle_sample_points(StencilSampler(ex1.metric, CFG.h), CFG.seed)
    assert len(points) == SAMPLE_COUNT
    assert compare(ex1.connection(), references["christoffel"], points) <= CFG.tolerance
    assert compare(ex1.riemann(), references["riemann"], points) <= CFG.tolerance
    assert compare(ex1.ricci(WEIGHTED_TRACE), references["ricci"], points) <= CFG.tolerance


def test_compare_detects_injected_fault(ex1):
    points, references = oracle_sample_points(StencilSampler(ex1.metric, CFG.h), CFG.seed)
    gamma = ex1.connection()
    perturbed = TensorField.build(
        ex1.chart,
        1,
        2,
        lambda idx: gamma[idx] + Expr.constant(ex1.chart, "1/1000")
        if idx == (2, 0, 0)
        else gamma[idx],
    )
    deviation = compare(perturbed, references["christoffel"], points)
    assert not deviation <= CFG.tolerance
    assert deviation >= 1e-4


def test_compare_fails_on_nan_deviation(ex1):
    # Python's max drops a NaN that is not first; one NaN point must still fail
    points, references = oracle_sample_points(StencilSampler(ex1.metric, CFG.h), CFG.seed)
    references = references["christoffel"]
    references[1] = np.full_like(references[1], math.nan)
    deviation = compare(ex1.connection(), references, points)
    assert math.isnan(deviation)
    assert not deviation <= CFG.tolerance


def test_compare_shape_mismatch(ex1):
    points, references = oracle_sample_points(StencilSampler(ex1.metric, CFG.h), CFG.seed)
    with pytest.raises(ValueError, match="shape"):
        compare(ex1.xi, references["christoffel"], points)


def _poles_on_axes(chart: Chart) -> TensorField:
    """The vector field (1, 1/x, 1/y): flagged at the second point of ``POLE_POINTS``."""
    return TensorField.vector(chart, [parse(e, chart) for e in ("1", "1/x", "1/y")])


POLE_POINTS = [{"x": 0.5, "y": 0.5, "z": 0.1}, {"x": 0.0, "y": 0.0, "z": 0.3}]


def test_compare_raises_a_flagged_component_after_its_reference(flat):
    # both 1/x and 1/y vanish at the second point, whose reference is read first;
    # the first in component order raises
    with pytest.raises(DegenerateEvaluationError) as error:
        compare(_poles_on_axes(flat.chart), [np.zeros(3)] * 2, POLE_POINTS)
    assert str(error.value) == "denominator 'x' vanishes at [0.0, 0.0, 0.3] (|value| = 0)"


def test_compare_rejects_references_not_aligned_with_the_points(flat):
    # the first point is not flagged, so only the missing reference of the second can raise
    with pytest.raises(ValueError, match="zip"):
        compare(_poles_on_axes(flat.chart), [np.zeros(3)], POLE_POINTS)


def test_halving_h_improves_by_factor_near_four(ex1):
    # central differences are O(h^2): the deviation ratio must land in [3, 5]
    points, references = oracle_sample_points(StencilSampler(ex1.metric, CFG.h), CFG.seed)
    gamma = ex1.connection()
    coarse = compare(gamma, references["christoffel"], points)
    fine = compare(gamma, references["christoffel_half_step"], points)
    ratio = coarse / fine
    assert 3.0 <= ratio <= 5.0


def test_stencil_rejects_degeneracy_crossing(structures):
    g2 = structures["ex5d_r5_g2"].metric
    # det = 1 + y^2 - t^2 vanishes at t = 1, y = 0
    point = {"x": 0.0, "y": 0.0, "z": 0.0, "t": 1.0, "s": 0.0}
    sound, references = StencilSampler(g2, CFG.h).judge([point])
    assert sound == [False]
    assert references == {name: [] for name in REFERENCES}


def test_a_neighbours_stencil_that_changes_sign_rejects_the_point(structures):
    # det g = 1 + y^2 - t^2; the point sits 1.5h above t = 1.  Its Christoffel
    # stencil stays above; the stencil of its neighbour at t - h reaches below,
    # to a point whose det 9.997e-04 is above the cutoff but has the other
    # sign than that stencil's own centre
    g2 = structures["ex5d_r5_g2"]
    h = 1e-3
    point = {"x": 0.0, "y": 0.0, "z": 0.0, "t": 1.0 + 1.5 * h, "s": 0.0}
    below = {"x": 0.0, "y": 0.0, "z": 0.0, "t": 1.0 - 0.5 * h, "s": 0.0}
    assert [g2.metric.determinant.evaluate(p) for p in (point, below)] == [
        pytest.approx(-3.0e-3, rel=1e-3), pytest.approx(9.997e-4, rel=1e-4)
    ]
    assert StencilSampler(g2.metric, h).judge([point])[0] == [False]


def test_a_failed_riemann_stencil_rejects_its_point_alone(structures):
    # the last point sits 1.5h below t = 1, where det g = 1 + y^2 - t^2 changes
    # sign: its Christoffel stencil at h stays below, but the stencil of its
    # neighbour at t + h reaches t + 2h, above.  At n = 5 a group holds two
    # points: the last point is in the second group, with the third
    g2 = structures["ex5d_r5_g2"]
    chart = g2.chart
    h = 1e-3
    points = [
        {"x": 0.1, "y": 0.2, "z": -0.3, "t": 0.4, "s": 0.5},
        {"x": 0.0, "y": 0.1, "z": 0.2, "t": 0.3, "s": -0.1},
        {"x": -0.2, "y": 0.3, "z": 0.1, "t": -0.4, "s": 0.2},
        {"x": 0.0, "y": 0.0, "z": 0.0, "t": 1.0 - 1.5 * h, "s": 0.0},
    ]
    sampler = StencilSampler(g2.metric, h)
    sound, references = sampler.judge(points)
    assert sound == [True, True, True, False]
    kept = points[:3]
    for name, symbolic in (
        ("christoffel", g2.connection()),
        ("christoffel_half_step", g2.connection()),
        ("riemann", g2.riemann()),
        ("ricci", g2.ricci(WEIGHTED_TRACE)),
    ):
        # at h = 1e-3 the truncation error of the Riemann tensor is near 1e-6
        assert len(references[name]) == len(kept)
        assert compare(symbolic, references[name], kept) <= 1e-5
    # grouped anew, the rejected point now beside the first: the kept points' references
    # have the same bits
    sound, regrouped = sampler.judge([points[0], points[3], points[1], points[2]])
    assert sound == [True, False, True, True]
    for name in REFERENCES:
        assert all(map(_same_bits, regrouped[name], references[name])), name

    # a Riemann-shaped tensor flagged where x = 0 raises at the second kept point
    comps = [Expr.zero(chart)] * chart.dimension**4
    comps[1] = parse("1/x", chart)
    poles = TensorField(chart, 1, 3, comps)
    with pytest.raises(DegenerateEvaluationError) as error:
        compare(poles, references["riemann"], kept)
    assert str(error.value) == "denominator 'x' vanishes at [0.0, 0.1, 0.2, 0.3, -0.1] (|value| = 0)"


def test_a_candidate_whose_inner_visit_degenerates_is_rejected(tmp_path, monkeypatch):
    # g_xx = (x - 1/2)^2 + (y - 1/2)^2 vanishes on x = y = 1/2.  From the candidate
    # (1/2 - h, 1/2 - h, 0) the diagonal visit (x + h, y + h) of its Riemann
    # stencil reaches it; the candidate and its steps of +-2h along each axis do not
    h = 1e-3
    data = json.loads(fixture_path("flat_r3").read_text(encoding="utf-8"))
    data["metric"][0][0] = "(x - 1/2)^2 + (y - 1/2)^2"
    path = tmp_path / "flat_pinched.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    candidate = {"x": 0.5 - h, "y": 0.5 - h, "z": 0.0}
    rows = []
    for first in ([], [candidate]):
        analysis = Analysis(load_manifest(path), OracleConfig(h=h))
        analysis.sample_points()  # the numeric_max points are not oracle work
        metric = analysis.structure.metric
        if first:
            steps = [dict(candidate)] + [
                dict(candidate, **{c: candidate[c] + s * h}) for c in "xyz" for s in (2, -2)
            ]
            assert min(abs(metric.determinant.evaluate(p)) for p in steps) >= DEGENERACY_CUTOFF
            assert metric.determinant.evaluate({"x": 0.5, "y": 0.5, "z": 0.0}) == 0.0
            assert StencilSampler(metric, h).judge([candidate])[0] == [False]
        sample_points = Chart.sample_points

        def drawn_first(self, count, seed, reject=None, first=first):
            assert reject(first) == [True] * len(first)
            return sample_points(self, count, seed, reject)

        monkeypatch.setattr(Chart, "sample_points", drawn_first)
        rows.append([(c.id, c.status, c.details) for c in cmd_oracle(analysis).checks])
        monkeypatch.undo()
    # rejected first, the candidate leaves the run's rows as they are without it:
    # each compares a deviation (at h = 1e-3 the Riemann truncation error fails it)
    assert rows[0] == rows[1]
    assert [(check_id, details.split(" over ")[0]) for check_id, _, details in rows[1][:3]] == [
        ("oracle_christoffel", "max relative deviation 1.354e-13"),
        ("oracle_riemann", "max relative deviation 2.621e-06"),
        ("oracle_ricci", "max relative deviation 2.621e-06"),
    ]


def test_stencil_sampler_builds_each_metric_float_table_once(monkeypatch):
    # every fill runs the sampler's one plan of the metric entries, so their
    # float tables are built at the first fill and never again in the run
    metric = load_manifest(fixture_path("ex5d_r5_g1")).metric  # no table built yet
    entries = {id(comp) for comp in metric.field._comps if not comp.is_symbolically_zero}
    built = []
    float_tables = Expr._float_tables
    monkeypatch.setattr(
        Expr, "_float_tables", lambda self: built.append(id(self)) or float_tables(self)
    )
    sampler = StencilSampler(metric, CFG.h)
    sampler.judge([[0.1, 0.2, 0.1, 0.3, -0.2]])
    assert sorted(built) == sorted(entries)
    sampler.judge([[0.3, 0.1, -0.2, 0.1, 0.2]])
    assert len(built) == len(entries)


def _one_stencil_christoffel(metric, xs, h):
    """Christoffel symbols on one stencil: one-point metric values, one inv, three einsums."""
    n = len(xs)
    ginv = np.linalg.inv(numeric_at(metric.field, xs))
    dg = np.empty((n, n, n))
    for i in range(n):
        plus, minus = list(xs), list(xs)
        plus[i] += h
        minus[i] -= h
        dg[i] = (numeric_at(metric.field, plus) - numeric_at(metric.field, minus)) / (2.0 * h)
    return 0.5 * (
        np.einsum("kl,ijl->kij", ginv, dg)
        + np.einsum("kl,jil->kij", ginv, dg)
        - np.einsum("kl,lij->kij", ginv, dg)
    )


def _one_stencil_riemann(metric, xs, h):
    """The Riemann tensor from the one-stencil Christoffel symbols of xs and its neighbours."""
    n = len(xs)
    gamma = _one_stencil_christoffel(metric, xs, h)
    dgamma = np.empty((n, n, n, n))
    for i in range(n):
        plus, minus = list(xs), list(xs)
        plus[i] += h
        minus[i] -= h
        dgamma[i] = (
            _one_stencil_christoffel(metric, plus, h) - _one_stencil_christoffel(metric, minus, h)
        ) / (2.0 * h)
    riem = np.einsum("iljk->lijk", dgamma) - np.einsum("jlik->lijk", dgamma)
    riem += np.einsum("lim,mjk->lijk", gamma, gamma)
    riem -= np.einsum("ljm,mik->lijk", gamma, gamma)
    return riem


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes, and equal floats with zeros of one sign."""
    return a.shape == b.shape and all(
        x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
        for x, y in zip(a.ravel().tolist(), b.ravel().tolist())
    )


@pytest.mark.parametrize("path", [pytest.param(p, id=p.stem) for p in ALL_MANIFESTS])
def test_stacked_references_have_the_bits_of_one_stencil_at_a_time(path):
    # the sample points are grouped: at n = 3 a group holds six points, at n = 5 two,
    # and two seeds put different points at every position of a group
    metric = load_manifest(path).metric
    for seed in (42, 1):
        points, references = oracle_sample_points(StencilSampler(metric, CFG.h), seed)
        assert sorted(references) == ["christoffel", "christoffel_half_step", "ricci", "riemann"]
        for name, values in references.items():
            assert len(values) == len(points), name
        for p, point in enumerate(points):
            xs = [point[c] for c in metric.chart.coordinates]
            riem = _one_stencil_riemann(metric, xs, CFG.h)
            gamma = _one_stencil_christoffel(metric, xs, CFG.h)
            assert _same_bits(references["christoffel"][p], gamma)
            assert _same_bits(
                references["christoffel_half_step"][p],
                _one_stencil_christoffel(metric, xs, CFG.h / 2.0),
            )
            assert _same_bits(references["riemann"][p], riem)
            assert _same_bits(references["ricci"][p], np.einsum("iijk->jk", riem))


def _metric_plan_runs(analysis: Analysis, monkeypatch) -> tuple[list[Plan], list[PointBatch]]:
    """Every plan that holds a metric entry, and every batch one of them runs on, from now on."""
    entries = {id(comp) for comp in analysis.structure.metric.field._comps}
    plans, batches = [], []
    plan_init, plan_run = Plan.__init__, Plan.run

    def recording_init(self, exprs):
        plan_init(self, exprs)
        if any(id(expr) in entries for expr in exprs):
            plans.append(self)

    def recording_run(self, batch):
        if any(self is plan for plan in plans):
            batches.append(batch)
        return plan_run(self, batch)

    monkeypatch.setattr(Plan, "__init__", recording_init)
    monkeypatch.setattr(Plan, "run", recording_run)
    return plans, batches


def test_oracle_fills_the_metric_once_per_round_and_per_group(manifests, monkeypatch):
    analysis = Analysis(manifests["ex5d_r5_g1"], OracleConfig())
    analysis.sample_points()  # the numeric_max points are not oracle work
    plans, batches = _metric_plan_runs(analysis, monkeypatch)
    rounds = []
    sample_points = Chart.sample_points

    def counting_sample_points(self, count, seed, reject=None):
        return sample_points(self, count, seed, lambda ps: rounds.append(ps) or reject(ps))

    monkeypatch.setattr(Chart, "sample_points", counting_sample_points)
    assert len(cmd_oracle(analysis).checks) == 5
    # one plan of the metric per run, and one batch per group of each round's
    # candidates, of every point their references visit
    n = analysis.structure.chart.dimension
    visits = 2 * n * n + 6 * n + 1
    per_group = GROUP_VISITS // visits
    assert per_group == 2
    assert len(plans) == 1
    assert [batch.size for batch in batches] == [
        visits * min(per_group, len(candidates) - start)
        for candidates in rounds
        for start in range(0, len(candidates), per_group)
    ]
    assert len(batches) == math.ceil(SAMPLE_COUNT / per_group)


@pytest.mark.parametrize("name", ["ex1_r3_spacelike", "ex5d_r5_g1"])
def test_oracle_evaluates_the_christoffel_symbols_once(name, manifests, monkeypatch):
    # the comparisons at h and at h/2 share one evaluation of the symbols
    analysis = Analysis(manifests[name], OracleConfig())
    gamma = analysis.structure.connection()
    evaluated = []
    numeric_many = TensorField.numeric_many

    def recording(self, batch):
        evaluated.append(self)
        return numeric_many(self, batch)

    monkeypatch.setattr(TensorField, "numeric_many", recording)
    checks = cmd_oracle(analysis).checks
    assert [check.id for check in checks][:4] == [
        "oracle_christoffel", "oracle_riemann", "oracle_ricci", "oracle_h_scaling"
    ]
    assert sum(tensor is gamma for tensor in evaluated) == 1


def test_sample_points_avoid_degeneracy_locus(structures):
    g2 = structures["ex5d_r5_g2"].metric
    chart = structures["ex5d_r5_g2"].chart
    points, _ = oracle_sample_points(StencilSampler(g2, CFG.h), CFG.seed)
    assert points
    for point in points:
        det = g2.determinant.evaluate(point)
        assert abs(det) >= 1e-6


def test_lie_derivative_dual_numeric_agreement(ex1):
    points, _ = oracle_sample_points(StencilSampler(ex1.metric, CFG.h), CFG.seed)
    via_coordinates, via_connection = lie_derivative_two_ways(
        ex1.metric, ex1.xi, ex1.nabla_xi()
    )
    for point in points:
        deviation = np.abs(
            numeric_at(via_coordinates, point) - numeric_at(via_connection, point)
        )
        assert np.max(deviation) <= CFG.tolerance


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_oracle_command_matches_report_all_golden(name):
    out = io.StringIO()
    with redirect_stdout(out):
        main(["oracle", "fixtures/" + name, "--json"])
    golden_path = Path(__file__).resolve().parent / "golden" / (name + "__report_all.json")
    golden = json.loads(golden_path.read_text())
    expected = [check for check in golden["checks"] if check["id"].startswith("oracle_")]
    assert json.loads(out.getvalue())["checks"] == expected


def test_oracle_evaluates_each_stencil_point_once(manifests, monkeypatch):
    analysis = Analysis(manifests["ex5d_r5_g1"], OracleConfig())
    analysis.sample_points()  # the numeric_max points are not oracle work
    metric = analysis.structure.metric
    n = metric.chart.dimension
    entries = {id(metric[i, j]) for i in range(n) for j in range(n)}
    plans, batches = _metric_plan_runs(analysis, monkeypatch)
    counts = {"metric": 0, "candidates": 0}
    evaluate = Expr.evaluate
    sample_points = Chart.sample_points

    def counting_evaluate(self, point, *args, **kwargs):
        counts["metric"] += id(self) in entries
        return evaluate(self, point, *args, **kwargs)

    def counting_sample_points(self, count, seed, reject=None):
        def counted(candidates):
            counts["candidates"] += len(candidates)
            return reject(candidates)

        return sample_points(self, count, seed, counted)

    monkeypatch.setattr(Expr, "evaluate", counting_evaluate)
    monkeypatch.setattr(Chart, "sample_points", counting_sample_points)
    report = cmd_oracle(analysis)
    assert [entry.id for entry in report.checks] == [
        "oracle_christoffel",
        "oracle_riemann",
        "oracle_ricci",
        "oracle_h_scaling",
        "oracle_lie_dual",
    ]
    # distinct points per candidate: the Riemann stencil at h (centre, 2n
    # axis neighbours, 2n(n - 1) diagonals, 2n double steps, and 2n returns
    # x + h - h that may round away from the centre) and 2n neighbours at h/2
    stencil_points = 1 + 2 * n + 2 * n * (n - 1) + 2 * n + 2 * n + 2 * n
    counts["metric"] += sum(batch.size for batch in batches) * len(plans[0].kept)
    assert counts["metric"] <= n * n * counts["candidates"] * stencil_points
