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
    OracleConfig,
    OracleConfigError,
    StencilDegeneracyError,
    StencilSampler,
    compare,
    oracle_sample_points,
)
from parasol.batch import Plan, PointBatch
from parasol.symexpr import DegenerateEvaluationError, Expr, parse
from parasol.tensor import TensorField

CFG = OracleConfig()


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
    assert len(oracle_sample_points(StencilSampler(flat.metric, 0.4), CFG.seed)) == SAMPLE_COUNT


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
    gamma = StencilSampler(ex1.metric, CFG.h).christoffel({"x": 0.0, "y": 0.0, "z": 0.3})
    expected = -math.exp(0.6)
    assert abs(gamma[2, 0, 0] - expected) <= 1e-6 * abs(expected)


def test_fd_christoffel_flat_is_zero(flat):
    gamma = StencilSampler(flat.metric, CFG.h).christoffel({"x": 0.1, "y": -0.2, "z": 0.4})
    assert np.max(np.abs(gamma)) <= 1e-10


def test_fd_christoffel_value_on_ex2(ex2):
    # Gamma^x_xz = -1 for the timelike example
    gamma = StencilSampler(ex2.metric, CFG.h).christoffel({"x": 0.0, "y": 0.0, "z": 0.0})
    assert abs(gamma[0, 0, 2] - (-1.0)) <= 1e-6


def test_fd_riemann_frame_value_on_ex1(ex1):
    # component of R(E1, E2)E2 along E1 at the origin is 1
    riem = StencilSampler(ex1.metric, CFG.h).riemann({"x": 0.0, "y": 0.0, "z": 0.0})
    frame = np.array([numeric_at(vec, {"x": 0.0, "y": 0.0, "z": 0.0}) for vec in ex1.frame])
    g = numeric_at(ex1.metric.field, {"x": 0.0, "y": 0.0, "z": 0.0})
    vector = np.einsum("lijk,i,j,k->l", riem, frame[0], frame[1], frame[1])
    along_e1 = vector @ g @ frame[0]  # g(R(E1,E2)E2, E1), e1 is unit spacelike
    assert abs(along_e1 - 1.0) <= 1e-5


def test_fd_riemann_flat_is_zero(flat):
    riem = StencilSampler(flat.metric, CFG.h).riemann({"x": 0.0, "y": 0.0, "z": 0.0})
    assert np.max(np.abs(riem)) <= 1e-8


def test_fd_ricci_diag_on_ex2(ex2):
    # weighted-trace Ricci has frame diagonal (0, 0, -2) on the timelike example
    point = {"x": 0.0, "y": 0.0, "z": 0.0}
    ricci = StencilSampler(ex2.metric, CFG.h).ricci(point)
    frame = np.array([numeric_at(vec, point) for vec in ex2.frame])
    diag = [frame[i] @ ricci @ frame[i] for i in range(3)]
    assert abs(diag[0]) <= 1e-5 and abs(diag[1]) <= 1e-5
    assert abs(diag[2] - (-2.0)) <= 1e-5


def test_compare_passes_on_fixture_geometry(ex1):
    stencil = StencilSampler(ex1.metric, CFG.h)
    points = oracle_sample_points(stencil, CFG.seed)
    assert len(points) == SAMPLE_COUNT
    assert compare(ex1.connection(), stencil.christoffel, points) <= CFG.tolerance
    assert compare(ex1.riemann(), stencil.riemann, points) <= CFG.tolerance
    assert compare(ex1.ricci(WEIGHTED_TRACE), stencil.ricci, points) <= CFG.tolerance


def test_compare_detects_injected_fault(ex1):
    stencil = StencilSampler(ex1.metric, CFG.h)
    points = oracle_sample_points(stencil, CFG.seed)
    gamma = ex1.connection()
    perturbed = TensorField.build(
        ex1.chart,
        1,
        2,
        lambda idx: gamma[idx] + Expr.constant(ex1.chart, "1/1000")
        if idx == (2, 0, 0)
        else gamma[idx],
    )
    deviation = compare(perturbed, stencil.christoffel, points)
    assert not deviation <= CFG.tolerance
    assert deviation >= 1e-4


def test_compare_fails_on_nan_deviation(ex1):
    # Python's max drops a NaN that is not first; one NaN point must still fail
    stencil = StencilSampler(ex1.metric, CFG.h)
    points = oracle_sample_points(stencil, CFG.seed)
    gamma = ex1.connection()
    nan_at = points[1]

    def oracle(point):
        reference = stencil.christoffel(point)
        return np.full_like(reference, math.nan) if point is nan_at else reference

    deviation = compare(gamma, oracle, points)
    assert math.isnan(deviation)
    assert not deviation <= CFG.tolerance


def test_compare_shape_mismatch(ex1):
    stencil = StencilSampler(ex1.metric, CFG.h)
    points = oracle_sample_points(stencil, CFG.seed)
    with pytest.raises(ValueError, match="shape"):
        compare(ex1.xi, stencil.christoffel, points)


def _poles_on_axes(chart: Chart) -> TensorField:
    """The vector field (1, 1/x, 1/y): flagged at the second point of ``POLE_POINTS``."""
    return TensorField.vector(chart, [parse(e, chart) for e in ("1", "1/x", "1/y")])


POLE_POINTS = [{"x": 0.5, "y": 0.5, "z": 0.1}, {"x": 0.0, "y": 0.0, "z": 0.3}]


def test_compare_raises_a_flagged_component_after_its_reference(flat):
    # both 1/x and 1/y vanish at the second point; the first in component order raises
    seen = []

    def oracle(point):
        seen.append(point)
        return np.zeros(3)

    with pytest.raises(DegenerateEvaluationError) as error:
        compare(_poles_on_axes(flat.chart), oracle, POLE_POINTS)
    assert str(error.value) == "denominator 'x' vanishes at [0.0, 0.0, 0.3] (|value| = 0)"
    assert seen == POLE_POINTS


def test_compare_raises_the_oracle_error_before_a_flagged_component(flat):
    def oracle(point):
        if point["x"] == 0.0:
            raise StencilDegeneracyError("the oracle fails first")
        return np.zeros(3)

    with pytest.raises(StencilDegeneracyError, match="the oracle fails first"):
        compare(_poles_on_axes(flat.chart), oracle, POLE_POINTS)


def test_halving_h_improves_by_factor_near_four(ex1):
    # central differences are O(h^2): the deviation ratio must land in [3, 5]
    stencil = StencilSampler(ex1.metric, CFG.h)
    points = oracle_sample_points(stencil, CFG.seed)
    gamma = ex1.connection()
    coarse = compare(gamma, stencil.christoffel, points)
    fine = compare(gamma, stencil.christoffel_half_step, points)
    ratio = coarse / fine
    assert 3.0 <= ratio <= 5.0


def test_stencil_rejects_degeneracy_crossing(structures):
    g2 = structures["ex5d_r5_g2"].metric
    # det = 1 + y^2 - t^2 vanishes at t = 1, y = 0
    with pytest.raises(StencilDegeneracyError):
        StencilSampler(g2, CFG.h).christoffel({"x": 0.0, "y": 0.0, "z": 0.0, "t": 1.0, "s": 0.0})


def test_stencil_sampler_checks_cached_points_on_every_lookup(structures):
    # det g = 1 + y^2 - t^2; the point sits 1.5h above t = 1.  Its Christoffel
    # stencil stays above; the stencil of its neighbour at t - h reaches below,
    # to a point whose det 9.997e-04 is above the cutoff but has the other
    # sign than that stencil's own centre
    metric = structures["ex5d_r5_g2"].metric
    h = 1e-3
    stencil = StencilSampler(metric, h)
    xs = [0.0, 0.0, 0.0, 1.0 + 1.5 * h, 0.0]
    gamma = stencil.christoffel(xs)
    for _ in range(2):
        with pytest.raises(StencilDegeneracyError) as error:
            stencil.riemann(xs)
        assert str(error.value) == (
            "metric determinant 9.997e-04 degenerates inside the stencil at "
            "[0.0, 0.0, 0.0, 0.9995000000000002, 0.0]"
        )
    assert stencil.christoffel(xs) is gamma


def test_compare_raises_a_failed_riemann_stencil_at_its_own_lookups(structures):
    # point 1 sits 1.5h below t = 1, where det g = 1 + y^2 - t^2 changes sign:
    # its Christoffel stencil at h stays below, but the stencil of its
    # neighbour at t + h reaches t + 2h, above
    g2 = structures["ex5d_r5_g2"]
    h = 1e-3
    points = [
        {"x": 0.1, "y": 0.2, "z": -0.3, "t": 0.4, "s": 0.5},
        {"x": 0.0, "y": 0.0, "z": 0.0, "t": 1.0 - 1.5 * h, "s": 0.0},
    ]
    stencil = StencilSampler(g2.metric, h)
    assert compare(g2.connection(), stencil.christoffel, points) <= CFG.tolerance
    for symbolic, oracle_fn in (
        (g2.riemann(), stencil.riemann),
        (g2.ricci(WEIGHTED_TRACE), stencil.ricci),
    ):
        with pytest.raises(StencilDegeneracyError) as error:
            compare(symbolic, oracle_fn, points)
        assert str(error.value) == (
            "metric determinant -1.000e-03 degenerates inside the stencil at "
            "[0.0, 0.0, 0.0, 1.0005, 0.0]"
        )
    assert compare(g2.connection(), stencil.christoffel_half_step, points) <= CFG.tolerance


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
    sampler.riemann([0.1, 0.2, 0.1, 0.3, -0.2])
    assert sorted(built) == sorted(entries)
    sampler.christoffel([0.3, 0.1, -0.2, 0.1, 0.2])
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
    return a.shape == b.shape and all(
        x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
        for x, y in zip(a.ravel().tolist(), b.ravel().tolist())
    )


@pytest.mark.parametrize("path", [pytest.param(p, id=p.stem) for p in ALL_MANIFESTS])
def test_stacked_references_have_the_bits_of_one_stencil_at_a_time(path):
    metric = load_manifest(path).metric
    stencil = StencilSampler(metric, CFG.h)
    for point in oracle_sample_points(stencil, CFG.seed):
        xs = [point[c] for c in metric.chart.coordinates]
        riem = _one_stencil_riemann(metric, xs, CFG.h)
        assert _same_bits(stencil.christoffel(point), _one_stencil_christoffel(metric, xs, CFG.h))
        assert _same_bits(
            stencil.christoffel_half_step(point), _one_stencil_christoffel(metric, xs, CFG.h / 2.0)
        )
        assert _same_bits(stencil.riemann(point), riem)
        assert _same_bits(stencil.ricci(point), np.einsum("iijk->jk", riem))


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


def test_oracle_fills_the_metric_once_per_sample_point(manifests, monkeypatch):
    analysis = Analysis(manifests["ex5d_r5_g1"], OracleConfig())
    analysis.sample_points()  # the numeric_max points are not oracle work
    plans, batches = _metric_plan_runs(analysis, monkeypatch)
    rounds = []
    sample_points = Chart.sample_points

    def counting_sample_points(self, count, seed, reject=None):
        return sample_points(self, count, seed, lambda ps: rounds.append(ps) or reject(ps))

    monkeypatch.setattr(Chart, "sample_points", counting_sample_points)
    assert len(cmd_oracle(analysis).checks) == 5
    # one plan of the metric per run, one batch per round of candidates' probes,
    # and one per sample point for every point its references visit
    assert len(plans) == 1
    assert len(batches) == len(rounds) + SAMPLE_COUNT
    assert [batch.size for batch in batches[: len(rounds)]] == [
        len(candidates) * (1 + 2 * analysis.structure.chart.dimension) for candidates in rounds
    ]


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
    points = oracle_sample_points(StencilSampler(g2, CFG.h), CFG.seed)
    assert points
    for point in points:
        det = g2.determinant.evaluate(point)
        assert abs(det) >= 1e-6


def test_lie_derivative_dual_numeric_agreement(ex1):
    points = oracle_sample_points(StencilSampler(ex1.metric, CFG.h), CFG.seed)
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
    # distinct points per sample point: the Riemann stencil at h (centre, 2n
    # axis neighbours, 2n(n - 1) diagonals, 2n double steps, and 2n returns
    # x + h - h that may round away from the centre) and 2n neighbours at h/2
    stencil_points = 1 + 2 * n + 2 * n * (n - 1) + 2 * n + 2 * n + 2 * n
    # each sample-point candidate is probed at its centre and at +-2h per axis
    probes = counts["candidates"] * (1 + 2 * n)
    counts["metric"] += sum(batch.size for batch in batches) * len(plans[0].kept)
    assert counts["metric"] <= n * n * (SAMPLE_COUNT * stencil_points + probes)
