"""Finite-difference oracle: values, tolerances, O(h^2) scaling, fault injection."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from conftest import FIXTURE_NAMES, fixture_path
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
    fd_christoffel,
    fd_ricci,
    fd_riemann,
    oracle_sample_points,
)
from parasol.batch import PointBatch
from parasol.symexpr import Expr
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
        oracle_sample_points(flat.chart, flat.metric, OracleConfig(h=0.5))
    assert len(oracle_sample_points(flat.chart, flat.metric, OracleConfig(h=0.4))) == SAMPLE_COUNT


def test_report_all_rejects_the_step_before_any_command(monkeypatch):
    import parasol.analysis as analysis

    ran = []
    for name in [name for name in vars(analysis) if name.startswith("cmd_")]:
        if name != "cmd_report_all":
            monkeypatch.setattr(
                analysis, name, lambda a, name=name: ran.append(name) or a.new_report()
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
    gamma = fd_christoffel(ex1.metric, {"x": 0.0, "y": 0.0, "z": 0.3}, CFG)
    expected = -math.exp(0.6)
    assert abs(gamma[2, 0, 0] - expected) <= 1e-6 * abs(expected)


def test_fd_christoffel_flat_is_zero(flat):
    gamma = fd_christoffel(flat.metric, {"x": 0.1, "y": -0.2, "z": 0.4}, CFG)
    assert np.max(np.abs(gamma)) <= 1e-10


def test_fd_christoffel_value_on_ex2(ex2):
    # Gamma^x_xz = -1 for the timelike example
    gamma = fd_christoffel(ex2.metric, {"x": 0.0, "y": 0.0, "z": 0.0}, CFG)
    assert abs(gamma[0, 0, 2] - (-1.0)) <= 1e-6


def test_fd_riemann_frame_value_on_ex1(ex1):
    # component of R(E1, E2)E2 along E1 at the origin is 1
    riem = fd_riemann(ex1.metric, {"x": 0.0, "y": 0.0, "z": 0.0}, CFG)
    frame = np.array([vec.numeric_at({"x": 0.0, "y": 0.0, "z": 0.0}) for vec in ex1.frame])
    g = ex1.metric.numeric_at({"x": 0.0, "y": 0.0, "z": 0.0})
    vector = np.einsum("lijk,i,j,k->l", riem, frame[0], frame[1], frame[1])
    along_e1 = vector @ g @ frame[0]  # g(R(E1,E2)E2, E1), e1 is unit spacelike
    assert abs(along_e1 - 1.0) <= 1e-5


def test_fd_riemann_flat_is_zero(flat):
    riem = fd_riemann(flat.metric, {"x": 0.0, "y": 0.0, "z": 0.0}, CFG)
    assert np.max(np.abs(riem)) <= 1e-8


def test_fd_ricci_diag_on_ex2(ex2):
    # weighted-trace Ricci has frame diagonal (0, 0, -2) on the timelike example
    point = {"x": 0.0, "y": 0.0, "z": 0.0}
    ricci = fd_ricci(ex2.metric, point, CFG)
    frame = np.array([vec.numeric_at(point) for vec in ex2.frame])
    diag = [frame[i] @ ricci @ frame[i] for i in range(3)]
    assert abs(diag[0]) <= 1e-5 and abs(diag[1]) <= 1e-5
    assert abs(diag[2] - (-2.0)) <= 1e-5


def test_compare_passes_on_fixture_geometry(ex1):
    points = oracle_sample_points(ex1.chart, ex1.metric, CFG)
    assert len(points) == SAMPLE_COUNT
    gamma = ex1.connection()
    deviation = compare(gamma, lambda p: fd_christoffel(ex1.metric, p, CFG), points)
    assert deviation <= CFG.tolerance
    riem = ex1.riemann()
    deviation = compare(riem, lambda p: fd_riemann(ex1.metric, p, CFG), points)
    assert deviation <= CFG.tolerance
    ricci = ex1.ricci(WEIGHTED_TRACE)
    deviation = compare(ricci, lambda p: fd_ricci(ex1.metric, p, CFG), points)
    assert deviation <= CFG.tolerance


def test_compare_detects_injected_fault(ex1):
    points = oracle_sample_points(ex1.chart, ex1.metric, CFG)
    gamma = ex1.connection()
    perturbed = TensorField.build(
        ex1.chart,
        1,
        2,
        lambda idx: gamma[idx] + Expr.constant(ex1.chart, "1/1000")
        if idx == (2, 0, 0)
        else gamma[idx],
    )
    deviation = compare(perturbed, lambda p: fd_christoffel(ex1.metric, p, CFG), points)
    assert not deviation <= CFG.tolerance
    assert deviation >= 1e-4


def test_compare_fails_on_nan_deviation(ex1):
    # Python's max drops a NaN that is not first; one NaN point must still fail
    points = oracle_sample_points(ex1.chart, ex1.metric, CFG)
    gamma = ex1.connection()
    nan_at = points[1]

    def oracle(point):
        reference = fd_christoffel(ex1.metric, point, CFG)
        return np.full_like(reference, math.nan) if point is nan_at else reference

    deviation = compare(gamma, oracle, points)
    assert math.isnan(deviation)
    assert not deviation <= CFG.tolerance


def test_compare_shape_mismatch(ex1):
    points = oracle_sample_points(ex1.chart, ex1.metric, CFG)
    with pytest.raises(ValueError, match="shape"):
        compare(ex1.xi, lambda p: fd_christoffel(ex1.metric, p, CFG), points)


def test_halving_h_improves_by_factor_near_four(ex1):
    # central differences are O(h^2): the deviation ratio must land in [3, 5]
    points = oracle_sample_points(ex1.chart, ex1.metric, CFG)
    gamma = ex1.connection()
    coarse = compare(gamma, lambda p: fd_christoffel(ex1.metric, p, CFG), points)
    fine_cfg = OracleConfig(h=CFG.h / 2.0)
    fine = compare(gamma, lambda p: fd_christoffel(ex1.metric, p, fine_cfg), points)
    ratio = coarse / fine
    assert 3.0 <= ratio <= 5.0


def test_stencil_rejects_degeneracy_crossing(structures):
    g2 = structures["ex5d_r5_g2"].metric
    # det = 1 + y^2 - t^2 vanishes at t = 1, y = 0
    with pytest.raises(StencilDegeneracyError):
        fd_christoffel(g2, {"x": 0.0, "y": 0.0, "z": 0.0, "t": 1.0, "s": 0.0}, CFG)


def test_stencil_sampler_checks_cached_points_on_every_lookup(ex1):
    stencil = StencilSampler(ex1.metric)
    xs = [0.0, 0.0, 0.3]
    matrix, det = stencil.sample(xs)
    sign = float(np.sign(det))
    with pytest.raises(StencilDegeneracyError):
        stencil.sample(xs, -sign)
    assert stencil.sample(xs, sign)[0] is matrix


def test_stencil_sampler_builds_each_metric_float_table_once(monkeypatch):
    # every fill batches the same metric entries, so their float tables are
    # built with the sampler and never again in the run
    metric = load_manifest(fixture_path("ex5d_r5_g1")).metric  # no table built yet
    entries = {id(comp) for comp in metric.field._comps if not comp.is_symbolically_zero}
    built = []
    float_tables = Expr._float_tables
    monkeypatch.setattr(
        Expr, "_float_tables", lambda self: built.append(id(self)) or float_tables(self)
    )
    sampler = StencilSampler(metric)
    assert sorted(built) == sorted(entries)
    sampler.riemann([0.1, 0.2, 0.1, 0.3, -0.2], CFG.h)
    sampler.christoffel([0.3, 0.1, -0.2, 0.1, 0.2], CFG.h)
    assert len(built) == len(entries)


def test_sample_points_avoid_degeneracy_locus(structures):
    g2 = structures["ex5d_r5_g2"].metric
    chart = structures["ex5d_r5_g2"].chart
    points = oracle_sample_points(chart, g2, CFG)
    assert points
    for point in points:
        det = g2.determinant.evaluate(point)
        assert abs(det) >= 1e-6


def test_lie_derivative_dual_numeric_agreement(ex1):
    points = oracle_sample_points(ex1.chart, ex1.metric, CFG)
    via_coordinates, via_connection = lie_derivative_two_ways(
        ex1.metric, ex1.xi, ex1.nabla_xi()
    )
    for point in points:
        deviation = np.abs(
            via_coordinates.numeric_at(point) - via_connection.numeric_at(point)
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
    counts = {"metric": 0, "candidates": 0}
    evaluate = Expr.evaluate
    sample_points = Chart.sample_points

    def counting_evaluate(self, point, *args, **kwargs):
        counts["metric"] += id(self) in entries
        return evaluate(self, point, *args, **kwargs)

    evaluate_batch = PointBatch.evaluate

    def counting_evaluate_batch(self, exprs):
        counts["metric"] += self.size * sum(id(expr) in entries for expr in exprs)
        return evaluate_batch(self, exprs)

    def counting_sample_points(self, count, seed, reject=None):
        def counted(point):
            counts["candidates"] += 1
            return reject(point)

        return sample_points(self, count, seed, counted)

    monkeypatch.setattr(Expr, "evaluate", counting_evaluate)
    monkeypatch.setattr(PointBatch, "evaluate", counting_evaluate_batch)
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
    assert counts["metric"] <= n * n * (SAMPLE_COUNT * stencil_points + probes)
