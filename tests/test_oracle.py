"""Jet oracle: values, tolerances, witness power, fault injection.

Some test names predate the jet oracle, when the references came from
finite-difference stencils; each checks the property its name states for
the jet pass (a point's "stencil" is now its one batch row).
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import parasol.oracle
from conftest import ALL_MANIFESTS, FIXTURE_NAMES, fixture_path, numeric_at
from parasol.analysis import DEGENERACY_CUTOFF, Analysis, cmd_oracle
from parasol.batch import PointBatch
from parasol.chart import SAMPLE_COUNT, Chart
from parasol.cli import main
from parasol.connection import PAPER_FRAME_SUM, WEIGHTED_TRACE, lie_derivative_two_ways
from parasol.manifest import load_manifest
from parasol.oracle import (
    GROUP_POINTS,
    REFERENCES,
    OracleConfig,
    compare,
    oracle_sample_points,
)
from parasol.symexpr import DegenerateEvaluationError, Expr, parse
from parasol.tensor import TensorField

CFG = OracleConfig()


def _reference(metric, name, point):
    """One reference's value at one point where every jet is finite."""
    points, references = oracle_sample_points(metric, [point])
    assert len(points) == 1
    return references[name][0]


def _oracle_points(manifest, seed=CFG.seed):
    """The report's sample points, and the oracle's points and references among them."""
    analysis = Analysis(manifest, OracleConfig(seed=seed))
    candidates = analysis.sample_points()
    return candidates, *oracle_sample_points(analysis.structure.metric, candidates)


def _reject_rule(analysis, monkeypatch):
    """The rule by which ``analysis.sample_points`` judges candidates."""
    rules = []
    monkeypatch.setattr(
        Chart, "sample_points", lambda self, count, seed, reject: rules.append(reject) or []
    )
    analysis.sample_points()
    monkeypatch.undo()
    return rules[0]


def _run(argv):
    """Exit code, stdout and stderr of the CLI; a usage error exits through argparse."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(tolerance=0.0)
    with pytest.raises(TypeError):
        OracleConfig(h=1e-4)  # the finite-difference step is gone


@pytest.mark.parametrize(
    "flag, value",
    [("--h", "0"), ("--h", "-1"), ("--h", "nan"), ("--h", "inf"),
     ("--h", "1"), ("--h", "1e308"),
     ("--tolerance", "0"), ("--tolerance", "nan")],
)
def test_invalid_step_or_tolerance_is_an_input_error(flag, value):
    code, out, err = _run(["oracle", "fixtures/flat_r3", flag, value])
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    if flag == "--h":
        # the oracle has no step: --h is no option, and no prefix of --help either
        assert lines[-1] == "parasol: error: unrecognized arguments: --h %s" % value
    else:
        assert len(lines) == 1 and lines[0].startswith("error: ")


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


def test_compare_passes_on_fixture_geometry(manifests, ex1):
    _, points, references = _oracle_points(manifests["ex1_r3_spacelike"])
    assert len(points) == SAMPLE_COUNT
    assert compare(ex1.connection(), references["christoffel"], points) <= CFG.tolerance
    assert compare(ex1.riemann(), references["riemann"], points) <= CFG.tolerance
    assert compare(ex1.ricci(WEIGHTED_TRACE), references["ricci"], points) <= CFG.tolerance


def test_compare_detects_injected_fault(manifests, ex1):
    _, points, references = _oracle_points(manifests["ex1_r3_spacelike"])
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


def test_compare_fails_on_nan_deviation(manifests, ex1):
    # Python's max drops a NaN that is not first; one NaN point must still fail
    _, points, references = _oracle_points(manifests["ex1_r3_spacelike"])
    references = references["christoffel"]
    references[1] = np.full_like(references[1], math.nan)
    deviation = compare(ex1.connection(), references, points)
    assert math.isnan(deviation)
    assert not deviation <= CFG.tolerance


def test_compare_shape_mismatch(manifests, ex1):
    _, points, references = _oracle_points(manifests["ex1_r3_spacelike"])
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


# ---------------------------------------------------------------------------
# witness power: a wrong symbolic tensor fails, a right one passes at any scale
# ---------------------------------------------------------------------------


def test_a_planted_wrong_christoffel_component_fails_the_oracle(manifests, monkeypatch):
    analysis = Analysis(manifests["ex1_r3_spacelike"], CFG)
    structure = analysis.structure
    gamma = structure.connection()
    comps = list(gamma._comps)
    comps[5] = comps[5] + parse("z/1000", structure.chart)  # Gamma^x_yz
    monkeypatch.setattr(structure, "connection", lambda: TensorField(gamma.chart, 1, 2, comps))
    christoffel = cmd_oracle(analysis).checks[0]
    assert (christoffel.id, christoffel.status) == ("oracle_christoffel", "fail")
    assert float(christoffel.details.split()[3]) >= 1e-4


def test_the_paper_frame_sum_ricci_of_example_two_fails_against_the_jets(manifests, ex2):
    # the paper's frame sum is not the weighted trace on the timelike example
    _, points, references = _oracle_points(manifests["ex2_r3_timelike"])
    assert compare(ex2.ricci(WEIGHTED_TRACE), references["ricci"], points) <= 1e-15
    assert compare(ex2.ricci(PAPER_FRAME_SUM), references["ricci"], points) >= 1.0


def _warped(tmp_path, k: int) -> Path:
    """``warped_r3`` with exp(2z) replaced by exp(k z), and its frame to match."""
    data = json.loads(fixture_path("warped_r3").read_text(encoding="utf-8"))
    data["metric"][0][0] = data["metric"][1][1] = "exp(%d*z)" % k
    data["frame"][0][0] = data["frame"][1][1] = "exp(-%d/2*z)" % k
    path = tmp_path / ("warped_k%d.json" % k)
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


@pytest.mark.parametrize("k", [1, 20, 60, 200])
def test_the_oracle_passes_on_steep_warped_metrics(tmp_path, k):
    # the central differences failed Riemann and Ricci from k = 20 and everything from k = 60
    code, out, err = _run(["oracle", str(_warped(tmp_path, k)), "--json", "--seed", "5"])
    assert (code, err) == (0, "")
    rows = json.loads(out)["checks"]
    assert [(row["id"], row["status"]) for row in rows] == [
        ("oracle_christoffel", "pass"), ("oracle_riemann", "pass"), ("oracle_ricci", "pass"),
        ("oracle_lie_dual", "pass"),
    ]
    for row in rows[:3]:
        deviation = float(row["details"].split()[3])
        assert deviation <= 1e-14, row


@pytest.mark.parametrize("seed", [1, 5, 42])
def test_an_overflowing_warped_metric_ends_without_a_traceback_or_a_false_failure(tmp_path, seed):
    # exp(800 z) overflows a float above z = 0.887, and its Hessian above z = 0.871
    code, out, err = _run(["oracle", str(_warped(tmp_path, 800)), "--json", "--seed", str(seed)])
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
        return
    assert (code, err) == (0, "")
    assert all(row["status"] in ("pass", "inapplicable") for row in json.loads(out)["checks"])


def test_jets_that_overflow_at_every_sample_point_give_a_not_evaluable_row(tmp_path):
    # for z in [7/10, 705/1000], g = diag(exp(1000 z), exp(-1000 z), 1) is a float with
    # det g = 1, but the Hessian of g_xx is not
    data = json.loads(_warped(tmp_path, 1000).read_text(encoding="utf-8"))
    data["metric"][1][1], data["frame"][1][1] = "exp(-1000*z)", "exp(500*z)"
    data["base_point"][2], data["domain_box"][2] = "7/10", ["7/10", "705/1000"]
    path = tmp_path / "warped_steep_box.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = _run(["oracle", str(path), "--json"])
    assert (code, err) == (0, "")
    (row,) = json.loads(out)["checks"]
    assert (row["id"], row["status"], row["details"]) == (
        "oracle_christoffel", "inapplicable",
        "the references are not finite floats at any of the 10 sample points",
    )


def test_a_metric_small_in_absolute_terms_passes_the_oracle(tmp_path):
    # det g = 1e-8 is far below the old absolute cutoff, but g is flat and well conditioned
    data = json.loads(fixture_path("flat_r3").read_text(encoding="utf-8"))
    data["metric"][0][0] = data["metric"][1][1] = "1/10000"
    data["frame"][0][0] = data["frame"][1][1] = "100"
    path = tmp_path / "flat_small.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = _run(["oracle", str(path), "--json"])
    assert (code, err) == (0, "")
    assert [(row["id"], row["status"], row["details"]) for row in json.loads(out)["checks"]] == [
        (check_id, "pass", "max relative deviation 0.000e+00 over 10 points (tolerance 1.0e-06)")
        for check_id in ("oracle_christoffel", "oracle_riemann", "oracle_ricci")
    ] + [("oracle_lie_dual", "pass",
          "coordinate vs connection Lie derivative deviate by 0.000e+00 numerically")]


# ---------------------------------------------------------------------------
# the points: the report's, where every jet is finite
# ---------------------------------------------------------------------------


def test_stencil_rejects_degeneracy_crossing(manifests, monkeypatch):
    # det g = 1 + y^2 - t^2 vanishes at t = 1, y = 0: the one sampler rejects the point there
    reject = _reject_rule(Analysis(manifests["ex5d_r5_g2"], CFG), monkeypatch)
    at = [{"x": 0.0, "y": 0.0, "z": 0.0, "t": t, "s": 0.0} for t in (1.0, 0.99)]
    assert reject(at) == [True, False]


def test_a_failed_riemann_stencil_rejects_its_point_alone(tmp_path):
    # g = diag(exp(800 z), exp(2 z), 1): at z = -0.9, g_xx = e^-720 is subnormal and
    # g^-1 overflows, so that point's references are not finite.  It is dropped
    # alone from its group, and the others keep the bits of a pass without it
    data = json.loads(fixture_path("warped_r3").read_text(encoding="utf-8"))
    data["metric"][0][0], data["frame"][0][0] = "exp(800*z)", "exp(-400*z)"
    path = tmp_path / "warped_subnormal.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    metric = load_manifest(path).metric
    chart = metric.chart
    points = [
        {"x": 0.1, "y": 0.2, "z": -0.3}, {"x": 0.0, "y": 0.1, "z": 0.2},
        {"x": 0.0, "y": 0.0, "z": -0.9}, {"x": -0.2, "y": 0.3, "z": 0.1},
    ]
    kept, references = oracle_sample_points(metric, points)
    assert kept == points[:2] + points[3:]
    regrouped = oracle_sample_points(metric, kept)[1]
    for name in REFERENCES:
        assert len(references[name]) == len(kept)
        assert all(map(_same_bits, regrouped[name], references[name])), name
    # a Riemann-shaped tensor flagged where x = 0 raises at the second kept point
    comps = [Expr.zero(chart)] * chart.dimension**4
    comps[1] = parse("1/x", chart)
    poles = TensorField(chart, 1, 3, comps)
    with pytest.raises(DegenerateEvaluationError) as error:
        compare(poles, references["riemann"], kept)
    assert str(error.value) == "denominator 'x' vanishes at [0.0, 0.1, 0.2] (|value| = 0)"


def test_stencil_sampler_builds_each_metric_float_table_once(monkeypatch):
    # one layout per call: the float tables of the upper triangle's entries are built
    # once, though the points span two groups
    metric = load_manifest(fixture_path("ex5d_r5_g1")).metric  # no table built yet
    n = metric.chart.dimension
    entries = [id(metric[i, j]) for i in range(n) for j in range(i, n) if metric[i, j]._num]
    built = []
    float_tables = Expr._float_tables
    monkeypatch.setattr(
        Expr, "_float_tables", lambda self: built.append(id(self)) or float_tables(self)
    )
    points = [[0.1, 0.2, 0.1, 0.3, -0.2], [0.3, 0.1, -0.2, 0.1, 0.2]] * GROUP_POINTS
    assert len(oracle_sample_points(metric, points)[0]) == len(points)
    assert built == entries


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes, and equal floats with zeros of one sign."""
    return a.shape == b.shape and all(
        x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
        for x, y in zip(a.ravel().tolist(), b.ravel().tolist())
    )


@pytest.mark.parametrize("path", [pytest.param(p, id=p.stem) for p in ALL_MANIFESTS])
def test_stacked_references_have_the_bits_of_one_stencil_at_a_time(path):
    # the points are grouped GROUP_POINTS at a time; each point's references have
    # the bits of a pass over that point alone, at two seeds
    manifest = load_manifest(path)
    for seed in (42, 1):
        candidates, points, references = _oracle_points(manifest, seed)
        assert points == candidates and len(points) == SAMPLE_COUNT
        assert sorted(references) == sorted(REFERENCES)
        for p, point in enumerate(points):
            alone = oracle_sample_points(manifest.metric, [point])[1]
            for name in REFERENCES:
                assert _same_bits(references[name][p], alone[name][0]), (name, p)


def test_oracle_fills_the_metric_once_per_round_and_per_group(manifests, monkeypatch):
    analysis = Analysis(manifests["ex5d_r5_g1"], CFG)
    points = analysis.sample_points()  # the numeric_max points are not oracle work
    batches = []
    metric_jets = parasol.oracle._metric_jets
    monkeypatch.setattr(
        parasol.oracle,
        "_metric_jets",
        lambda layout, batch: batches.append(batch) or metric_jets(layout, batch),
    )
    assert len(cmd_oracle(analysis).checks) == 4
    # one batch per group of the report's points, each point in one of them
    assert [batch.size for batch in batches] == [
        min(GROUP_POINTS, len(points) - start) for start in range(0, len(points), GROUP_POINTS)
    ]
    assert [xs for batch in batches for xs in batch.points] == [
        [point[c] for c in analysis.structure.chart.coordinates] for point in points
    ]


@pytest.mark.parametrize("name", ["ex1_r3_spacelike", "ex5d_r5_g1"])
def test_oracle_evaluates_the_christoffel_symbols_once(name, manifests, monkeypatch):
    analysis = Analysis(manifests[name], CFG)
    gamma = analysis.structure.connection()
    evaluated = []
    numeric_many = TensorField.numeric_many

    def recording(self, batch):
        evaluated.append(self)
        return numeric_many(self, batch)

    monkeypatch.setattr(TensorField, "numeric_many", recording)
    checks = cmd_oracle(analysis).checks
    assert [check.id for check in checks] == [
        "oracle_christoffel", "oracle_riemann", "oracle_ricci", "oracle_lie_dual"
    ]
    assert sum(tensor is gamma for tensor in evaluated) == 1


def test_sample_points_avoid_degeneracy_locus(manifests, structures):
    g2 = structures["ex5d_r5_g2"].metric
    candidates, points, _ = _oracle_points(manifests["ex5d_r5_g2"])
    assert points == candidates and points
    for point in points:
        matrix = numeric_at(g2.field, point)
        bound = np.prod(np.linalg.norm(matrix, axis=1))
        assert abs(g2.determinant.evaluate(point)) > DEGENERACY_CUTOFF * bound


def test_lie_derivative_dual_numeric_agreement(manifests, ex1):
    _, points, _ = _oracle_points(manifests["ex1_r3_spacelike"])
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
    # every column of every point is computed once, in the batch of its group,
    # and no metric entry is evaluated one point at a time
    analysis = Analysis(manifests["ex5d_r5_g1"], CFG)
    points = analysis.sample_points()  # the numeric_max points are not oracle work
    metric = analysis.structure.metric
    n = metric.chart.dimension
    entries = {id(metric[i, j]) for i in range(n) for j in range(n)}
    counts = {"metric": 0, "columns": 0}
    evaluate, column = Expr.evaluate, PointBatch.column

    def counting_evaluate(self, point, *args, **kwargs):
        counts["metric"] += id(self) in entries
        return evaluate(self, point, *args, **kwargs)

    def counting_column(self, key):
        counts["columns"] += key not in self._columns
        return column(self, key)

    monkeypatch.setattr(Expr, "evaluate", counting_evaluate)
    monkeypatch.setattr(PointBatch, "column", counting_column)
    points, _ = oracle_sample_points(metric, points)
    assert len(points) == SAMPLE_COUNT and counts["metric"] == 0
    keys = parasol.oracle._layout(metric)[1]
    groups = math.ceil(SAMPLE_COUNT / GROUP_POINTS)
    assert counts["columns"] == groups * len(keys)
