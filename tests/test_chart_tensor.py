"""Tensor fields, metric inversion, signatures, brackets, frames."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import numeric_at
from parasol.batch import Plan, PointBatch
from parasol.chart import MAX_SAMPLE_TRIES, Chart, ChartError, ChartMismatchError
from parasol.symexpr import Expr, parse
from parasol.tensor import (
    DegenerateMetricError,
    Frame,
    FrameError,
    Metric,
    SingularMetricError,
    TensorField,
    kronecker,
    lie_bracket,
    partials,
    signature_at,
)

CHART = Chart.make(["x", "y", "z"])


def P(source, chart=CHART):
    return parse(source, chart)


def euclidean(chart=CHART) -> Metric:
    n = chart.dimension
    one, zero = Expr.one(chart), Expr.zero(chart)
    return Metric(
        TensorField(chart, 0, 2, [one if i == j else zero for i in range(n) for j in range(n)])
    )


# ---------------------------------------------------------------------------
# chart validation
# ---------------------------------------------------------------------------


def test_chart_requires_two_coordinates():
    with pytest.raises(ChartError):
        Chart.make(["x"])


def test_chart_rejects_duplicates():
    with pytest.raises(ChartError):
        Chart.make(["x", "x"])


def test_chart_base_point_must_lie_in_box():
    with pytest.raises(ChartError, match=r"^base point x = 2 outside \[-1, 1\]$"):
        Chart.make(["x", "y"], base_point=["2", "0"], domain_box=[["-1", "1"], ["-1", "1"]])


def test_chart_reversed_interval_is_reported_before_the_base_point():
    with pytest.raises(ChartError, match=r"^degenerate domain interval \[1, -1\]$"):
        Chart.make(["x", "y"], base_point=["0", "0"], domain_box=[["1", "-1"], ["-1", "1"]])


def test_chart_mismatch_detected():
    other = Chart.make(["u", "v"])
    with pytest.raises(ChartMismatchError):
        Expr.coordinate(CHART, "x") + Expr.coordinate(other, "u")


# ---------------------------------------------------------------------------
# metric inversion
# ---------------------------------------------------------------------------


def test_diagonal_exponential_metric_inverts(ex1):
    inv = ex1.metric.inverse
    assert inv[0, 0] == P("exp(-2*z)")
    assert inv[1, 1] == P("exp(2*z)")
    assert inv[2, 2] == Expr.one(CHART)
    assert inv[0, 1].is_zero()


def test_euclidean_metric_inverts_to_identity():
    g = euclidean()
    for i in range(3):
        for j in range(3):
            expected = Expr.one(CHART) if i == j else Expr.zero(CHART)
            assert g.inverse[i, j] == expected


def test_g2_inverse_has_example_denominator(structures):
    # det g2 = 1 + y^2 - t^2 by cofactor expansion; the inverse is adjugate/det
    g2 = structures["ex5d_r5_g2"].metric
    chart = g2.chart
    assert g2.determinant == parse("1 + y^2 - t^2", chart)
    entry = g2.inverse[2, 2]
    assert entry.den_string() == "y^2 - t^2 + 1"


def test_g2_inverse_matches_numeric_inversion(structures):
    g2 = structures["ex5d_r5_g2"].metric
    chart = g2.chart
    points = chart.sample_points(10, seed=42)
    for point in points:
        matrix = numeric_at(g2.field, point)
        expected = np.linalg.inv(matrix)
        actual = numeric_at(g2.inverse, point)
        assert np.max(np.abs(actual - expected)) <= 1e-9


def test_rejection_rounds_judge_the_candidates_of_a_draw_one_at_a_time():
    chart = Chart.make(["x", "y"], base_point=[0, 0], domain_box=[(-1, 1), (-1, 1)])
    rounds = []

    def reject_left(candidates):
        rounds.append(len(candidates))
        return [point["x"] < 0 for point in candidates]

    points = chart.sample_points(10, 3, reject_left)
    # a round draws as many candidates as points are still missing, so the
    # last candidate drawn is the tenth point
    drawn = chart.sample_points(sum(rounds), 3)
    assert points == [point for point in drawn if point["x"] >= 0]
    assert len(points) == 10 and drawn[-1]["x"] >= 0
    assert rounds[0] == 10 and len(rounds) > 1
    rounds.clear()
    assert chart.sample_points(10, 3, lambda c: rounds.append(len(c)) or [True] * len(c)) == []
    assert rounds == [10] * (MAX_SAMPLE_TRIES // 10)


def test_g1_determinant_is_minus_one(structures):
    g1 = structures["ex5d_r5_g1"].metric
    assert g1.determinant == Expr.constant(g1.chart, -1)


def test_metric_product_identity_all_fixtures(structures):
    for structure in structures.values():
        g = structure.metric
        n = g.chart.dimension
        for i in range(n):
            for j in range(n):
                total = Expr.zero(g.chart)
                for m in range(n):
                    total = total + g.field[i, m] * g.inverse[m, j]
                expected = Expr.one(g.chart) if i == j else Expr.zero(g.chart)
                assert (total - expected).is_zero()


def test_metric_inverse_is_one_object_per_symmetric_pair(structures):
    for structure in structures.values():
        inverse = structure.metric.inverse
        n = structure.chart.dimension
        assert all(inverse[i, j] is inverse[j, i] for i in range(n) for j in range(n))


def test_partials_differentiates_each_distinct_nonzero_component_once(structures, monkeypatch):
    gamma = structures["ex5d_r5_g1"].connection()
    coords = gamma.chart.coordinates
    calls = []
    differentiate = Expr.differentiate
    monkeypatch.setattr(
        Expr, "differentiate", lambda self, name: calls.append(self) or differentiate(self, name)
    )
    dgamma = partials(gamma)
    monkeypatch.undo()
    distinct = {id(c) for c in gamma._comps if c._num}
    assert len(distinct) < sum(1 for c in gamma._comps if c._num)  # Gamma^k_ji is Gamma^k_ij
    assert len(calls) == len(coords) * len(distinct)
    assert all(c._num for c in calls)
    for (k, i, j, a), d in dgamma.components():
        assert str(d) == str(gamma[k, i, j].differentiate(coords[a]))


def test_numeric_many_evaluates_each_component_once_up_to_sign(structures, monkeypatch):
    structure = structures["ex5d_r5_g1"]
    riem = structure.riemann()
    points = structure.chart.sample_points(10, 5)
    evaluated = []
    run = Plan.run
    monkeypatch.setattr(Plan, "run", lambda self, batch: evaluated.extend(self.kept) or run(self, batch))
    values, degenerate = riem.numeric_many(PointBatch(riem.chart, points))
    monkeypatch.undo()
    assert all(e._num for e in evaluated)
    numerators = {id(e._num) for e in evaluated}
    assert len(numerators) == len(evaluated)  # a negation shares its partner's numerator
    nonzero = [c for c in riem._comps if c._num]
    assert all(id(c._num) in numerators for c in nonzero)
    assert len(evaluated) < len(nonzero)  # R^l_jik = -R^l_ijk
    assert not degenerate.any()
    for point, row in zip(points, values):
        assert (row == numeric_at(riem, point)).all()


def test_singular_metric_rejected():
    zero = Expr.zero(CHART)
    one = Expr.one(CHART)
    comps = [one, zero, zero, zero, one, zero, zero, zero, zero]
    with pytest.raises(SingularMetricError):
        Metric(TensorField(CHART, 0, 2, comps))


def _cofactor_det(matrix):
    """Plain recursive cofactor expansion along the first row, no memoization."""
    if len(matrix) == 1:
        return matrix[0][0]
    total = Expr.zero(matrix[0][0].chart)
    for j, entry in enumerate(matrix[0]):
        if entry.is_symbolically_zero:
            continue
        cof = entry * _cofactor_det([row[:j] + row[j + 1 :] for row in matrix[1:]])
        total = total + (cof if j % 2 == 0 else -cof)
    return total


def _cofactor_inverse(matrix):
    """Adjugate over determinant, each cofactor expanded from scratch."""
    n = len(matrix)
    det = _cofactor_det(matrix)
    entries = []
    for i in range(n):
        for j in range(n):
            minor = [[matrix[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            entry = _cofactor_det(minor) / det
            entries.append(entry if (i + j) % 2 == 0 else -entry)
    return det, entries


CHARTS = {n: Chart.make(["t", "x", "y", "z", "w"][:n]) for n in range(2, 6)}
ENTRY_SOURCES = [
    "0", "0", "1", "-2", "3", "x - 1", "2*t + 3", "exp(2*t)", "exp(-t + x)", "1/x", "t/x^2"
]
# sum denominators make the g * g^-1 check expensive beyond n = 3
SMALL_ENTRY_SOURCES = ENTRY_SOURCES + ["1/(1 + t^2)", "(x + 1)/(t - 3)"]


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(2, 5))
    chart = CHARTS[n]
    sources = SMALL_ENTRY_SOURCES if n <= 3 else ENTRY_SOURCES
    picks = {}
    for i in range(n):
        for j in range(i, n):
            picks[i, j] = picks[j, i] = draw(st.sampled_from(sources))
    return [[parse(picks[i, j], chart) for j in range(n)] for i in range(n)]


@settings(max_examples=50, deadline=None)
@given(matrix=symmetric_matrices())
def test_metric_matches_plain_cofactor_expansion(matrix):
    # the memoized minors must build every Expr exactly as the plain expansion does
    field = TensorField(matrix[0][0].chart, 0, 2, [e for row in matrix for e in row])
    if _cofactor_det(matrix).is_zero():
        with pytest.raises(SingularMetricError):
            Metric(field)
        return
    g = Metric(field)
    det, entries = _cofactor_inverse(matrix)
    assert str(g.determinant) == str(det)
    assert [str(entry) for _, entry in g.inverse.components()] == [str(e) for e in entries]


def test_dense_seven_dimensional_metric_shares_minors(monkeypatch):
    # dt^2 plus a dense 6 x 6 block of a*s + b entries: with the determinant
    # and all 49 cofactors expanded from scratch, building this metric makes
    # 12,231 multiplications, the g * g^-1 check included
    chart = Chart.make(["t", "x", "y", "z", "u", "v", "s"])
    rng = random.Random(7)
    n = chart.dimension
    rows = [["0"] * n for _ in range(n)]
    rows[0][0] = "1"
    for i in range(1, n):
        rows[i][i] = str(6 * n)
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = "%d*s + %d" % (rng.choice((1, -2, 3)), rng.choice((1, 2, 3)))
    field = TensorField(chart, 0, 2, [parse(e, chart) for row in rows for e in row])
    calls = []
    multiply = Expr.__mul__

    def counted(self, other):
        calls.append(None)
        return multiply(self, other)

    monkeypatch.setattr(Expr, "__mul__", counted)
    Metric(field)
    assert len(calls) <= 2000


# ---------------------------------------------------------------------------
# signature
# ---------------------------------------------------------------------------


def test_g1_signature_is_lorentzian_everywhere(structures):
    g1 = structures["ex5d_r5_g1"].metric
    for point in g1.chart.sample_points(10, seed=42):
        signature = signature_at(g1, point)
        assert (signature.n_plus, signature.n_minus) == (4, 1)
        assert signature.index == 1


def test_g2_signature_changes_across_degeneracy_locus(structures):
    g2 = structures["ex5d_r5_g2"].metric
    origin = [0.0, 0.0, 0.0, 0.0, 0.0]
    assert signature_at(g2, origin).index == 2
    beyond = {"x": 0.0, "y": 0.0, "z": 0.0, "t": 2.0, "s": 0.0}
    assert signature_at(g2, beyond).index == 3


def test_g2_degenerate_point_reports_determinant(structures):
    g2 = structures["ex5d_r5_g2"].metric
    with pytest.raises(DegenerateMetricError) as info:
        signature_at(g2, {"x": 0.0, "y": 0.0, "z": 0.0, "t": 1.0, "s": 0.0})
    assert abs(info.value.det_value) <= 1e-9


def test_euclidean_signature():
    g = euclidean()
    assert signature_at(g, [0.3, -0.2, 0.9]) == signature_at(g, [0.0, 0.0, 0.0])
    assert signature_at(g, [0.0, 0.0, 0.0]).n_plus == 3


def test_signature_locally_constant_on_fixtures(structures):
    for structure in structures.values():
        signatures = {
            signature_at(structure.metric, point)
            for point in structure.chart.sample_points(10, seed=7)
        }
        assert len(signatures) == 1


# ---------------------------------------------------------------------------
# index gymnastics
# ---------------------------------------------------------------------------


def test_lower_xi_gives_eps_eta(ex1, ex2):
    for structure in (ex1, ex2):
        flat = structure.metric.lower(structure.xi)
        expected = structure.eta.scale(Fraction(structure.epsilon))
        assert (flat - expected).is_zero()


def test_raise_after_lower_roundtrip(ex1):
    rng = random.Random(3)
    g = ex1.metric
    for _ in range(20):
        comps = []
        for _ in range(3):
            coeff = Fraction(rng.randint(-3, 3))
            name = rng.choice(CHART.coordinates)
            comps.append(Expr.constant(CHART, coeff) * Expr.coordinate(CHART, name))
        vec = TensorField.vector(CHART, comps)
        back = g.raise_index(g.lower(vec))
        assert (back - vec).is_zero()


def test_trace_of_phi_vanishes(ex1):
    assert ex1.phi.trace().is_zero()


def test_phi_square_trace_is_n_minus_one(ex1, ex2, flat):
    for structure in (ex1, ex2, flat):
        n = structure.chart.dimension
        assert structure.phi_squared().trace() == Expr.constant(structure.chart, n - 1)


def test_kronecker_trace():
    assert kronecker(CHART).trace() == Expr.constant(CHART, 3)


# ---------------------------------------------------------------------------
# Lie brackets
# ---------------------------------------------------------------------------


def test_bracket_of_frame_fields_reproduces_e1(ex1):
    e1, e3 = ex1.frame[0], ex1.frame[2]
    # [E1, E3]^x = -d_z(e^-z) = e^-z, i.e. [E1, E3] = E1
    assert (lie_bracket(e1, e3) - e1).is_zero()


def test_bracket_of_coordinate_fields_vanishes():
    dx = TensorField.vector(CHART, [Expr.one(CHART), Expr.zero(CHART), Expr.zero(CHART)])
    dy = TensorField.vector(CHART, [Expr.zero(CHART), Expr.one(CHART), Expr.zero(CHART)])
    assert lie_bracket(dx, dy).is_zero()


def test_bracket_antisymmetry_seeded():
    rng = random.Random(5)
    for _ in range(10):
        comps = [
            Expr.constant(CHART, Fraction(rng.randint(-2, 2)))
            * Expr.coordinate(CHART, rng.choice(CHART.coordinates))
            for _ in range(3)
        ]
        other = [
            parse(rng.choice(["exp(z)", "x*y", "1", "z^2"]), CHART) for _ in range(3)
        ]
        x = TensorField.vector(CHART, comps)
        y = TensorField.vector(CHART, other)
        assert (lie_bracket(x, y) + lie_bracket(y, x)).is_zero()


def test_jacobi_identity_on_fixture_frames(ex1, ex2, warped):
    for structure in (ex1, ex2, warped):
        e1, e2, e3 = structure.frame
        total = lie_bracket(lie_bracket(e1, e2), e3)
        total = total + lie_bracket(lie_bracket(e2, e3), e1)
        total = total + lie_bracket(lie_bracket(e3, e1), e2)
        assert total.is_zero()


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


def test_frame_signs(ex1, ex2):
    assert ex1.frame_signs() == (1, 1, 1)
    assert ex2.frame_signs() == (1, 1, -1)


def test_non_orthonormal_frame_rejected(ex1):
    # the first failing pair (E_i, E_j), i <= j, in row-major order: a failing
    # diagonal entry, then (1, 3) before the failing (2, 2), then an
    # off-diagonal entry before the failing (3, 3)
    cases = [
        (ex1.metric, ["1,0,0", "0,1,0", "0,0,1"], "g(E_1, E_1) = exp(2*z)"),
        (euclidean(), ["1,0,0", "0,2,0", "1,0,1"], "g(E_1, E_3) = 1"),
        (euclidean(), ["1,0,0", "0,1,0", "0,exp(z),1"], "g(E_2, E_3) = exp(z)"),
    ]
    for metric, rows, text in cases:
        frame = Frame([TensorField.vector(CHART, [P(c) for c in row.split(",")]) for row in rows])
        with pytest.raises(FrameError) as raised:
            frame.orthonormal_signs(frame.table(metric.field))
        assert str(raised.value) == "frame is not orthonormal: " + text


def test_dependent_frame_rejected():
    dx = TensorField.vector(CHART, [Expr.one(CHART), Expr.zero(CHART), Expr.zero(CHART)])
    with pytest.raises(FrameError):
        Frame([dx, dx, dx])


def test_phi_square_trace_on_five_dimensional_structures(structures):
    for name in ("ex5d_r5_g1", "ex5d_r5_g2"):
        structure = structures[name]
        n = structure.chart.dimension
        assert structure.phi_squared().trace() == Expr.constant(structure.chart, n - 1)


def test_g2_determinant_matches_numpy_at_sample_points(structures):
    g2 = structures["ex5d_r5_g2"].metric
    for point in g2.chart.sample_points(10, seed=42):
        symbolic = g2.determinant.evaluate(point)
        numeric = float(np.linalg.det(numeric_at(g2.field, point)))
        assert abs(symbolic - numeric) <= 1e-9 * max(1.0, abs(numeric))
