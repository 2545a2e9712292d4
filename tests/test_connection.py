"""Connection, curvature, Ricci modes and Lie derivatives on the fixtures.

The two 3-dimensional fixtures pin the sign conventions: all frame values
below are frozen from the worked example tables (connection, Riemann, Ricci)
and must reproduce with exact symbolic equality, zero tolerance.
"""

from fractions import Fraction

import pytest

from parasol.connection import (
    PAPER_FRAME_SUM,
    WEIGHTED_TRACE,
    covariant_derivative,
    covariant_derivative_along,
    lie_derivative_two_ways,
    scalar_curvature,
)
from parasol.symexpr import Expr
from parasol.tensor import TensorField, contract


def combination(structure, coefficients):
    """Linear combination of frame vectors: {frame index: coefficient}."""
    total = TensorField.zero(structure.chart, 1, 0)
    for index, coeff in coefficients.items():
        total = total + structure.frame[index].scale(Fraction(coeff))
    return total


def nabla(structure, x, y):
    return covariant_derivative_along(y, structure.connection(), x)


def curvature_vector(structure, x, y, z):
    """R(X, Y)Z as a vector field."""
    chart = structure.chart
    n = chart.dimension
    riem = structure.riemann()

    def entry(idx):
        (l,) = idx
        total = Expr.zero(chart)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    total = total + riem[l, i, j, k] * x[i] * y[j] * z[k]
        return total

    return TensorField.build(chart, 1, 0, entry)


def frame_value(structure, tensor, i, j):
    """T(E_i, E_j) for a (0, 2) tensor."""
    total = Expr.zero(structure.chart)
    n = structure.chart.dimension
    for a in range(n):
        for b in range(n):
            total = total + tensor[a, b] * structure.frame[i][a] * structure.frame[j][b]
    return total


# connection tables: (i, j) -> {frame index: coefficient} for nabla_{E_i} E_j
EX1_CONNECTION = {
    (0, 0): {2: -1},
    (0, 1): {},
    (0, 2): {0: 1},
    (1, 0): {},
    (1, 1): {2: 1},
    (1, 2): {1: -1},
    (2, 0): {},
    (2, 1): {},
    (2, 2): {},
}
EX2_CONNECTION = {
    (0, 0): {2: -1},
    (0, 1): {},
    (0, 2): {0: -1},
    (1, 0): {},
    (1, 1): {2: 1},
    (1, 2): {1: 1},
    (2, 0): {},
    (2, 1): {},
    (2, 2): {},
}

# Riemann tables: (i, j, k) -> combination for R(E_i, E_j) E_k
EX1_RIEMANN = {
    (0, 1, 1): {0: 1},
    (0, 2, 2): {0: -1},
    (1, 0, 0): {1: 1},
    (1, 2, 2): {1: -1},
    (2, 0, 0): {2: -1},
    (2, 1, 1): {2: -1},
}
EX2_RIEMANN = {
    (0, 1, 1): {0: -1},
    (0, 2, 2): {0: -1},
    (1, 0, 0): {1: -1},
    (1, 2, 2): {1: -1},
    (2, 0, 0): {2: 1},
    (2, 1, 1): {2: 1},
}


@pytest.mark.parametrize(
    "name,table",
    [("ex1_r3_spacelike", EX1_CONNECTION), ("ex2_r3_timelike", EX2_CONNECTION)],
)
def test_connection_frame_tables(structures, name, table):
    structure = structures[name]
    for (i, j), coefficients in table.items():
        value = nabla(structure, structure.frame[i], structure.frame[j])
        expected = combination(structure, coefficients)
        assert (value - expected).is_zero(), "nabla_E%d E%d" % (i + 1, j + 1)


def test_flat_connection_vanishes(flat):
    assert flat.connection().is_zero()


@pytest.mark.parametrize(
    "name,table",
    [("ex1_r3_spacelike", EX1_RIEMANN), ("ex2_r3_timelike", EX2_RIEMANN)],
)
def test_riemann_frame_tables(structures, name, table):
    structure = structures[name]
    for (i, j, k), coefficients in table.items():
        value = curvature_vector(
            structure, structure.frame[i], structure.frame[j], structure.frame[k]
        )
        expected = combination(structure, coefficients)
        assert (value - expected).is_zero(), "R(E%d, E%d)E%d" % (i + 1, j + 1, k + 1)


def test_flat_riemann_vanishes(flat):
    assert flat.riemann().is_zero()


def test_ricci_diagonals(ex1, ex2):
    ricci1 = ex1.ricci(WEIGHTED_TRACE)
    assert [frame_value(ex1, ricci1, i, i) for i in range(3)] == [0, 0, -2]
    # Riemannian metric: both contraction modes agree
    ricci1_frame = ex1.ricci(PAPER_FRAME_SUM)
    assert (ricci1 - ricci1_frame).is_zero()

    weighted = ex2.ricci(WEIGHTED_TRACE)
    assert [frame_value(ex2, weighted, i, i) for i in range(3)] == [0, 0, -2]
    frame_sum = ex2.ricci(PAPER_FRAME_SUM)
    assert [frame_value(ex2, frame_sum, i, i) for i in range(3)] == [-2, -2, -2]


def test_scalar_curvature_values(ex1, ex2, flat):
    assert scalar_curvature(ex1.ricci(WEIGHTED_TRACE), ex1.metric) == -2
    assert scalar_curvature(flat.ricci(WEIGHTED_TRACE), flat.metric).is_zero()
    assert scalar_curvature(ex2.ricci(WEIGHTED_TRACE), ex2.metric) == 2


def test_nabla_xi_equals_eps_phi(ex1, ex2):
    for structure in (ex1, ex2):
        nabla_xi = covariant_derivative(structure.xi, structure.connection())
        expected = structure.phi.scale(Fraction(structure.epsilon))
        assert (nabla_xi - expected).is_zero()


def test_metric_compatibility_all_fixtures(structures):
    for structure in structures.values():
        assert covariant_derivative(structure.metric.field, structure.connection()).is_zero()


def test_nabla_eta_vanishes_on_flat(flat):
    assert covariant_derivative(flat.eta, flat.connection()).is_zero()


def test_torsion_free_all_fixtures(structures):
    for structure in structures.values():
        gamma = structure.connection()
        n = structure.chart.dimension
        for k in range(n):
            for i in range(n):
                for j in range(i + 1, n):
                    assert (gamma[k, i, j] - gamma[k, j, i]).is_zero()
                    assert gamma[k, j, i] is gamma[k, i, j]  # one object per symmetric pair


def test_riemann_antisymmetry_and_bianchi(ex1, ex2, warped):
    for structure in (ex1, ex2, warped):
        riem = structure.riemann()
        n = structure.chart.dimension
        for l in range(n):
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        assert (riem[l, i, j, k] + riem[l, j, i, k]).is_zero()
                        cyclic = (
                            riem[l, i, j, k] + riem[l, j, k, i] + riem[l, k, i, j]
                        )
                        assert cyclic.is_zero()


def _nabla_by_slot_loop(tensor, gamma):
    """nabla T summed slot by slot, an independent witness of the contract spec."""
    chart, p, q = tensor.chart, tensor.p, tensor.q
    n = chart.dimension

    def entry(idx):
        ups, downs, c = idx[:p], idx[p : p + q], idx[-1]
        total = tensor[ups + downs].differentiate(chart.coordinates[c])
        for slot in range(p):
            for m in range(n):
                moved = ups[:slot] + (m,) + ups[slot + 1 :]
                total = total + gamma[ups[slot], c, m] * tensor[moved + downs]
        for slot in range(q):
            for m in range(n):
                moved = downs[:slot] + (m,) + downs[slot + 1 :]
                total = total - gamma[m, c, downs[slot]] * tensor[ups + moved]
        return total

    return TensorField.build(chart, p, q + 1, entry)


@pytest.mark.parametrize("name", ["ex1_r3_spacelike", "ex5d_r5_g1"])
def test_second_bianchi_identity(structures, name):
    # nabla R runs the generated covariant-derivative spec at rank 4, which no
    # check of the pipeline builds
    structure = structures[name]
    gamma = structure.connection()
    nabla_r = covariant_derivative(structure.riemann(), gamma)
    assert (nabla_r - _nabla_by_slot_loop(structure.riemann(), gamma)).is_zero()
    # the first two terms do not cancel alone, so the identity is not vacuous
    assert not contract("lijkm+ljmki->lijkm", nabla_r, nabla_r).is_zero()
    assert contract("lijkm+ljmki+lmikj->lijkm", nabla_r, nabla_r, nabla_r).is_zero()


def test_weighted_ricci_is_frame_independent(ex1, ex2):
    for structure in (ex1, ex2):
        chart = structure.chart
        n = chart.dimension
        signs = structure.frame_signs()
        riem = structure.riemann()

        def weighted_frame_sum(idx):
            j, k = idx
            total = Expr.zero(chart)
            for sign, vec in zip(signs, structure.frame):
                for a in range(n):
                    for l in range(n):
                        for m in range(n):
                            total = total + Fraction(sign) * vec[a] * riem[
                                l, a, j, k
                            ] * structure.metric[l, m] * vec[m]
            return total

        frame_version = TensorField.build(chart, 0, 2, weighted_frame_sum)
        assert (structure.ricci(WEIGHTED_TRACE) - frame_version).is_zero()


def test_ricci_symmetric_both_modes(ex2, ex2_weighted):
    for structure in (ex2_weighted, ex2):
        ricci_tensor = structure.ricci()
        assert ricci_tensor.is_symmetric_down(0, 1)


def test_lie_derivative_values(ex1, ex2):
    lie1 = ex1.lie_derivative(ex1.xi)
    assert frame_value(ex1, lie1, 0, 0) == 2
    assert frame_value(ex1, lie1, 1, 1) == -2
    assert frame_value(ex1, lie1, 2, 2).is_zero()
    lie2 = ex2.lie_derivative(ex2.xi)
    assert frame_value(ex2, lie2, 2, 2).is_zero()


def test_killing_field_by_coordinate_absence(ex1):
    dx = TensorField.vector(
        ex1.chart, [Expr.one(ex1.chart), Expr.zero(ex1.chart), Expr.zero(ex1.chart)]
    )
    assert ex1.lie_derivative(dx).is_zero()


def test_lie_derivative_dual_formulas_agree(structures):
    for structure in structures.values():
        via_coordinates, via_connection = lie_derivative_two_ways(
            structure.metric, structure.xi, structure.nabla_xi()
        )
        assert (via_coordinates - via_connection).is_zero()
