"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds; tolerances are
pinned here and nowhere else.  Symbolic criteria use exact equality (zero
tolerance); numeric criteria state their bound inline.
"""

import json
import math
from fractions import Fraction
from pathlib import Path


from parasol.checks import PASS
from parasol.connection import (
    PAPER_FRAME_SUM,
    WEIGHTED_TRACE,
    covariant_derivative,
    covariant_derivative_along,
    lie_derivative_two_ways,
    scalar_curvature,
)
from parasol.oracle import OracleConfig, StencilSampler, compare, oracle_sample_points
from parasol.paracontact import (
    is_para_sasakian,
    sasakian_identity_suite,
    validate_axioms,
    validate_metric_compat,
)
from parasol.solitons import (
    GENERAL,
    NOT_TORSE_FORMING,
    RECURRENT_CASE_II,
    SolitonData,
    detect_torse_forming,
    einstein_like_fit,
    einstein_like_suite,
    fit_constants,
    parallel_tensor_check,
    solve_soliton_constants,
    soliton_residual,
    torse_forming_constants,
    xi_consequence_suite,
)
from parasol.symexpr import Expr, parse
from parasol.tensor import TensorField, signature_at

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def announce(number, text):
    print("ACCEPTANCE %2d: PASS - %s" % (number, text))


def frame_value(structure, tensor, i, j):
    total = Expr.zero(structure.chart)
    n = structure.chart.dimension
    for a in range(n):
        for b in range(n):
            total = total + tensor[a, b] * structure.frame[i][a] * structure.frame[j][b]
    return total


def outcome_map(outcomes):
    return {o.id: o for o in outcomes}


def test_criterion_01_five_dimensional_example(structures):
    g1 = structures["ex5d_r5_g1"]
    g2 = structures["ex5d_r5_g2"]
    for structure in (g1, g2):
        for outcome in validate_axioms(structure) + validate_metric_compat(structure):
            assert outcome.status == PASS, outcome.id
    assert g1.epsilon == -1 and g2.epsilon == 1
    # det g1 = -1 identically; index 1 at 10 seeded points
    assert g1.metric.determinant == Expr.constant(g1.chart, -1)
    for point in g1.chart.sample_points(10, seed=42):
        assert signature_at(g1.metric, point).index == 1
    # g2: index 2 at the origin, 3 beyond the degeneracy locus det = 1 + y^2 - t^2
    assert g2.metric.determinant == parse("1 + y^2 - t^2", g2.chart)
    assert signature_at(g2.metric, [0.0] * 5).index == 2
    assert signature_at(g2.metric, {"x": 0, "y": 0, "z": 0, "t": 2.0, "s": 0}).index == 3
    # the validate report flags the nonconstant determinant and its zero locus
    from parasol.analysis import Analysis, cmd_validate
    from parasol.manifest import load_manifest
    from conftest import fixture_path

    report = cmd_validate(Analysis(load_manifest(fixture_path("ex5d_r5_g2")), OracleConfig()))
    locus = next(c for c in report.checks if c.id == "degeneracy_locus")
    assert "y^2 - t^2 + 1" in locus.details
    announce(1, "R^5 example: axioms, compatibility, epsilon, signatures, locus")


EX1_CONNECTION_TABLE = {
    (0, 0): {2: -1}, (0, 1): {}, (0, 2): {0: 1},
    (1, 0): {}, (1, 1): {2: 1}, (1, 2): {1: -1},
    (2, 0): {}, (2, 1): {}, (2, 2): {},
}
EX1_RIEMANN_TABLE = {
    (0, 1, 1): {0: 1}, (0, 2, 2): {0: -1}, (1, 0, 0): {1: 1},
    (1, 2, 2): {1: -1}, (2, 0, 0): {2: -1}, (2, 1, 1): {2: -1},
}
EX2_CONNECTION_TABLE = {
    (0, 0): {2: -1}, (0, 1): {}, (0, 2): {0: -1},
    (1, 0): {}, (1, 1): {2: 1}, (1, 2): {1: 1},
    (2, 0): {}, (2, 1): {}, (2, 2): {},
}
EX2_RIEMANN_TABLE = {
    (0, 1, 1): {0: -1}, (0, 2, 2): {0: -1}, (1, 0, 0): {1: -1},
    (1, 2, 2): {1: -1}, (2, 0, 0): {2: 1}, (2, 1, 1): {2: 1},
}


def _check_tables(structure, connection_table, riemann_table):
    def combination(coefficients):
        total = TensorField.zero(structure.chart, 1, 0)
        for index, coeff in coefficients.items():
            total = total + structure.frame[index].scale(Fraction(coeff))
        return total

    for (i, j), coefficients in connection_table.items():
        value = covariant_derivative_along(
            structure.frame[j], structure.connection(), structure.frame[i]
        )
        assert (value - combination(coefficients)).is_zero(), "nabla_E%d E%d" % (i + 1, j + 1)
    riem = structure.riemann()
    n = structure.chart.dimension
    for (i, j, k), coefficients in riemann_table.items():
        def entry(idx):
            (l,) = idx
            total = Expr.zero(structure.chart)
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        total = total + riem[l, a, b, c] * structure.frame[i][a] * \
                            structure.frame[j][b] * structure.frame[k][c]
            return total

        value = TensorField.build(structure.chart, 1, 0, entry)
        assert (value - combination(coefficients)).is_zero(), "R(E%d,E%d)E%d" % (i + 1, j + 1, k + 1)


def test_criterion_02_example_one_tables(ex1):
    _check_tables(ex1, EX1_CONNECTION_TABLE, EX1_RIEMANN_TABLE)
    ricci = ex1.ricci(WEIGHTED_TRACE)
    assert [frame_value(ex1, ricci, i, i) for i in range(3)] == [0, 0, -2]
    announce(2, "example 1: 9 connection values, 6 Riemann values, Ricci (0, 0, -2)")


def test_criterion_03_example_two_tables_and_goldens(ex2):
    _check_tables(ex2, EX2_CONNECTION_TABLE, EX2_RIEMANN_TABLE)
    paper = ex2.ricci(PAPER_FRAME_SUM)
    weighted = ex2.ricci(WEIGHTED_TRACE)
    assert [frame_value(ex2, paper, i, i) for i in range(3)] == [-2, -2, -2]
    assert [frame_value(ex2, weighted, i, i) for i in range(3)] == [0, 0, -2]
    # both diagonals are frozen bit-exactly in the golden curvature reports
    paper_golden = json.loads((GOLDEN_DIR / "ex2_r3_timelike__curvature_paper.json").read_text())
    weighted_golden = json.loads(
        (GOLDEN_DIR / "ex2_r3_timelike__curvature_weighted.json").read_text()
    )
    paper_diag = next(c for c in paper_golden["checks"] if c["id"] == "ricci_frame_diagonal")
    weighted_diag = next(c for c in weighted_golden["checks"] if c["id"] == "ricci_frame_diagonal")
    assert "S(E1,E1)=-2, S(E2,E2)=-2, S(E3,E3)=-2" in paper_diag["details"]
    assert "S(E1,E1)=0, S(E2,E2)=0, S(E3,E3)=-2" in weighted_diag["details"]
    announce(3, "example 2: tables plus both Ricci modes in golden reports")


def test_criterion_04_para_sasakian_suites(ex1, ex2):
    for structure in (ex1, ex2):
        for outcome in is_para_sasakian(structure):
            assert outcome.status == PASS
        outcomes = outcome_map(sasakian_identity_suite(structure))
        for check_id, outcome in outcomes.items():
            assert outcome.status == PASS, check_id
        # S(X, xi) = -(n-1) eta(X) = -2 eta(X) in dimension 3
        ricci = structure.ricci(WEIGHTED_TRACE)
        s_xi = TensorField.build(
            structure.chart,
            0,
            1,
            lambda idx: sum(
                (ricci[idx[0], j] * structure.xi[j] for j in range(3)),
                Expr.zero(structure.chart),
            ),
        )
        assert (s_xi - structure.eta.scale(-2)).is_zero()
    announce(4, "para-Sasakian condition and curvature identities on both fixtures")


def test_criterion_05_soliton_constants(ex1, ex2):
    result1 = solve_soliton_constants(ex1, ex1.xi)
    assert (result1.lam, result1.mu) == (Fraction(0), Fraction(2))
    assert result1.frame_diagonal_constants == [1, -1, 0]
    assert abs(result1.residual_norm - math.sqrt(2)) <= 1e-12
    result2 = solve_soliton_constants(ex2, ex2.xi)
    assert (result2.lam, result2.mu) == (Fraction(2), Fraction(4))
    assert result2.frame_diagonal_constants == [-1, 1, 0]
    assert abs(result2.residual_norm - math.sqrt(2)) <= 1e-12
    announce(5, "soliton constants (0, 2) and (2, 4) with residual norm sqrt(2)")


def test_criterion_06_einstein_like_fits(ex1, ex2):
    fit1 = einstein_like_fit(ex1)
    assert fit1.ok and (fit1.constants.a, fit1.constants.b, fit1.constants.c) == (0, 0, -2)
    fit2 = einstein_like_fit(ex2)
    assert fit2.ok and (fit2.constants.a, fit2.constants.b, fit2.constants.c) == (-2, 0, -4)
    for structure, fit in ((ex1, fit1), (ex2, fit2)):
        outcomes = outcome_map(einstein_like_suite(structure, fit.constants))
        assert outcomes["el_eq_trace"].status == PASS  # eps a + c = 1 - n
        assert outcomes["el_eq_scalar"].status == PASS  # r = na + b tr(phi) + eps c
    announce(6, "Einstein-like fits (0, 0, -2) and (-2, 0, -4) with exact identities")


def test_criterion_07_torse_forming_theorem_constants():
    for eps in (1, -1):
        c, mu, check = torse_forming_constants(Fraction(0), Fraction(eps, 2), eps, 3)
        assert c == Fraction(-1, 2)
        assert mu == 0
        assert check == 0
    announce(7, "torse-forming theorem constants c = -1/2, mu = 0 for eps = +/-1")


def test_criterion_08_torse_forming_detection(warped, flat, ex1):
    torse_warped = detect_torse_forming(warped)
    assert torse_warped.classification == GENERAL
    assert torse_warped.f == 1
    assert (warped.eta.scale(-torse_warped.f) + warped.eta).is_zero()  # w = -f eta
    assert torse_warped.regular
    torse_flat = detect_torse_forming(flat)
    assert torse_flat.classification == RECURRENT_CASE_II
    assert torse_flat.f.is_zero() and torse_flat.regular is False
    assert detect_torse_forming(ex1).classification == NOT_TORSE_FORMING
    announce(8, "torse-forming detection: warped f=1 regular, flat case II, ex1 negative")


def test_criterion_09_property_suites_every_fixture(structures):
    for name, structure in structures.items():
        n = structure.chart.dimension
        gamma = structure.connection()
        for k in range(n):
            for i in range(n):
                for j in range(i + 1, n):
                    assert (gamma[k, i, j] - gamma[k, j, i]).is_zero(), name
        assert covariant_derivative(structure.metric.field, structure.connection()).is_zero(), name
        riem = structure.riemann()
        antisymmetry = TensorField.build(
            structure.chart,
            1,
            3,
            lambda idx: riem[idx[0], idx[1], idx[2], idx[3]]
            + riem[idx[0], idx[2], idx[1], idx[3]],
        )
        assert antisymmetry.is_zero(), name
        bianchi = TensorField.build(
            structure.chart,
            1,
            3,
            lambda idx: riem[idx[0], idx[1], idx[2], idx[3]]
            + riem[idx[0], idx[2], idx[3], idx[1]]
            + riem[idx[0], idx[3], idx[1], idx[2]],
        )
        assert bianchi.is_zero(), name
        ricci = structure.ricci(WEIGHTED_TRACE)
        assert ricci.is_symmetric_down(0, 1), name
        via_coordinates, via_connection = lie_derivative_two_ways(
            structure.metric, structure.xi, structure.nabla_xi()
        )
        assert (via_coordinates - via_connection).is_zero(), name
    announce(9, "symbolic property suites hold on every fixture")


def test_criterion_10_oracle_agreement(structures):
    cfg = OracleConfig(h=1e-4, seed=42, tolerance=1e-6)
    for name, structure in structures.items():
        # one sampler fills each sample point's stencils once for all three references
        points, references = oracle_sample_points(StencilSampler(structure.metric, cfg.h), cfg.seed)
        assert len(points) == 10, name
        for reference, symbolic in (
            ("christoffel", structure.connection()),
            ("riemann", structure.riemann()),
            ("ricci", structure.ricci(WEIGHTED_TRACE)),
        ):
            deviation = compare(symbolic, references[reference], points)
            assert deviation <= cfg.tolerance, (name, reference, deviation)
    # O(h^2): halving h improves the example-1 Christoffel agreement by [3, 5]
    ex1 = structures["ex1_r3_spacelike"]
    points, references = oracle_sample_points(StencilSampler(ex1.metric, cfg.h), cfg.seed)
    gamma = ex1.connection()
    coarse = compare(gamma, references["christoffel"], points)
    sound, half_step = StencilSampler(ex1.metric, cfg.h / 2.0).judge(points)
    assert all(sound)
    fine = compare(gamma, half_step["christoffel"], points)
    ratio = coarse / fine
    assert 3.0 <= ratio <= 5.0, ratio
    announce(10, "oracle agreement within 1e-6 on all fixtures; h-scaling ratio %.3f" % ratio)


def test_criterion_11_parallel_tensor_theorems(ex1, ex2, warped):
    # alpha = 3g: parallel with vanishing proportionality residual
    outcomes = outcome_map(
        parallel_tensor_check(ex1, ex1.metric.field.scale(Fraction(3)))
    )
    assert outcomes["alpha_nabla_alpha"].symbolic_zero is True
    assert outcomes["alpha_proportionality"].status == PASS
    # alpha = g + eta (x) eta on example 1: not parallel
    outcomes = outcome_map(parallel_tensor_check(ex1, ex1.metric.field + ex1.eta_tensor_eta()))
    assert outcomes["alpha_nabla_alpha"].symbolic_zero is False
    # lambda = -eps alpha(xi, xi) = -(a + eps(c + mu)) for the soliton combination
    half = Expr.constant(ex1.chart, "1/2")
    expectations = [
        (ex1, Fraction(2), Fraction(0)),
        (ex2, Fraction(4), Fraction(2)),
        (warped, Fraction(1), Fraction(1)),
    ]
    for structure, mu, lam_expected in expectations:
        alpha = (
            structure.lie_derivative(structure.xi).scale(half)
            + structure.ricci()
            + structure.eta_tensor_eta().scale(mu)
        )
        outcomes = outcome_map(parallel_tensor_check(structure, alpha, mu_link=mu))
        link = outcomes["alpha_soliton_link"]
        assert link.status == PASS
        assert link.details.startswith("implied lambda = -eps alpha(xi, xi) = %s;" % lam_expected)
        constants = fit_constants(structure)
        predicted = -(constants.a + structure.epsilon * (constants.c + mu))
        assert predicted == lam_expected
    announce(11, "parallel tensor theorems and lambda = -(a + eps(c + mu)) instances")


def test_criterion_12_xi_consequences_on_example_one(ex1):
    outcomes = outcome_map(xi_consequence_suite(ex1, Fraction(0), Fraction(2)))
    assert outcomes["xi_eq12_constant"].status == PASS
    assert outcomes["xi_geodesic"].status == PASS and outcomes["xi_geodesic"].symbolic_zero
    assert outcomes["xi_ps_nabla_s"].status == PASS and outcomes["xi_ps_nabla_s"].symbolic_zero
    assert outcomes["xi_ps_nabla_q"].status == PASS
    announce(12, "V = xi consequences: eq-12 value 0, geodesic xi, parallel Ricci along xi")
