"""Soliton residuals, constant solving, Einstein-like fits, torse-forming
detection, collinear potentials, semi-symmetry and parallel tensors.

Least-squares expectations are frozen from the hand-worked normal equations:
for the spacelike example B has frame diagonal (1, -1, -2), minimizing
(1 + l)^2 + (-1 + l)^2 + (-2 + l + m)^2 gives (l, m) = (0, 2) with residual
diagonal (1, -1, 0); for the timelike example under the plain frame-sum
Ricci, B = (-3, -1, -2) over g = (1, 1, -1) gives (2, 4) with residual
(-1, 1, 0).  Both norms are sqrt(2).
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import ALL_MANIFESTS
from families import paracontact_example, warped_soliton
from parasol.analysis import Analysis
from parasol.batch import PointBatch
from parasol.checks import FAIL, INAPPLICABLE, PASS
from parasol.manifest import load_manifest
from parasol.oracle import OracleConfig
from parasol.paracontact import ParacontactStructure
from parasol.solitons import (
    GENERAL,
    IRROTATIONAL_CASE_I,
    NOT_TORSE_FORMING,
    RECURRENT_CASE_II,
    EinsteinLikeConstants,
    RankDeficientError,
    SolitonData,
    collinear_potential_analysis,
    curvature_from_torse_forming,
    detect_torse_forming,
    einstein_like_fit,
    einstein_like_suite,
    fit_constants,
    parallel_tensor_check,
    semi_symmetry_residual,
    solve_soliton_constants,
    soliton_residual,
    torse_forming_constants,
    xi_consequence_suite,
    _frame_fit,
)
from parasol.symexpr import Expr, parse
from parasol.tensor import Frame, TensorField, contract


GOLDEN_MANIFESTS = Path(__file__).resolve().parent / "golden" / "manifests"


def frame_value(structure, tensor, i, j):
    total = Expr.zero(structure.chart)
    n = structure.chart.dimension
    for a in range(n):
        for b in range(n):
            total = total + tensor[a, b] * structure.frame[i][a] * structure.frame[j][b]
    return total


def outcome_map(outcomes):
    return {o.id: o for o in outcomes}


# ---------------------------------------------------------------------------
# soliton residual
# ---------------------------------------------------------------------------


def test_residual_vanishes_in_xi_slot_on_ex1(ex1):
    data = SolitonData(ex1.xi, Fraction(0), Fraction(2))
    residual = soliton_residual(ex1, data)
    assert frame_value(ex1, residual, 2, 2).is_zero()


def test_residual_off_xi_slots_on_ex1(ex1):
    # hand Koszul computation: (L_xi g)(E1, E1) = 2, (L_xi g)(E2, E2) = -2
    data = SolitonData(ex1.xi, Fraction(0), Fraction(2))
    residual = soliton_residual(ex1, data)
    assert frame_value(ex1, residual, 0, 0) == 1
    assert frame_value(ex1, residual, 1, 1) == -1


def test_flat_zero_potential_is_trivial_soliton(flat):
    zero_potential = TensorField.zero(flat.chart, 1, 0)
    data = SolitonData(zero_potential, Fraction(0), Fraction(0))
    assert soliton_residual(flat, data).is_zero()


# ---------------------------------------------------------------------------
# solving the constants
# ---------------------------------------------------------------------------


def test_solve_ex1_recovers_paper_constants(ex1):
    result = solve_soliton_constants(ex1, ex1.xi)
    assert (result.lam, result.mu) == (Fraction(0), Fraction(2))
    assert not result.exact
    assert result.frame_diagonal_constants == [1, -1, 0]
    assert sum(c * c for c in result.frame_diagonal_constants) == 2
    assert abs(result.residual_norm - math.sqrt(2)) <= 1e-12


def test_solve_ex2_paper_mode_recovers_paper_constants(ex2):
    result = solve_soliton_constants(ex2, ex2.xi)
    assert (result.lam, result.mu) == (Fraction(2), Fraction(4))
    assert not result.exact
    assert result.frame_diagonal_constants == [-1, 1, 0]
    assert sum(c * c for c in result.frame_diagonal_constants) == 2
    assert abs(result.residual_norm - math.sqrt(2)) <= 1e-12


def test_solve_ex2_weighted_mode_gives_different_minimizer(ex2_weighted):
    # under the tensorial contraction the minimizer is (0, 2), not (2, 4)
    result = solve_soliton_constants(ex2_weighted, ex2_weighted.xi)
    assert (result.lam, result.mu) == (Fraction(0), Fraction(2))
    assert result.frame_diagonal_constants == [-1, 1, 0]


def test_solve_flat_is_exact_trivial(flat):
    result = solve_soliton_constants(flat, flat.xi)
    assert result.exact
    assert (result.lam, result.mu) == (Fraction(0), Fraction(0))
    assert result.residual.is_zero()


def test_solve_warped_finds_exact_soliton(warped):
    result = solve_soliton_constants(warped, warped.xi)
    assert result.exact
    assert (result.lam, result.mu) == (Fraction(1), Fraction(1))


def test_solve_exact_iff_residual_zero(structures):
    for name in ("ex1_r3_spacelike", "flat_r3", "warped_r3"):
        structure = structures[name]
        result = solve_soliton_constants(structure, structure.xi)
        assert result.exact == result.residual.is_zero()


# ---------------------------------------------------------------------------
# Einstein-like fitting
# ---------------------------------------------------------------------------


def test_fit_ex1(ex1):
    fit = einstein_like_fit(ex1)
    assert fit.ok
    assert fit.constants == EinsteinLikeConstants(Fraction(0), Fraction(0), Fraction(-2))


def test_fit_ex2_paper_mode(ex2):
    fit = einstein_like_fit(ex2)
    assert fit.ok
    assert fit.constants == EinsteinLikeConstants(Fraction(-2), Fraction(0), Fraction(-4))


def test_fit_ex2_weighted_mode(ex2_weighted):
    fit = einstein_like_fit(ex2_weighted)
    assert fit.ok
    assert fit.constants == EinsteinLikeConstants(Fraction(0), Fraction(0), Fraction(-2))


def test_fit_flat_is_zero(flat):
    fit = einstein_like_fit(flat)
    assert fit.ok
    assert fit.constants == EinsteinLikeConstants(Fraction(0), Fraction(0), Fraction(0))


def test_fit_warped_is_einstein(warped):
    fit = einstein_like_fit(warped)
    assert fit.ok
    assert fit.constants == EinsteinLikeConstants(Fraction(-2), Fraction(0), Fraction(0))


def _einstein_basis(structure):
    """(g, g(phi ., .), eta (x) eta), the basis of the Einstein-like fit."""
    g = structure.metric.field
    return g, contract("mj,mi->ij", g, structure.phi), structure.eta_tensor_eta()


def test_fit_is_idempotent(ex1, ex2):
    for structure in (ex1, ex2):
        constants = einstein_like_fit(structure).constants
        g, phi_flat, eta_eta = basis = _einstein_basis(structure)
        reconstructed = (
            g.scale(constants.a) + phi_flat.scale(constants.b) + eta_eta.scale(constants.c)
        )
        refit, residual, _ = _frame_fit(structure, reconstructed, basis)
        assert residual.is_zero() and EinsteinLikeConstants(*refit) == constants


def test_fit_failure_returns_witness(warped):
    # dx (x) dx is not in the span of g, g(phi .,.), eta (x) eta on this chart
    chart = warped.chart
    bad = TensorField(
        chart,
        0,
        2,
        [parse(s, chart) for s in ["1", "0", "0", "0", "0", "0", "0", "0", "0"]],
    )
    _, residual, _ = _frame_fit(warped, bad, _einstein_basis(warped))
    assert not residual.is_zero()
    # a structure whose own Ricci tensor is not Einstein-like
    fit = einstein_like_fit(load_manifest(GOLDEN_MANIFESTS / "bumped_r3.json").structure())
    assert not fit.ok
    assert fit.witness_index is not None
    assert not fit.witness_residual.is_zero()


def test_torse_data_and_fit_are_cached_on_the_structure(structures):
    for structure in structures.values():
        assert detect_torse_forming(structure) is detect_torse_forming(structure)
        if structure.frame is not None:
            assert einstein_like_fit(structure) is einstein_like_fit(structure)


def test_a_rank_deficient_fit_is_cached_with_its_error(flat, normal_equation_designs):
    designs = normal_equation_designs
    broken = _degenerate_eta(flat)
    texts = []
    for _ in range(2):
        with pytest.raises(RankDeficientError) as error:
            einstein_like_fit(broken)
        texts.append(str(error.value))
    assert texts == ["normal equations are rank deficient"] * 2
    assert len(designs) == 1
    assert fit_constants(broken) is None
    assert len(designs) == 1


def test_fit_constants_is_none_unless_the_fit_is_exact(structures):
    assert fit_constants(structures["ex5d_r5_g1"]) is None  # no frame
    bumped = load_manifest(GOLDEN_MANIFESTS / "bumped_r3.json").structure()
    assert not einstein_like_fit(bumped).ok
    assert fit_constants(bumped) is None
    warped = structures["warped_r3"]
    assert fit_constants(warped) == EinsteinLikeConstants(Fraction(-2), Fraction(0), Fraction(0))


# ---------------------------------------------------------------------------
# Einstein-like identity suite
# ---------------------------------------------------------------------------


def test_suite_ex1_trace_and_scalar_identities(ex1):
    fit = einstein_like_fit(ex1)
    outcomes = outcome_map(
        einstein_like_suite(ex1, fit.constants, soliton=SolitonData(ex1.xi, Fraction(0), Fraction(2)))
    )
    # eps a + c = -2 = 1 - n with n = 3
    assert outcomes["el_eq_trace"].status == PASS
    assert outcomes["el_eq_scalar"].status == PASS
    for check_id in ("el_eq_phi_symmetry", "el_eq_phi_phi", "el_eq_s_xi", "el_eq_s_xi_xi",
                     "el_eq_nabla_s", "el_eq_nabla_q"):
        assert outcomes[check_id].status == PASS, check_id
    assert outcomes["el_codazzi"].symbolic_zero is False
    assert outcomes["el_codazzi_forces_einstein"].status == INAPPLICABLE
    # remark conditions eps + b = 0 etc. unmet on every bundled fixture
    assert outcomes["el_remark_soliton_transfer"].status == INAPPLICABLE


def test_suite_ex2_paper_mode_identities(ex2):
    fit = einstein_like_fit(ex2)
    outcomes = outcome_map(einstein_like_suite(ex2, fit.constants))
    # eps a + c = 2 - 4 = -2 = 1 - n and r = na + b tr(phi) + eps c = -6 + 4 = -2
    assert outcomes["el_eq_trace"].status == PASS
    assert outcomes["el_eq_scalar"].status == PASS


def test_suite_flat_trivial(flat):
    fit = einstein_like_fit(flat)
    outcomes = outcome_map(einstein_like_suite(flat, fit.constants))
    for check_id in ("el_eq_phi_symmetry", "el_eq_phi_phi", "el_eq_s_xi", "el_eq_s_xi_xi"):
        assert outcomes[check_id].status == PASS
    assert outcomes["el_eq_trace"].status == INAPPLICABLE
    assert outcomes["el_eq_scalar"].status == INAPPLICABLE


def test_suite_warped_codazzi_theorem_instance(warped):
    fit = einstein_like_fit(warped)
    outcomes = outcome_map(einstein_like_suite(warped, fit.constants))
    # Q = -2 I is parallel, hence Codazzi; with f = 1 != 0 the theorem forces c = 0
    assert outcomes["el_codazzi"].symbolic_zero is True
    assert outcomes["el_codazzi_forces_einstein"].status == PASS
    assert fit.constants.c == 0


def test_codazzi_with_nonzero_c_and_f_fails_the_theorem_instance(warped):
    # no manifest reaches c != 0 with f != 0 (warped products with an exact
    # Einstein-like fit have c = 0), so hypothetical constants pin the branch
    outcomes = outcome_map(
        einstein_like_suite(warped, EinsteinLikeConstants(Fraction(-2), Fraction(0), Fraction(1)))
    )
    forced = outcomes["el_codazzi_forces_einstein"]
    assert forced.status == FAIL
    assert forced.symbolic_zero is True
    assert forced.residual is None
    assert forced.details == "c = 1 != 0 and f != 0, so the Ricci operator must not be Codazzi"


# ---------------------------------------------------------------------------
# torse-forming detection and constants
# ---------------------------------------------------------------------------


def test_warped_is_torse_forming_with_f_one(warped):
    torse = detect_torse_forming(warped)
    assert torse.classification == GENERAL
    assert torse.f == 1
    assert (warped.eta.scale(-torse.f) + warped.eta).is_zero()  # w = -f eta = -eta
    assert torse.regular  # f^2 + xi(f) = 1
    assert torse.regularity == 1


def test_flat_xi_is_recurrent_case_ii(flat):
    torse = detect_torse_forming(flat)
    assert torse.classification == RECURRENT_CASE_II
    assert torse.f.is_zero()
    assert torse.regular is False


def test_ex1_is_not_torse_forming(ex1):
    # nabla_{E1} xi = E1 needs f = 1 while nabla_{E2} xi = -E2 needs f = -1
    torse = detect_torse_forming(ex1)
    assert torse.classification == NOT_TORSE_FORMING


def test_irrotational_case_detected():
    from parasol.chart import Chart
    from parasol.paracontact import ParacontactStructure
    from parasol.tensor import Metric

    # metric dz^2 + e^{-2z}(dx^2 + dy^2) has nabla_X xi = -phi^2 X, i.e. f = -1
    chart = Chart.make(["x", "y", "z"])
    g = Metric(
        TensorField(
            chart,
            0,
            2,
            [parse(s, chart) for s in
             ["exp(-2*z)", "0", "0", "0", "exp(-2*z)", "0", "0", "0", "1"]],
        )
    )
    structure = ParacontactStructure(
        phi=TensorField(chart, 1, 1, [parse(s, chart) for s in
                                      ["1", "0", "0", "0", "-1", "0", "0", "0", "0"]]),
        xi=TensorField.vector(chart, [parse(s, chart) for s in ["0", "0", "1"]]),
        eta=TensorField.oneform(chart, [parse(s, chart) for s in ["0", "0", "1"]]),
        metric=g,
    )
    torse = detect_torse_forming(structure)
    assert torse.classification == IRROTATIONAL_CASE_I
    assert torse.f == -1
    assert torse.regular  # f^2 + xi(f) = 1


def test_torse_forming_constants_theorem_values():
    # a = 0, lambda = eps/(n-1), n = 3 gives c = -1/2 and mu = 0 for both signs
    for eps in (1, -1):
        c, mu, check = torse_forming_constants(
            Fraction(0), Fraction(eps, 2), eps, 3
        )
        assert c == Fraction(-1, 2)
        assert mu == 0
        assert check == 0


def test_torse_forming_constants_degenerate_case():
    # a + lambda = 0 (f = 0): c = -eps a and mu = -eps lambda = eps a = -c
    for eps in (1, -1):
        a = Fraction(3)
        c, mu, check = torse_forming_constants(a, -a, eps, 3)
        assert c == -eps * a
        assert mu == eps * a == -c
        assert check == 0


def test_torse_constants_match_on_warped(warped):
    # non-vacuous instance: (a, lambda) = (-2, 1), eps = 1, n = 3
    fit = einstein_like_fit(warped)
    c, mu, check = torse_forming_constants(fit.constants.a, Fraction(1), 1, 3)
    assert c == fit.constants.c == 0
    assert mu == Fraction(1)
    assert check == 0


# ---------------------------------------------------------------------------
# V = xi consequence suite
# ---------------------------------------------------------------------------


def test_xi_consequences_on_ex1(ex1):
    outcomes = outcome_map(xi_consequence_suite(ex1, Fraction(0), Fraction(2)))
    assert outcomes["xi_eq12_constant"].status == PASS  # 1*(0+0) + (-2) + 2 = 0
    for check_id in (
        "xi_geodesic",
        "xi_nabla_phi_xi",
        "xi_nabla_eta",
        "xi_eq15_nabla_s",
        "xi_eq16_nabla_q",
        "xi_ps_nabla_s",
        "xi_ps_nabla_q",
    ):
        assert outcomes[check_id].status == PASS, check_id


def test_xi_consequences_on_flat_all_vanish(flat):
    outcomes = outcome_map(xi_consequence_suite(flat, Fraction(0), Fraction(0)))
    for check_id in ("xi_geodesic", "xi_nabla_phi_xi", "xi_nabla_eta",
                     "xi_eq15_nabla_s", "xi_eq16_nabla_q"):
        assert outcomes[check_id].status == PASS
    assert outcomes["xi_ps_nabla_s"].status == INAPPLICABLE


# ---------------------------------------------------------------------------
# collinear potential analysis
# ---------------------------------------------------------------------------


def test_collinear_gate_zero_on_ex1(ex1):
    outcomes = outcome_map(
        collinear_potential_analysis(ex1, Expr.one(ex1.chart), Fraction(0), Fraction(2))
    )
    assert outcomes["collinear_gate"].details == "eps (n - 1) - lambda - eps mu = 0"
    assert outcomes["collinear_k_constant"].status == PASS
    # the induced Einstein-like form differs off the xi-slots, like the residual
    assert outcomes["collinear_induced_ricci"].symbolic_zero is False


def test_collinear_gate_zero_on_ex2(ex2):
    outcomes = outcome_map(
        collinear_potential_analysis(ex2, Expr.one(ex2.chart), Fraction(2), Fraction(4))
    )
    # gate = eps(n-1) - lambda - eps mu = -2 - 2 + 4 = 0
    assert outcomes["collinear_gate"].details == "eps (n - 1) - lambda - eps mu = 0"
    assert outcomes["collinear_k_constant"].status == PASS


def test_collinear_nonzero_gate_reports_forced_derivative(ex1):
    outcomes = outcome_map(
        collinear_potential_analysis(ex1, Expr.one(ex1.chart), Fraction(1), Fraction(0))
    )
    # gate = 2 - 1 - 0 = 1 forces xi(k) = 1
    assert outcomes["collinear_gate"].details == "eps (n - 1) - lambda - eps mu = 1"
    assert "xi(k) = 1" in outcomes["collinear_forced_derivative"].details


def test_collinear_requires_para_sasakian(flat):
    outcomes = collinear_potential_analysis(flat, Expr.one(flat.chart), Fraction(0), Fraction(0))
    assert outcomes[0].status == INAPPLICABLE


# ---------------------------------------------------------------------------
# semi-symmetry
# ---------------------------------------------------------------------------


def test_semi_symmetry_zero_on_flat(flat):
    residual = semi_symmetry_residual(flat, flat.ricci()).build()
    assert residual.is_zero()


def test_semi_symmetry_zero_for_einstein_ricci(ex1):
    # with S = kappa g the residual cancels by metric antisymmetry of R
    kappa_g = ex1.metric.field.scale(Fraction(5))
    residual = semi_symmetry_residual(ex1, kappa_g).build()
    assert residual.is_zero()


def test_semi_symmetry_value_on_ex1(ex1):
    # S = -2 eta (x) eta, R(xi, E1)E1 = -xi, R(xi, E1)xi = E1:
    # residual(E1, E1, xi) = -S(xi, xi) + S(E1, E1) = 2
    residual = semi_symmetry_residual(ex1, ex1.ricci()).build()
    chart = ex1.chart
    value = Expr.zero(chart)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                value = value + residual[i, j, k] * ex1.frame[0][i] * ex1.frame[0][j] * ex1.xi[k]
    assert value == 2


def _plain_semi_symmetry(structure, riem, ricci_tensor):
    r_xi = contract("mlij,l->mij", riem, structure.xi)
    return contract("mk,mij+jm,mik->ijk", ricci_tensor, r_xi, ricci_tensor, r_xi)


def test_semi_symmetry_shares_nothing_for_asymmetric_tensor(ex1):
    # S + x (dx (x) dy - dy (x) dx) is not symmetric, so neither is the residual
    chart = ex1.chart
    zero, x = Expr.zero(chart), parse("x", chart)
    twist = TensorField(chart, 0, 2, [zero, x, zero, -x, zero, zero, zero, zero, zero])
    asymmetric = ex1.ricci() + twist
    assert not asymmetric.is_symmetric_down(0, 1)
    residual = semi_symmetry_residual(ex1, asymmetric).build()
    plain = _plain_semi_symmetry(ex1, ex1.riemann(), asymmetric)
    for (i, j, k), comp in residual.components():
        assert comp == plain[i, j, k] and str(comp) == str(plain[i, j, k])
    assert any(residual[i, j, k] != residual[i, k, j] for i, j, k in residual.indices())


# ---------------------------------------------------------------------------
# parallel symmetric (0,2) tensors
# ---------------------------------------------------------------------------


def test_alpha_three_g_is_parallel_with_zero_proportionality(ex1):
    alpha = ex1.metric.field.scale(Fraction(3))
    outcomes = outcome_map(parallel_tensor_check(ex1, alpha))
    assert outcomes["alpha_nabla_alpha"].symbolic_zero is True
    assert outcomes["alpha_ricci_identity"].symbolic_zero is True
    assert outcomes["alpha_proportionality"].status == PASS
    assert outcomes["alpha_proportionality"].symbolic_zero is True


def test_alpha_g_plus_eta_eta_not_parallel(ex1):
    alpha = ex1.metric.field + ex1.eta_tensor_eta()
    outcomes = outcome_map(parallel_tensor_check(ex1, alpha))
    # nabla eta != 0 since nabla xi = phi != 0
    assert outcomes["alpha_nabla_alpha"].symbolic_zero is False
    assert outcomes["alpha_proportionality"].status == INAPPLICABLE


def test_alpha_dx_dx_on_flat(flat):
    chart = flat.chart
    alpha = TensorField(
        chart,
        0,
        2,
        [parse(s, chart) for s in ["1", "0", "0", "0", "0", "0", "0", "0", "0"]],
    )
    outcomes = outcome_map(parallel_tensor_check(flat, alpha))
    assert outcomes["alpha_nabla_alpha"].symbolic_zero is True
    assert outcomes["alpha_ricci_identity"].symbolic_zero is True
    # flat xi is torse-forming with f = 0, hence not regular: theorem inapplicable
    assert outcomes["alpha_proportionality"].status == INAPPLICABLE


def _soliton_combination(structure, mu):
    half = Expr.constant(structure.chart, "1/2")
    return (
        structure.lie_derivative(structure.xi).scale(half)
        + structure.ricci()
        + structure.eta_tensor_eta().scale(mu)
    )


def test_soliton_link_on_warped(warped):
    mu = Fraction(1)
    alpha = _soliton_combination(warped, mu)
    outcomes = outcome_map(parallel_tensor_check(warped, alpha, mu_link=mu))
    assert outcomes["alpha_nabla_alpha"].symbolic_zero is True  # alpha = -g
    link = outcomes["alpha_soliton_link"]
    assert link.status == PASS
    # = -(a + eps(c + mu)) = -(-2 + 1)
    assert link.details.startswith("implied lambda = -eps alpha(xi, xi) = 1;")
    assert link.symbolic_zero is True  # soliton equation holds at (1, 1)
    assert outcomes["alpha_proportionality"].status == PASS


def test_soliton_link_on_ex1_not_parallel_not_soliton(ex1):
    mu = Fraction(2)
    alpha = _soliton_combination(ex1, mu)
    outcomes = outcome_map(parallel_tensor_check(ex1, alpha, mu_link=mu))
    link = outcomes["alpha_soliton_link"]
    # implied lambda = 0 = -(a + eps(c + mu)); neither parallel nor a soliton,
    # so the equivalence of the theorem is respected
    assert link.details.startswith("implied lambda = -eps alpha(xi, xi) = 0;")
    assert link.status == PASS
    assert link.symbolic_zero is False
    assert outcomes["alpha_nabla_alpha"].symbolic_zero is False


def test_soliton_link_on_ex2_paper_mode(ex2):
    mu = Fraction(4)
    alpha = _soliton_combination(ex2, mu)
    outcomes = outcome_map(parallel_tensor_check(ex2, alpha, mu_link=mu))
    link = outcomes["alpha_soliton_link"]
    assert link.details.startswith("implied lambda = -eps alpha(xi, xi) = 2;")
    assert "match" in link.details
    assert link.status == PASS


def test_parallel_rejects_asymmetric_alpha(flat):
    from parasol.tensor import ValenceError

    chart = flat.chart
    asymmetric = TensorField(
        chart,
        0,
        2,
        [parse(s, chart) for s in ["0", "1", "0", "0", "0", "0", "0", "0", "0"]],
    )
    with pytest.raises(ValenceError):
        parallel_tensor_check(flat, asymmetric)


# ---------------------------------------------------------------------------
# curvature from torse-forming xi
# ---------------------------------------------------------------------------


def test_curvature_form_trivial_on_flat(flat):
    outcomes = outcome_map(curvature_from_torse_forming(flat))
    assert outcomes["torse_eq52_curvature"].status == PASS


def test_curvature_form_on_warped(warped):
    outcomes = outcome_map(curvature_from_torse_forming(warped))
    # R(X, Y) xi = eta(X) Y - eta(Y) X with f = 1
    assert outcomes["torse_eq52_curvature"].status == PASS
    assert outcomes["torse_eq52_curvature"].symbolic_zero is True


def test_eq24_25_on_warped_with_hypothetical_constant(warped):
    # lambda = 1 with the fitted a = -2 gives a + lambda = -1 = -f:
    # S(X, xi) = (a+lambda)^2 (1-n) eta(X) = -2 eta(X)
    outcomes = outcome_map(curvature_from_torse_forming(warped, Fraction(1)))
    assert outcomes["torse_eq24_25"].status == PASS
    assert outcomes["torse_eq24_25"].details.endswith("with a + lambda = -1")


def test_eq24_25_inapplicable_without_fit(warped):
    # no declared lambda, or one with f + a + lambda != 0: no soliton fit
    for lam in (None, Fraction(2)):
        outcomes = outcome_map(curvature_from_torse_forming(warped, lam))
        assert outcomes["torse_eq24_25"].status == INAPPLICABLE
        assert outcomes["torse_eq24_25"].details.endswith("no eta-Einstein soliton fit supplied")


# ---------------------------------------------------------------------------
# degenerate designs
# ---------------------------------------------------------------------------


def _degenerate_eta(flat):
    """flat_r3 with eta = x dz, which vanishes at the base point: the eta (x) eta rows are zero."""
    chart = flat.chart
    return ParacontactStructure(
        phi=flat.phi,
        xi=flat.xi,
        eta=TensorField.oneform(chart, [parse(s, chart) for s in ["0", "0", "x"]]),
        metric=flat.metric,
        frame=Frame(list(flat.frame)),
    )


def test_solve_rank_deficient_on_degenerate_eta(flat):
    # the eta (x) eta rows are zero, so the normal equations lose rank
    broken = _degenerate_eta(flat)
    with pytest.raises(RankDeficientError):
        solve_soliton_constants(broken, broken.xi)


def test_solve_with_position_dependent_potential(warped):
    # potential x d_x makes the residual z-dependent: the solver must fall
    # back to floating norms and still verify the base-point guard
    chart = warped.chart
    potential = TensorField.vector(
        chart, [parse(s, chart) for s in ["x", "0", "0"]]
    )
    result = solve_soliton_constants(warped, potential)
    assert not result.exact
    assert result.residual_norm > 0.0


def test_exact_normal_equations_match_numpy_lstsq():
    import random

    import numpy as np

    from parasol.solitons import solve_normal_equations

    rng = random.Random(13)
    for _ in range(25):
        rows = [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2)]
            for _ in range(4)
        ]
        rhs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)]
        matrix = np.array([[float(v) for v in row] for row in rows])
        if np.linalg.matrix_rank(matrix) < 2:
            continue
        exact = solve_normal_equations(rows, rhs)
        expected, *_ = np.linalg.lstsq(matrix, np.array([float(v) for v in rhs]), rcond=None)
        assert abs(float(exact[0]) - expected[0]) <= 1e-9
        assert abs(float(exact[1]) - expected[1]) <= 1e-9


# every framed manifest, and Families 1 and 2 at n = 5 as manifest dicts
FRAMED_SOURCES = [
    pytest.param(path, id=path.stem)
    for path in ALL_MANIFESTS
    if load_manifest(path).frame is not None
] + [
    pytest.param(paracontact_example(2, 1), id="family_1_n5"),
    pytest.param(warped_soliton(2, 1), id="family_2_n5"),
]


def _assert_same_residual(actual: TensorField, expected: TensorField, points) -> None:
    """Equal printed components and equal float bits at every point."""
    assert [str(c) for _, c in actual.components()] == [str(c) for _, c in expected.components()]
    batch = PointBatch(actual.chart, points)
    values, degenerate = actual.numeric_many(batch)
    expected_values, expected_degenerate = expected.numeric_many(batch)
    assert values.tobytes() == expected_values.tobytes()
    assert degenerate.tolist() == expected_degenerate.tolist()


@pytest.mark.parametrize("source", FRAMED_SOURCES)
def test_fit_residuals_keep_their_bits(source, tmp_path):
    # the fits subtract the fitted basis from the target; the soliton solve
    # fits B, so its residual must equal B + lambda g + mu eta(x)eta bit for bit
    if isinstance(source, dict):
        source_path = tmp_path / (source["name"] + ".json")
        source_path.write_text(json.dumps(source), encoding="utf-8")
        source = source_path
    analysis = Analysis(load_manifest(source), OracleConfig())
    s, points = analysis.structure, analysis.sample_points()
    assert points
    potential = analysis.potential or s.xi
    solved = solve_soliton_constants(s, potential)
    _assert_same_residual(
        solved.residual,
        soliton_residual(s, SolitonData(potential, solved.lam, solved.mu)),
        points,
    )
    fit = einstein_like_fit(s)
    g, phi_flat, eta_eta = _einstein_basis(s)
    a, b, c = fit.constants.a, fit.constants.b, fit.constants.c
    _assert_same_residual(
        fit.residual, s.ricci() - g.scale(a) - phi_flat.scale(b) - eta_eta.scale(c), points
    )


def test_solve_exactness_consistent_with_residual_operation(structures):
    # the solver's exact flag must agree with the independent residual
    # operation evaluated at the returned constants
    for name in ("ex1_r3_spacelike", "ex2_r3_timelike", "flat_r3", "warped_r3"):
        structure = structures[name]
        result = solve_soliton_constants(structure, structure.xi)
        data = SolitonData(structure.xi, result.lam, result.mu)
        assert result.exact == soliton_residual(structure, data).is_zero()


def test_solve_flat_with_zero_potential_is_exact(flat):
    zero_potential = TensorField.zero(flat.chart, 1, 0)
    result = solve_soliton_constants(flat, zero_potential)
    assert result.exact
    assert (result.lam, result.mu) == (Fraction(0), Fraction(0))
