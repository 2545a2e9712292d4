"""Structure axioms, epsilon detection, para-Sasakian suites."""

from fractions import Fraction

import pytest

from parasol.checks import FAIL, INAPPLICABLE, PASS
from parasol.paracontact import (
    ParacontactStructure,
    StructureError,
    detect_epsilon,
    is_para_sasakian,
    sasakian_identity_suite,
    validate_axioms,
    validate_metric_compat,
)
from parasol.solitons import xi_consequence_suite
from parasol.symexpr import parse
from parasol.tensor import TensorField


def outcome_map(outcomes):
    return {o.id: o for o in outcomes}


def all_pass(outcomes):
    return all(o.status == PASS for o in outcomes)


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------


def test_axioms_pass_on_five_dimensional_example(structures):
    for name in ("ex5d_r5_g1", "ex5d_r5_g2"):
        assert all_pass(validate_axioms(structures[name]))


def test_axioms_pass_on_three_dimensional_example(ex1):
    assert all_pass(validate_axioms(ex1))


def test_validation_suites_hand_out_fresh_lists(ex1):
    # the outcomes are cached on the structure; a caller's edits must not reach it
    for suite, count in ((validate_axioms, 4), (validate_metric_compat, 3)):
        suite(ex1).clear()
        assert len(suite(ex1)) == count


def test_flipped_phi_sign_fails_exactly_phi_square(flat):
    chart = flat.chart
    # swap-type phi with one flipped sign squares to -I on the distribution,
    # breaking phi^2 = I - eta (x) xi while the other three axioms still hold
    comps = [parse(s, chart) for s in ["0", "-1", "0", "1", "0", "0", "0", "0", "0"]]
    broken = ParacontactStructure(
        phi=TensorField(chart, 1, 1, comps),
        xi=flat.xi,
        eta=flat.eta,
        metric=flat.metric,
    )
    outcomes = outcome_map(validate_axioms(broken))
    assert outcomes["axiom_phi_square"].status == FAIL
    assert outcomes["axiom_eta_xi"].status == PASS
    assert outcomes["axiom_phi_xi"].status == PASS
    assert outcomes["axiom_eta_phi"].status == PASS


# ---------------------------------------------------------------------------
# epsilon detection
# ---------------------------------------------------------------------------


def test_detect_epsilon_values(structures):
    assert structures["ex1_r3_spacelike"].epsilon == 1
    assert structures["ex2_r3_timelike"].epsilon == -1
    assert structures["ex5d_r5_g1"].epsilon == -1
    assert structures["ex5d_r5_g2"].epsilon == 1


def test_detect_epsilon_rejects_non_unit_norm(flat):
    chart = flat.chart
    doubled = flat.xi.scale(2)
    with pytest.raises(StructureError, match="not the constant"):
        detect_epsilon(flat.metric, doubled)


def test_declared_epsilon_mismatch_is_hard_error(flat):
    with pytest.raises(StructureError, match="disagrees"):
        ParacontactStructure(
            phi=flat.phi, xi=flat.xi, eta=flat.eta, metric=flat.metric, epsilon=-1
        )


# ---------------------------------------------------------------------------
# metric compatibility
# ---------------------------------------------------------------------------


def test_compat_passes_on_fixtures(structures):
    for name in ("ex5d_r5_g2", "ex2_r3_timelike", "flat_r3"):
        assert all_pass(validate_metric_compat(structures[name]))


def test_compat_passes_on_euclidean_with_example_structure(flat):
    # Euclidean g with the example (phi, xi, eta) is compatible;
    # the para-Sasakian test is what fails on it.
    assert all_pass(validate_metric_compat(flat))
    assert not all_pass(is_para_sasakian(flat))


# ---------------------------------------------------------------------------
# para-Sasakian condition
# ---------------------------------------------------------------------------


def test_para_sasakian_passes_on_both_r3_examples(ex1, ex2):
    assert all_pass(is_para_sasakian(ex1))
    assert all_pass(is_para_sasakian(ex2))


def test_flat_fails_with_vanishing_nabla_xi(flat):
    outcomes = outcome_map(is_para_sasakian(flat))
    assert outcomes["para_sasakian_nabla_xi"].status == FAIL
    # nabla xi = 0 on flat space, so the residual is exactly -eps phi
    residual = outcomes["para_sasakian_nabla_xi"].residual
    expected = flat.phi.scale(-flat.epsilon)
    assert (residual - expected).is_zero()


def test_identity_suite_passes_on_r3_fixtures(ex1, ex2):
    for structure in (ex1, ex2):
        outcomes = outcome_map(sasakian_identity_suite(structure))
        assert all(o.status == PASS for o in outcomes.values())
        # S(X, xi) = -(n - 1) eta(X) with n = 3
        assert outcomes["ps_identity_s_xi"].symbolic_zero


def test_identity_suite_is_inapplicable_on_flat(flat):
    # the identities assume a para-Sasakian structure, which flat space is not
    outcomes = sasakian_identity_suite(flat)
    assert [o.id for o in outcomes] == [
        "ps_identity_r_xy_xi", "ps_identity_r_xi_x", "ps_identity_eta_r", "ps_identity_s_xi"
    ]
    for outcome in outcomes:
        assert outcome.status == INAPPLICABLE and outcome.residual is None
        assert outcome.details == "structure is not para-Sasakian"


def test_xi_is_geodesic_on_para_sasakian_fixtures(ex1, ex2):
    # one row, in the V = xi suite: nabla xi = eps phi and phi xi = 0 give it
    for structure in (ex1, ex2):
        assert "xi_geodesic" not in outcome_map(sasakian_identity_suite(structure))
        outcomes = outcome_map(xi_consequence_suite(structure, Fraction(0), Fraction(0)))
        assert outcomes["xi_geodesic"].status == PASS


def test_suites_are_deterministic(ex1):
    first = [(o.id, o.status, o.symbolic_zero) for o in validate_axioms(ex1)]
    second = [(o.id, o.status, o.symbolic_zero) for o in validate_axioms(ex1)]
    assert first == second


def test_para_sasakian_requires_valid_structure(flat):
    # a structure failing the axioms cannot be tested for the
    # para-Sasakian condition: that is a precondition violation
    chart = flat.chart
    comps = [parse(s, chart) for s in ["0", "-1", "0", "1", "0", "0", "0", "0", "0"]]
    broken = ParacontactStructure(
        phi=TensorField(chart, 1, 1, comps),
        xi=flat.xi,
        eta=flat.eta,
        metric=flat.metric,
    )
    with pytest.raises(StructureError, match="axiom"):
        is_para_sasakian(broken)

