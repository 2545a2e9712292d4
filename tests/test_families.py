"""The closed forms of the two generated families (``tests/families.py``) up to n = 9.

Family 1 (the paper's example at n = 2m + 1), with the Ricci tensor in the
weighted trace for both epsilon: S = (1 - n) eta(x)eta, so the Einstein-like
fit is (a, b, c) = (0, 0, 1 - n) and the least-squares soliton constants are
(lambda, mu) = (0, n - 1).  In the paper's frame sum with epsilon = -1 the
fit is (-2, 0, -(n + 1)) and the constants (2, n + 1); both modes satisfy
epsilon a + c = 1 - n.  Family 1 is no exact soliton.  Family 2 (warped) is
an exact one with lambda = k^2 (n - 1) - k and mu = k.
"""

import json
from fractions import Fraction

import pytest

from conftest import fixture_path
from families import paracontact_example, warped_soliton
from parasol.connection import PAPER_FRAME_SUM, WEIGHTED_TRACE
from parasol.manifest import load_manifest
from parasol.solitons import einstein_like_fit, solve_soliton_constants


def _structure(manifest: dict, tmp_path, mode: str):
    path = tmp_path / (manifest["name"] + ".json")
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return load_manifest(path, overrides={"ricci_mode": mode}).structure()


def _fit_and_solve(structure):
    fit = einstein_like_fit(structure)
    assert fit.ok
    constants = fit.constants
    solved = solve_soliton_constants(structure, structure.xi)
    return (constants.a, constants.b, constants.c), (solved.lam, solved.mu), solved.exact


@pytest.mark.parametrize("n", [3, 5, 7, 9])
@pytest.mark.parametrize("epsilon", [1, -1])
def test_family_1_in_the_weighted_trace(n, epsilon, tmp_path):
    structure = _structure(paracontact_example((n - 1) // 2, epsilon), tmp_path, WEIGHTED_TRACE)
    assert structure.epsilon == epsilon
    abc, pair, exact = _fit_and_solve(structure)
    assert abc == (0, 0, 1 - n)
    assert pair == (0, n - 1)
    assert not exact


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_family_1_timelike_in_the_paper_frame_sum(n, tmp_path):
    structure = _structure(paracontact_example((n - 1) // 2, -1), tmp_path, PAPER_FRAME_SUM)
    assert structure.ricci_mode == PAPER_FRAME_SUM
    abc, pair, exact = _fit_and_solve(structure)
    assert abc == (-2, 0, -(n + 1))
    assert pair == (2, n + 1)
    assert -abc[0] + abc[2] == 1 - n
    assert not exact


@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("k", [1, 2])
def test_family_2_is_an_exact_soliton(n, k, tmp_path):
    structure = _structure(warped_soliton((n - 1) // 2, k), tmp_path, WEIGHTED_TRACE)
    solved = solve_soliton_constants(structure, structure.xi)
    assert solved.exact
    assert (solved.lam, solved.mu) == (Fraction(k * k * (n - 1) - k), Fraction(k))


@pytest.mark.parametrize(
    "manifest, fixture",
    [
        (paracontact_example(1, 1), "ex1_r3_spacelike"),
        (paracontact_example(1, -1), "ex2_r3_timelike"),
        (warped_soliton(1, 1), "warped_r3"),
    ],
    ids=["ex1", "ex2", "warped"],
)
def test_m_equal_1_is_the_bundled_fixture(manifest, fixture, tmp_path):
    expected = load_manifest(fixture_path(fixture))
    # the generated coordinates are x1, y1, z: name them as the fixture does
    renamed = dict(manifest, coordinates=list(expected.chart.coordinates))
    path = tmp_path / "renamed.json"
    path.write_text(json.dumps(renamed), encoding="utf-8")
    generated = load_manifest(path)
    assert generated.epsilon == expected.epsilon
    for ours, theirs in [
        (generated.metric.field, expected.metric.field),
        (generated.phi, expected.phi),
        (generated.xi, expected.xi),
        (generated.eta, expected.eta),
        *zip(generated.frame, expected.frame),
    ]:
        assert [str(c) for c in ours._comps] == [str(c) for c in theirs._comps]
