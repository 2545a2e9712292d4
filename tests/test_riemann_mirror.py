"""The Riemann tensor and the first Bianchi residual built from their upper half in (i, j).

``connection.riemann`` and the ``riemann_first_bianchi`` residual pass
``antisymmetric=(1, 2)`` to ``contract``: only the components with i < j are
summed, the rest mirrored.  Each must equal the plain contraction of the
same operands exactly, and a mirrored component must evaluate to the exact
negation of its partner's float.
"""

import json
import math
import sys
from itertools import product
from pathlib import Path

import pytest

from conftest import ALL_MANIFESTS
from parasol.analysis import Analysis
from parasol.connection import riemann
from parasol.manifest import load_manifest
from parasol.oracle import OracleConfig
from parasol.tensor import contract, partials

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import ladder_manifest  # noqa: E402

RIEMANN_SPEC = "ljki-likj+lim,mjk-ljm,mik->lijk"
BIANCHI_SPEC = "lijk+ljki+lkij->lijk"

CASES = [pytest.param(path, id=path.stem) for path in ALL_MANIFESTS] + [
    pytest.param((n, seed), id="ladder_n%d_seed%d" % (n, seed))
    for n in (3, 4, 5, 6)
    for seed in (1, 7)
]


def _load(case, tmp_path):
    if isinstance(case, Path):
        return load_manifest(case)
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(ladder_manifest(*case)), encoding="utf-8")
    return load_manifest(path)


def _assert_identical(mirrored, plain):
    assert mirrored.valence == plain.valence
    for ours, theirs in zip(mirrored._comps, plain._comps):
        assert (ours - theirs).is_zero()
        assert str(ours) == str(theirs)


@pytest.mark.parametrize("case", CASES)
def test_mirrored_riemann_and_bianchi_equal_the_plain_contractions(case, tmp_path):
    manifest = _load(case, tmp_path)
    gamma = manifest.structure().connection()
    dgamma = partials(gamma)
    riem = riemann(gamma)
    _assert_identical(riem, contract(RIEMANN_SPEC, dgamma, dgamma, gamma, gamma, gamma, gamma))
    _assert_identical(
        contract(BIANCHI_SPEC, riem, riem, riem, antisymmetric=(1, 2)),
        contract(BIANCHI_SPEC, riem, riem, riem),
    )


@pytest.mark.parametrize("case", CASES)
def test_mirrored_riemann_evaluates_to_the_exact_negation(case, tmp_path):
    analysis = Analysis(_load(case, tmp_path), OracleConfig())
    riem = analysis.structure.riemann()
    n = riem.chart.dimension
    points = analysis.sample_points()
    assert points
    for point in points:
        for l, i, j, k in product(range(n), repeat=4):
            value = riem[l, i, j, k].evaluate(point)
            if i == j:
                assert value == 0.0
                continue
            mirrored = riem[l, j, i, k].evaluate(point)
            assert mirrored == -value
            # a zero sum evaluates to +0.0 (or -0.0 over a negative denominator) both ways
            if value:
                assert math.copysign(1.0, mirrored) == -math.copysign(1.0, value)
