"""Frame tables: every T(E_i, E_j) from one E^T T E contraction, as each pair's own.

``Frame.table`` contracts a (0, 2) tensor with the frame matrix
E[a, i] = E_i^a once.  Each entry must print, order its numerator terms and
carry its scale as the per-pair contraction ``contract("ij,i,j->", T, E_i,
E_j)`` does, the reference kept here, so every report byte and float bit
that reads a frame component is the same either way.
"""

import json
import random
from itertools import product

import pytest

from conftest import ALL_MANIFESTS
from families import paracontact_example, warped_soliton
from parasol.chart import Chart
from parasol.connection import PAPER_FRAME_SUM, WEIGHTED_TRACE
from parasol.manifest import load_manifest
from parasol.symexpr import parse
from parasol.tensor import Frame, TensorField, contract

FRAMED = [
    pytest.param(path, id=path.stem)
    for path in ALL_MANIFESTS
    if json.loads(path.read_text()).get("frame") is not None
]


def _assert_tables_match_the_pairs(frame, tensors):
    n = frame.chart.dimension
    for name, tensor in tensors.items():
        table = frame.table(tensor)
        assert table.valence == (0, 2)
        for i, j in product(range(n), repeat=2):
            ours = table[i, j]
            pair = contract("ij,i,j->", tensor, frame[i], frame[j])
            assert (str(ours), list(ours._num.items()), ours._sn, ours._sd) == (
                str(pair), list(pair._num.items()), pair._sn, pair._sd
            ), (name, i, j)


def _assert_structure_tables_match_the_pairs(structure):
    tensors = {
        "g": structure.metric.field,
        "S": structure.ricci(),
        "eta eta": structure.eta_tensor_eta(),
        "1/2 L_xi g + S": structure.soliton_tensor(structure.xi),
    }
    _assert_tables_match_the_pairs(structure.frame, tensors)


@pytest.mark.parametrize("path", FRAMED)
def test_table_entries_are_the_per_pair_contractions(path):
    _assert_structure_tables_match_the_pairs(load_manifest(path).structure())


@pytest.mark.parametrize("n", [5, 9])
@pytest.mark.parametrize(
    "manifest, mode",
    [
        pytest.param(lambda m: paracontact_example(m, -1), PAPER_FRAME_SUM, id="family_1"),
        pytest.param(lambda m: warped_soliton(m, 1), WEIGHTED_TRACE, id="family_2"),
    ],
)
def test_family_table_entries_are_the_per_pair_contractions(manifest, mode, n, tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(manifest((n - 1) // 2)), encoding="utf-8")
    structure = load_manifest(path, overrides={"ricci_mode": mode}).structure()
    _assert_structure_tables_match_the_pairs(structure)


@pytest.mark.parametrize("seed", range(5))
def test_dense_frame_table_entries_are_the_per_pair_contractions(seed):
    # every frame above is diagonal, so each of its entries is one product; a
    # dense frame (unit lower triangle, so independent) and a nonsymmetric T
    # make each entry a sum of up to n^2 products, whose order sets the bytes
    chart, rng = Chart.make(["x", "y", "z"]), random.Random(seed)
    atoms = ["0", "-2", "x", "exp(z)", "y*z", "1/(1 + x^2)", "exp(-y)/3"]
    rows = [[rng.choice(atoms) if a < i else str(int(a == i)) for a in range(3)] for i in range(3)]
    frame = Frame([TensorField.vector(chart, [parse(c, chart) for c in row]) for row in rows])
    tensor = TensorField(chart, 0, 2, [parse(rng.choice(atoms), chart) for _ in range(9)])
    _assert_tables_match_the_pairs(frame, {"T": tensor})
