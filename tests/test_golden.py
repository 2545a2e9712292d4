"""Golden-file tests: CLI reports must be byte-identical run over run.

Regenerate after an intentional change with:

    pytest tests/test_golden.py --regen-golden
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from parasol.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
# synthetic manifests (perfbench.workloads.ladder_manifest(n, 42) for n = 4, 5, 6
# and dense_manifest(5, 42)) whose residuals are
# nonzero, so their goldens pin the low-order bits of numeric_max outside the
# six fixtures
MANIFESTS = GOLDEN_DIR / "manifests"

# (golden file, CLI argv, expected exit code)
CASES = [
    ("ex1_r3_spacelike__report_all.json",
     ["report", "--all", "fixtures/ex1_r3_spacelike", "--json"], 1),
    ("ex2_r3_timelike__report_all.json",
     ["report", "--all", "fixtures/ex2_r3_timelike", "--json"], 1),
    ("ex5d_r5_g1__report_all.json",
     ["report", "--all", "fixtures/ex5d_r5_g1", "--json"], 1),
    ("ex5d_r5_g2__report_all.json",
     ["report", "--all", "fixtures/ex5d_r5_g2", "--json"], 1),
    ("flat_r3__report_all.json",
     ["report", "--all", "fixtures/flat_r3", "--json"], 1),
    ("warped_r3__report_all.json",
     ["report", "--all", "fixtures/warped_r3", "--json"], 1),
    ("ex2_r3_timelike__curvature_weighted.json",
     ["curvature", "fixtures/ex2_r3_timelike", "--ricci-mode", "weighted_trace", "--json"], 0),
    ("ex2_r3_timelike__curvature_paper.json",
     ["curvature", "fixtures/ex2_r3_timelike", "--ricci-mode", "paper_frame_sum", "--json"], 0),
    ("ex1_r3_spacelike__soliton_solve.json",
     ["soliton", "solve", "fixtures/ex1_r3_spacelike", "--json"], 1),
    ("ladder_n4__curvature.json", ["curvature", str(MANIFESTS / "ladder_n4.json"), "--json"], 0),
    ("ladder_n4__validate.json", ["validate", str(MANIFESTS / "ladder_n4.json"), "--json"], 1),
    ("ladder_n5__curvature.json", ["curvature", str(MANIFESTS / "ladder_n5.json"), "--json"], 0),
    ("ladder_n6__curvature.json", ["curvature", str(MANIFESTS / "ladder_n6.json"), "--json"], 0),
    ("dense_n5__curvature.json", ["curvature", str(MANIFESTS / "dense_n5.json"), "--json"], 0),
    ("dense_n5__validate.json", ["validate", str(MANIFESTS / "dense_n5.json"), "--json"], 1),
    # report branches no bundled fixture reaches: no Einstein-like constants
    # and a nonzero collinear gate (ex1_noframe), the soliton transfer remark
    # (kasner_r3, b = -eps), a soliton equation that fails at declared
    # torse-forming constants (warped_off), a failed Einstein-like fit and a
    # nonconstant alpha(xi, xi) (bumped_r3), an invalid structure (flat_broken_phi)
    ("ex1_noframe__report_all.json",
     ["report", "--all", str(MANIFESTS / "ex1_noframe.json"), "--json"], 1),
    ("kasner_r3__report_all.json",
     ["report", "--all", str(MANIFESTS / "kasner_r3.json"), "--json"], 1),
    ("warped_off__report_all.json",
     ["report", "--all", str(MANIFESTS / "warped_off.json"), "--json"], 1),
    ("bumped_r3__report_all.json",
     ["report", "--all", str(MANIFESTS / "bumped_r3.json"), "--json"], 1),
    ("flat_broken_phi__sasakian.json",
     ["sasakian", str(MANIFESTS / "flat_broken_phi.json"), "--json"], 0),
    ("ex1_r3_spacelike__einstein_fit_2xi.json",
     ["einstein-fit", "fixtures/ex1_r3_spacelike", "--potential", "2*xi", "--json"], 0),
    # a torse-forming xi with nonconstant regular f = e^z/(1 + e^z), so
    # f^2 + xi(f) = f is reported with its sampled values
    ("torse_sigmoid_r3__torse.json",
     ["torse", str(MANIFESTS / "torse_sigmoid_r3.json"), "--json"], 0),
    # tests/families.py at n = 5: Family 1 (m = 2, eps = -1) in the paper's
    # frame sum and Family 2 (m = 2, k = 1), so the frame code meets n > 3
    ("paracontact_example_n5_eps-1__report_all.json",
     ["report", "--all", str(MANIFESTS / "paracontact_example_n5_eps-1.json"), "--json"], 1),
    ("warped_soliton_n5_k1__report_all.json",
     ["report", "--all", str(MANIFESTS / "warped_soliton_n5_k1.json"), "--json"], 1),
    # ex1_r3_spacelike with E1, E2 rotated by (3/5, 4/5): a frame that is not
    # diagonal, so every E^T T E table sums over more than one term and a
    # transposed table shows
    ("ex1_rotated_frame__einstein_fit.json",
     ["einstein-fit", str(MANIFESTS / "ex1_rotated_frame.json"), "--json"], 0),
    ("ex1_rotated_frame__soliton_solve.json",
     ["soliton", "solve", str(MANIFESTS / "ex1_rotated_frame.json"), "--json"], 1),
    ("ex1_rotated_frame__curvature_paper.json",
     ["curvature", str(MANIFESTS / "ex1_rotated_frame.json"), "--ricci-mode", "paper_frame_sum",
      "--json"], 0),
]


def run_to_bytes(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("golden_name,argv,expected_exit", CASES, ids=[c[0] for c in CASES])
def test_golden_report(golden_name, argv, expected_exit, request):
    code, payload = run_to_bytes(argv)
    assert code == expected_exit
    json.loads(payload)  # must always be valid JSON
    golden_path = GOLDEN_DIR / golden_name
    if request.config.getoption("--regen-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden_path.write_bytes(payload)
        pytest.skip("golden regenerated")
    assert golden_path.exists(), (
        "missing golden file %s; run pytest --regen-golden" % golden_name
    )
    assert payload == golden_path.read_bytes()


def test_numeric_rows_carry_no_symbolic_label():
    # the oracle and the base-point guard are float observations, never exact zeros
    labelled = 0
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        for row in json.loads(path.read_bytes())["checks"]:
            if row["id"].startswith("oracle_") or row["id"] == "soliton_base_point_guard":
                assert row["symbolic_zero"] is None, (path.name, row["id"])
                labelled += 1
    assert labelled > 0
