"""Manifest loading, CLI behavior, exit codes, JSON schema and determinism."""

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
import pytest

import parasol
from parasol.cli import main, resolve_manifest_path
from parasol.manifest import ManifestError, load_manifest
from parasol.tensor import Metric, TensorField

from conftest import FIXTURE_NAMES, fixture_path


def run_cli(argv):
    """Invoke the CLI, returning (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# manifest loading
# ---------------------------------------------------------------------------


def test_all_bundled_fixtures_load():
    for name in FIXTURE_NAMES:
        manifest = load_manifest(fixture_path(name))
        assert manifest.name == name
        manifest.structure()  # epsilon detection must succeed


def test_ex1_manifest_contents():
    manifest = load_manifest(fixture_path("ex1_r3_spacelike"))
    assert manifest.chart.coordinates == ("x", "y", "z")
    assert manifest.epsilon == 1
    assert manifest.constants == {"lambda": Fraction(0), "mu": Fraction(2)}
    assert manifest.potential.kind == "xi"
    assert manifest.ricci_mode == "weighted_trace"


def test_truncated_file_is_input_error(tmp_path):
    bad = tmp_path / "truncated.json"
    bad.write_text('{"name": "broken", "coordinates": ["x", "y"')
    with pytest.raises(ManifestError, match="not valid JSON"):
        load_manifest(bad)
    code, _, err = run_cli(["validate", str(bad)])
    assert code == 2
    assert "error" in err


def test_dimension_mismatch_reported(tmp_path):
    data = json.loads(fixture_path("flat_r3").read_text())
    data["xi"] = ["0", "0"]
    bad = tmp_path / "bad_dim.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(ManifestError, match="xi"):
        load_manifest(bad)


def test_invalid_rational_reported(tmp_path):
    data = json.loads(fixture_path("flat_r3").read_text())
    data["constants"] = {"lambda": "not-a-number", "mu": "0"}
    bad = tmp_path / "bad_rational.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(ManifestError, match="invalid rational"):
        load_manifest(bad)


def test_float_constants_rejected(tmp_path):
    data = json.loads(fixture_path("flat_r3").read_text())
    data["constants"] = {"lambda": 0.5, "mu": "0"}
    bad = tmp_path / "float_rational.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(ManifestError, match="exact rational"):
        load_manifest(bad)


def test_asymmetric_alpha_rejected(tmp_path):
    data = json.loads(fixture_path("flat_r3").read_text())
    data["alpha"] = [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]]
    bad = tmp_path / "bad_alpha.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(ManifestError, match="symmetric"):
        load_manifest(bad)


def test_bad_expression_names_field(tmp_path):
    data = json.loads(fixture_path("flat_r3").read_text())
    data["metric"][0][0] = "1 + w"
    bad = tmp_path / "bad_expr.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(ManifestError, match=r"metric\[0\]\[0\]"):
        load_manifest(bad)


def test_potential_forms(tmp_path):
    data = json.loads(fixture_path("ex1_r3_spacelike").read_text())
    data["potential"] = "exp(2*z)*xi"
    path = tmp_path / "collinear.json"
    path.write_text(json.dumps(data))
    manifest = load_manifest(path)
    assert manifest.potential.kind == "collinear"
    structure = manifest.structure()
    vector = manifest.potential.vector(structure)
    assert vector[2] == structure.xi[2].chart and True or True  # smoke: components parse
    data["potential"] = ["0", "0", "exp(2*z)"]
    path.write_text(json.dumps(data))
    manifest = load_manifest(path)
    assert manifest.potential.kind == "components"


def test_collinear_potential_allows_spaces_around_star(tmp_path):
    # the manifest and --potential share one rule; "exp(z) * xi" used to exit 2
    data = json.loads(fixture_path("ex1_r3_spacelike").read_text())
    data["potential"] = "exp(z) * xi"
    path = tmp_path / "spaced.json"
    path.write_text(json.dumps(data))
    manifest = load_manifest(path)
    assert manifest.potential.kind == "collinear"
    assert str(manifest.potential.k) == "exp(z)"
    from_manifest = run_cli(["collinear", str(path), "--json"])
    argv = ["collinear", "fixtures/ex1_r3_spacelike", "--json", "--potential"]
    from_flag = run_cli(argv + ["exp(z) * xi"])
    assert from_manifest[0] == 1
    assert from_manifest == from_flag == run_cli(argv + ["exp(z)*xi"])


def test_fixture_name_resolution():
    path = resolve_manifest_path("fixtures/ex1_r3_spacelike")
    assert path.name == "ex1_r3_spacelike.json"
    with pytest.raises(ManifestError, match="not found"):
        resolve_manifest_path("fixtures/no_such_fixture")


# ---------------------------------------------------------------------------
# CLI commands and exit codes
# ---------------------------------------------------------------------------


def test_validate_exits_zero_on_ex1():
    code, out, _ = run_cli(["validate", "fixtures/ex1_r3_spacelike"])
    assert code == 0
    assert "result: PASS" in out


def test_soliton_solve_recovers_constants_and_exits_one():
    code, out, _ = run_cli(["soliton", "solve", "fixtures/ex1_r3_spacelike", "--json"])
    assert code == 1  # full residual is nonzero off the xi-slots
    report = json.loads(out)
    assert report["constants"]["lambda"] == "0"
    assert report["constants"]["mu"] == "2"
    exactness = next(c for c in report["checks"] if c["id"] == "soliton_exactness")
    assert exactness["status"] == "fail"
    assert "(1, -1, 0)" in exactness["details"]
    assert "%.12g" % math.sqrt(2) in exactness["details"]


def test_curvature_paper_mode_json_diag():
    code, out, _ = run_cli(
        ["curvature", "fixtures/ex2_r3_timelike", "--ricci-mode", "paper_frame_sum", "--json"]
    )
    assert code == 0
    report = json.loads(out)
    diag = next(c for c in report["checks"] if c["id"] == "ricci_frame_diagonal")
    assert "S(E1,E1)=-2, S(E2,E2)=-2, S(E3,E3)=-2" in diag["details"]


def test_curvature_weighted_mode_diag_on_ex2():
    code, out, _ = run_cli(
        ["curvature", "fixtures/ex2_r3_timelike", "--ricci-mode", "weighted_trace", "--json"]
    )
    assert code == 0
    report = json.loads(out)
    diag = next(c for c in report["checks"] if c["id"] == "ricci_frame_diagonal")
    assert "S(E1,E1)=0, S(E2,E2)=0, S(E3,E3)=-2" in diag["details"]


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as info:
        run_cli(["frobnicate", "fixtures/ex1_r3_spacelike"])
    assert info.value.code == 2


def test_missing_manifest_is_input_error():
    code, _, err = run_cli(["validate", "no/such/file.json"])
    assert code == 2
    assert "not found" in err


def run_cli_process(*args):
    """Run ``python *args`` with the package under test importable."""
    package_root = str(Path(parasol.__file__).resolve().parent.parent)
    search_path = filter(None, [package_root, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(search_path))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, check=False)


@pytest.mark.parametrize("name", ["ex1_r3_spacelike", "ex5d_r5_g1"])
def test_optimized_interpreter_reproduces_golden_report(name):
    # invariants are explicit checks, not asserts, so -O must not change a byte
    golden = Path(__file__).resolve().parent / "golden" / (name + "__report_all.json")
    result = run_cli_process(
        "-O", "-m", "parasol", "report", "--all", "fixtures/" + name, "--json"
    )
    assert result.returncode == 1, result.stderr
    assert result.stdout == golden.read_bytes()


def _reject_non_finite(constant):
    raise ValueError("%s is not RFC 8259 JSON" % constant)


@pytest.mark.parametrize("seed", range(1, 7))
def test_badly_scaled_manifest_reports_strict_json_without_traceback(tmp_path, seed):
    # exp(800 z) overflows a float inside the domain box |z| <= 1
    data = json.loads(fixture_path("warped_r3").read_text())
    data["metric"][0][0] = "exp(800*z)"
    data["frame"][0][0] = "exp(-400*z)"
    path = tmp_path / "badly_scaled.json"
    path.write_text(json.dumps(data))
    result = run_cli_process(
        "-m", "parasol", "report", "--all", str(path), "--json", "--seed", str(seed)
    )
    assert result.returncode in (0, 1, 2)
    assert b"Traceback" not in result.stderr
    assert b"RuntimeWarning" not in result.stderr, result.stderr
    if result.returncode == 2:
        assert result.stdout == b"" and result.stderr.startswith(b"error: ")
        return
    report = json.loads(result.stdout, parse_constant=_reject_non_finite)
    for check in report["checks"]:
        if "non-finite" in check["details"]:
            assert check["status"] == "fail", check
    if seed == 5:
        # the Lie-derivative deviation is inf - inf = NaN at one sample point
        lie_dual = next(c for c in report["checks"] if c["id"] == "oracle_lie_dual")
        assert lie_dual["status"] == "fail"
        assert "non-finite" in lie_dual["details"]


def test_failed_invariant_exits_two_without_traceback(monkeypatch):
    # g * g^-1 - I comes back as g itself, which is not zero
    monkeypatch.setattr(Metric, "_product_with_inverse", lambda self: self.field)
    code, out, err = run_cli(["validate", "fixtures/ex1_r3_spacelike", "--json"])
    assert code == 2
    assert out == ""
    assert err.startswith("internal error: invariant violated: metric inverse failed")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["validate"], ["report", "--all"]])
def test_validation_suites_run_once_per_structure(monkeypatch, command):
    calls = []
    for name in ("_axiom_outcomes", "_compat_outcomes"):
        suite = getattr(parasol.paracontact, name)
        monkeypatch.setattr(
            parasol.paracontact, name, lambda s, suite=suite: calls.append(suite) or suite(s)
        )
    code, _, _ = run_cli(command + ["fixtures/ex1_r3_spacelike", "--json"])
    assert code in (0, 1)
    assert len(calls) == 2


def test_para_sasakian_suite_and_shared_tensors_built_once(monkeypatch):
    # report --all used to run the para-Sasakian suite twice (the sasakian
    # command and the para-Sasakian precondition of later commands), to
    # differentiate phi 4 times and xi 7 times covariantly, and S and Q twice each
    structures, suites, differentiated = [], [], []
    init = parasol.paracontact.ParacontactStructure.__init__
    monkeypatch.setattr(
        parasol.paracontact.ParacontactStructure,
        "__init__",
        lambda self, *args, **kwargs: structures.append(self) or init(self, *args, **kwargs),
    )
    suite = parasol.paracontact._para_sasakian_outcomes
    monkeypatch.setattr(
        parasol.paracontact, "_para_sasakian_outcomes", lambda s: suites.append(s) or suite(s)
    )
    nabla = parasol.connection.covariant_derivative
    for module in (parasol.connection, parasol.paracontact, parasol.solitons, parasol.analysis):
        monkeypatch.setattr(
            module,
            "covariant_derivative",
            lambda tensor, conn: differentiated.append(tensor) or nabla(tensor, conn),
        )
    code, _, _ = run_cli(["report", "--all", "fixtures/ex1_r3_spacelike", "--json"])
    assert code == 1
    (structure,) = structures
    assert suites == [structure]
    assert sum(t is structure.phi for t in differentiated) == 1
    # L_xi g (the potential is xi) reuses the cached nabla xi, and nabla_xi S
    # and nabla_xi Q contract the cached nabla S and nabla Q
    assert sum(t is structure.xi for t in differentiated) == 1
    assert sum(t is structure.ricci() for t in differentiated) == 1
    assert sum(t is structure.ricci_derivatives()[0] for t in differentiated) == 1
    assert len(differentiated) == 7


@pytest.mark.parametrize("fixture", ["warped_r3", "ex1_r3_spacelike"])
def test_einstein_like_fit_runs_once_per_report(monkeypatch, fixture):
    # the einstein-fit command and the soliton, torse and parallel commands
    # share one fit; report --all used to fit twice
    calls = []
    fit = parasol.analysis.einstein_like_fit
    monkeypatch.setattr(
        parasol.analysis, "einstein_like_fit", lambda *args: calls.append(args) or fit(*args)
    )
    code, _, _ = run_cli(["report", "--all", "fixtures/" + fixture, "--json"])
    assert code in (0, 1)
    assert len(calls) == 1


@pytest.mark.parametrize("fixture", ["warped_r3", "ex1_r3_spacelike"])
def test_lie_derivative_built_once_per_direction(monkeypatch, fixture):
    # curvature, the soliton checks, the solver, the xi consequences and the
    # oracle all need L_xi g; building it once per direction used to be 6-7 times
    calls = []
    build = parasol.paracontact.lie_derivative_two_ways
    monkeypatch.setattr(
        parasol.paracontact,
        "lie_derivative_two_ways",
        lambda *args: calls.append(args[1]) or build(*args),
    )
    code, _, _ = run_cli(["report", "--all", "fixtures/" + fixture, "--json"])
    assert code in (0, 1)
    assert len(calls) == 1


def test_soliton_tensor_and_eta_eta_built_once_per_report(monkeypatch):
    # the three soliton residuals, the solver and the parallel command all
    # start from 1/2 L_xi g + S; report --all used to add it up 5 times and
    # to build eta (x) eta 6 times
    structures, added, products = [], [], []
    init = parasol.paracontact.ParacontactStructure.__init__
    monkeypatch.setattr(
        parasol.paracontact.ParacontactStructure,
        "__init__",
        lambda self, *args, **kwargs: structures.append(self) or init(self, *args, **kwargs),
    )
    add = TensorField.__add__
    monkeypatch.setattr(
        TensorField, "__add__", lambda self, other: added.append(other) or add(self, other)
    )
    contract = parasol.paracontact.contract
    monkeypatch.setattr(
        parasol.paracontact,
        "contract",
        lambda spec, *ops: products.append(ops) or contract(spec, *ops),
    )
    code, _, _ = run_cli(["report", "--all", "fixtures/warped_r3", "--json"])
    assert code in (0, 1)
    (structure,) = structures
    assert sum(other is structure.ricci() for other in added) == 1
    assert products.count((structure.eta, structure.eta)) == 1


def test_base_point_override_changes_signature_report():
    code, out, _ = run_cli(
        ["validate", "fixtures/ex5d_r5_g2", "--base-point", "0,0,0,2,0", "--json"]
    )
    assert code == 0
    report = json.loads(out)
    signature = next(c for c in report["checks"] if c["id"] == "signature_base_point")
    assert "index 3" in signature["details"]


def test_base_point_override_is_validated():
    code, _, err = run_cli(
        ["validate", "fixtures/ex1_r3_spacelike", "--base-point", "0,0"]
    )
    assert code == 2


def test_potential_override():
    code, out, _ = run_cli(
        ["soliton", "check", "fixtures/flat_r3", "--potential", "0,0,0", "--json"]
    )
    assert code == 0
    report = json.loads(out)
    residual = next(c for c in report["checks"] if c["id"] == "soliton_residual_zero")
    assert residual["status"] == "pass"


def test_report_json_schema_keys():
    code, out, _ = run_cli(["report", "--all", "fixtures/warped_r3", "--json"])
    report = json.loads(out)
    assert set(report) == {"name", "conventions", "checks", "constants"}
    assert set(report["conventions"]) == {"curvature_sign", "ricci_mode", "seed"}
    for entry in report["checks"]:
        assert set(entry) == {"id", "status", "symbolic_zero", "numeric_max", "details"}
        assert entry["status"] in ("pass", "fail", "inapplicable")
    assert set(report["constants"]) == {
        "epsilon", "a", "b", "c", "lambda", "mu", "f", "classification", "regular",
    }


def test_reports_are_byte_identical_across_runs():
    first = run_cli(["report", "--all", "fixtures/ex1_r3_spacelike", "--json"])
    second = run_cli(["report", "--all", "fixtures/ex1_r3_spacelike", "--json"])
    assert first == second


def test_seed_flag_changes_conventions_only():
    code, out, _ = run_cli(["validate", "fixtures/ex1_r3_spacelike", "--json", "--seed", "7"])
    assert code == 0
    assert json.loads(out)["conventions"]["seed"] == 7


def test_epsilon_mismatch_is_input_error(tmp_path):
    data = json.loads(fixture_path("ex1_r3_spacelike").read_text())
    data["epsilon"] = -1
    bad = tmp_path / "bad_epsilon.json"
    bad.write_text(json.dumps(data))
    code, _, err = run_cli(["validate", str(bad)])
    assert code == 2
    assert "disagrees" in err


def test_sasakian_inapplicable_when_axioms_fail(tmp_path):
    # break phi so the axioms fail: the sasakian suite must not run
    data = json.loads(fixture_path("flat_r3").read_text())
    data["phi"] = [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]]
    bad = tmp_path / "broken_phi.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run_cli(["sasakian", str(bad), "--json"])
    assert code == 0
    report = json.loads(out)
    statuses = {c["id"]: c["status"] for c in report["checks"]}
    assert statuses["para_sasakian_nabla_phi"] == "inapplicable"


def test_validate_flags_broken_axiom(tmp_path):
    data = json.loads(fixture_path("flat_r3").read_text())
    data["phi"] = [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]]
    bad = tmp_path / "broken_phi2.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run_cli(["validate", str(bad), "--json"])
    assert code == 1
    report = json.loads(out)
    statuses = {c["id"]: c["status"] for c in report["checks"]}
    assert statuses["axiom_phi_square"] == "fail"
    assert statuses["axiom_eta_xi"] == "pass"


def test_soliton_check_passes_on_exact_warped_soliton():
    code, out, _ = run_cli(["soliton", "check", "fixtures/warped_r3", "--json"])
    assert code == 0
    report = json.loads(out)
    residual = next(c for c in report["checks"] if c["id"] == "soliton_residual_zero")
    assert residual["status"] == "pass"
    assert residual["symbolic_zero"] is True
    assert report["constants"]["lambda"] == "1"
    assert report["constants"]["mu"] == "1"


def test_no_degeneracy_locus_entry_for_constant_determinant():
    code, out, _ = run_cli(["validate", "fixtures/ex5d_r5_g1", "--json"])
    assert code == 0
    report = json.loads(out)
    ids = [c["id"] for c in report["checks"]]
    assert "degeneracy_locus" not in ids
    det = next(c for c in report["checks"] if c["id"] == "metric_determinant")
    assert "det g = -1" in det["details"]


def test_human_table_marks_nonzero_residuals():
    code, out, _ = run_cli(["soliton", "check", "fixtures/ex1_r3_spacelike"])
    assert code == 1
    assert "nonzero" in out
    assert "result: FAIL" in out


def test_nonvanishing_exponential_determinant_has_no_locus_entry():
    # det g = e^{4z} on the warped fixture is nonconstant but never vanishes
    code, out, _ = run_cli(["validate", "fixtures/warped_r3", "--json"])
    assert code == 0
    report = json.loads(out)
    assert "degeneracy_locus" not in [c["id"] for c in report["checks"]]


def test_collinear_with_nonconstant_k_fails_constancy(tmp_path):
    # gate = 0 forces k constant; a z-dependent k honestly fails that check
    data = json.loads(fixture_path("ex1_r3_spacelike").read_text())
    data["potential"] = "exp(2*z)*xi"
    path = tmp_path / "nonconstant_k.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(["collinear", str(path), "--json"])
    assert code == 1
    report = json.loads(out)
    statuses = {c["id"]: c["status"] for c in report["checks"]}
    assert statuses["collinear_gate"] == "pass"
    assert statuses["collinear_k_constant"] == "fail"
