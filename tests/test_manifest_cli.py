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
from parasol.analysis import COMMANDS
from parasol.cli import build_parser, main, resolve_manifest_path
from parasol.connection import RICCI_MODES
from parasol.manifest import ManifestError, load_manifest
from parasol.oracle import OracleConfig
from parasol.solitons import einstein_like_fit, einstein_like_suite, solve_soliton_constants
from parasol.symexpr import parse
from parasol.tensor import Frame, Metric, TensorField

from conftest import ALL_MANIFESTS, FIXTURE_NAMES, fixture_path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


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


@pytest.mark.parametrize("epsilon", [True, 1.0, -1.0, "1", 2])
def test_epsilon_is_the_integer_1_or_minus_1(tmp_path, epsilon):
    # True and 1.0 equal 1 in Python, yet the manifest means an integer
    data = json.loads(fixture_path("ex1_r3_spacelike").read_text())
    data["epsilon"] = epsilon
    bad = tmp_path / "epsilon.json"
    bad.write_text(json.dumps(data))
    code, out, err = run_cli(["validate", str(bad)])
    assert (code, out) == (2, "")
    assert err == "error: epsilon must be +1 or -1, got %r\n" % epsilon


@pytest.mark.parametrize("key", ["a", "b", "c"])
def test_constants_nothing_reads_are_rejected(tmp_path, key):
    # the Einstein-like constants are fitted, never read from the manifest
    data = json.loads(fixture_path("ex1_r3_spacelike").read_text())
    data["constants"][key] = "1"
    bad = tmp_path / "unread_constant.json"
    bad.write_text(json.dumps(data))
    code, out, err = run_cli(["report", "--all", str(bad), "--json"])
    assert (code, out) == (2, "")
    assert err == "error: constants: unknown key %r\n" % key


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
    # xi = d_z on this fixture, so exp(2*z)*xi = (0, 0, exp(2*z))
    components = [parse(c, structure.chart) for c in ("0", "0", "exp(2*z)")]
    expected = TensorField.vector(structure.chart, components)
    assert (vector - expected).is_zero()
    data["potential"] = ["0", "0", "exp(2*z)"]
    path.write_text(json.dumps(data))
    manifest = load_manifest(path)
    assert manifest.potential.kind == "components"
    assert (manifest.potential.vector(manifest.structure()) - vector).is_zero()


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


@pytest.mark.parametrize("command", [["curvature"], ["report", "--all"]])
def test_paper_mode_without_frame_is_input_error(command):
    manifest = str(Path(__file__).resolve().parent / "golden" / "manifests" / "ex1_noframe.json")
    code, out, err = run_cli(command + [manifest, "--ricci-mode", "paper_frame_sum"])
    assert (code, out) == (2, "")
    assert err == "error: ricci_mode paper_frame_sum requires a frame in the manifest\n"


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


def test_a_bare_parse_gives_the_default_oracle_config():
    args = build_parser().parse_args(["oracle", "fixtures/flat_r3"])
    assert OracleConfig(seed=args.seed, tolerance=args.tolerance) == OracleConfig()
    assert not hasattr(args, "h")  # the oracle has no finite-difference step
    for mode in RICCI_MODES:
        args = build_parser().parse_args(["oracle", "fixtures/flat_r3", "--ricci-mode", mode])
        assert args.ricci_mode == mode


def test_one_process_reproduces_fresh_interpreters_with_one_parser():
    # the parser is built once per process, so no parse may leave state on it
    # for the next: a seed, --json or a default carried over would show here
    assert build_parser() is build_parser()
    manifest = "fixtures/ex1_r3_spacelike"
    for argv in (
        ["report", "--all", manifest, "--json", "--seed", "1"],
        ["report", "--all", manifest, "--json"],
        ["report", "--all", manifest],
    ):
        code, out, err = run_cli(argv)
        fresh = run_cli_process("-m", "parasol", *argv)
        assert (code, out.encode(), err.encode()) == (fresh.returncode, fresh.stdout, fresh.stderr)


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
        # the finite-difference oracle's own points met inf - inf = NaN in the Lie-dual
        # pair at this seed; at the report's points every row of the jet oracle passes
        rows = [c for c in report["checks"] if c["id"].startswith("oracle_")]
        assert [row["status"] for row in rows] == ["pass"] * 4, rows


def test_orthonormal_frame_of_a_large_scale_metric_is_accepted(tmp_path):
    # |det E| = 1e-10 at the base point, yet E is orthonormal for g: frame
    # dependence is judged against prod |E_i|, not against an absolute cutoff
    data = json.loads(fixture_path("flat_r3").read_text())
    del data["alpha"]
    data["metric"] = [["10000000000", "0", "0"], ["0", "10000000000", "0"], ["0", "0", "1"]]
    data["frame"] = [["1/100000", "0", "0"], ["0", "1/100000", "0"], ["0", "0", "1"]]
    path = tmp_path / "flat_r3_scaled.json"
    path.write_text(json.dumps(data))
    assert run_cli(["validate", str(path), "--json"])[0] == 0
    assert run_cli(["einstein-fit", str(path), "--json"])[0] == 0
    failing = []
    for manifest in (fixture_path("flat_r3"), path):
        code, out, _ = run_cli(["report", "--all", str(manifest), "--json"])
        checks = json.loads(out)["checks"]
        failing.append((code, [c["id"] for c in checks if c["status"] == "fail"]))
    assert failing[0] == failing[1]
    assert failing[0][0] == 1 and len(failing[0][1]) == 2


def test_a_manifest_with_no_sample_point_reports_without_traceback(tmp_path):
    # the x-y block (1 + e^z)^2 [[1, c], [c, 1]] with c = 1 - 10^-8 has nearly parallel
    # rows: |det g| is 2e-8 of its Hadamard bound in the whole box, below the
    # degeneracy cutoff, so every candidate sample point is rejected.  phi swaps x
    # and y, which keeps the structure; the frame is dropped, as no rational one is
    # orthonormal
    data = json.loads((Path(__file__).resolve().parent / "golden" / "manifests"
                       / "torse_sigmoid_r3.json").read_text())
    data["metric"][0][1] = data["metric"][1][0] = "99999999/100000000*(1+exp(z))^2"
    data["phi"][0][:2], data["phi"][1][:2] = ["0", "1"], ["1", "0"]
    del data["frame"]
    path = tmp_path / "torse_tiny.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(["torse", str(path), "--json"])
    assert code == 0
    note = json.loads(out)["checks"][0]["details"]
    assert note.endswith(
        "is nonconstant; no nondegenerate sample points found in the domain box"
    )
    code, out, _ = run_cli(["report", "--all", str(path), "--json"])
    assert code == 1
    checks = json.loads(out)["checks"]
    # no point sizes a residual that is not symbolically zero
    assert any(c["symbolic_zero"] is False for c in checks)
    for check in checks:
        if check["symbolic_zero"] is not None:
            assert check["numeric_max"] == (0.0 if check["symbolic_zero"] else None), check


def _argv(command: str) -> list[str]:
    """The CLI arguments of a command named as in ``parasol.analysis.COMMANDS``."""
    if command == "report":
        return ["report", "--all"]
    return command.split("-", 1) if command.startswith("soliton-") else [command]


@pytest.mark.parametrize("path", [pytest.param(p, id=p.stem) for p in ALL_MANIFESTS])
def test_every_report_states_each_row_once(path):
    for command in COMMANDS:
        code, out, err = run_cli(_argv(command) + [str(path), "--json"])
        assert code in (0, 1), (command, err)
        ids = [check["id"] for check in json.loads(out)["checks"]]
        assert len(ids) == len(set(ids)), (command, ids)


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
def test_einstein_like_fit_runs_once_per_report(normal_equation_designs, fixture):
    # the einstein-fit command and the soliton, torse and parallel commands
    # share the fit the structure caches; report --all used to fit twice
    designs = normal_equation_designs
    code, _, _ = run_cli(["report", "--all", "fixtures/" + fixture, "--json"])
    assert code in (0, 1)
    # the fit solves for (a, b, c), the soliton solver for (lambda, mu)
    assert sorted(len(rows[0]) for rows in designs) == [2, 3]


def test_the_suites_ask_for_the_fit_where_the_commands_did(normal_equation_designs, tmp_path):
    # where a suite asks for the fit decides which error ends a run: on
    # bumped_r3 with the base point (0, 0, 1/2) the fit's exact evaluation
    # fails, and parallel stops with exit 2 before any row.  Asking lazily,
    # inside the soliton link, would print a report (exit 1) instead; a
    # change of that outcome must be made on purpose.
    designs = normal_equation_designs
    code, out, err = run_cli(
        ["parallel", str(GOLDEN_DIR / "manifests" / "bumped_r3.json"), "--base-point", "0,0,1/2"]
    )
    assert (code, out) == (2, "")
    assert err == "error: exponential atom does not vanish at the point (value 1/2)\n"
    assert designs == []
    # flat_r3 gives parallel an alpha and a mu: the mu check fits once
    code, _, _ = run_cli(["parallel", "fixtures/flat_r3", "--json"])
    assert code in (0, 1) and len(designs) == 1
    # without mu only alpha is checked, and the fit is never asked for
    manifest = json.loads(fixture_path("flat_r3").read_text(encoding="utf-8"))
    del manifest["constants"]
    path = tmp_path / "flat_no_mu.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    designs.clear()
    code, out, _ = run_cli(["parallel", str(path), "--json"])
    assert code in (0, 1) and designs == []
    assert [c["id"] for c in json.loads(out)["checks"]][0] == "alpha_nabla_alpha"
    # soliton check with potential xi fits once, for the xi consequences
    code, _, _ = run_cli(["soliton", "check", "fixtures/ex1_r3_spacelike", "--json"])
    assert code in (0, 1) and len(designs) == 1
    # the soliton solve wraps the same exact-evaluation error in its own text
    designs.clear()
    code, out, err = run_cli(
        ["soliton", "solve", str(GOLDEN_DIR / "manifests" / "bumped_r3.json"),
         "--base-point", "0,0,1/2"]
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: frame components cannot be evaluated exactly at the base point: "
        "exponential atom does not vanish at the point (value 1/2)\n"
    )
    assert designs == []


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


@pytest.mark.parametrize(
    "fixture, frame_checks, ricci_modes",
    [
        ("ex1_r3_spacelike", 1, ["weighted_trace"]),
        ("ex5d_r5_g1", 0, ["weighted_trace"]),
        ("warped_r3", 1, ["weighted_trace"]),
        ("ex2_r3_timelike", 1, ["paper_frame_sum", "weighted_trace"]),
    ],
)
def test_frame_checked_and_ricci_built_once_per_mode(monkeypatch, fixture, frame_checks, ricci_modes):
    # report --all used to verify the frame 3 times (4 on ex2); paper mode
    # takes the structure's cached frame_signs() instead of verifying again
    checks, modes = [], []
    orthonormal_signs = Frame.orthonormal_signs
    monkeypatch.setattr(
        Frame,
        "orthonormal_signs",
        lambda self, gram: checks.append(self) or orthonormal_signs(self, gram),
    )
    ricci = parasol.paracontact.ricci
    monkeypatch.setattr(
        parasol.paracontact,
        "ricci",
        lambda riem, mode, **kwargs: modes.append(mode) or ricci(riem, mode, **kwargs),
    )
    code, _, _ = run_cli(["report", "--all", "fixtures/" + fixture, "--json"])
    assert code in (0, 1)
    assert (len(checks), modes) == (frame_checks, ricci_modes)


def test_report_builds_each_frame_table_once(monkeypatch):
    # g is read by the frame check and both fits, S by the Einstein-like fit and
    # the curvature frame diagonal, eta (x) eta by both fits: one table each
    structures, tensors = [], []
    init = parasol.paracontact.ParacontactStructure.__init__
    monkeypatch.setattr(
        parasol.paracontact.ParacontactStructure,
        "__init__",
        lambda self, *args, **kwargs: structures.append(self) or init(self, *args, **kwargs),
    )
    table = Frame.table
    monkeypatch.setattr(
        Frame, "table", lambda self, tensor: tensors.append(tensor) or table(self, tensor)
    )
    code, _, _ = run_cli(["report", "--all", "fixtures/ex2_r3_timelike", "--json"])
    assert code == 1
    (structure,) = structures
    shared = [structure.metric.field, structure.ricci(), structure.eta_tensor_eta()]
    assert [sum(t is s for t in tensors) for s in shared] == [1, 1, 1]
    assert len({id(t) for t in tensors}) == len(tensors)


def test_library_follows_the_declared_ricci_mode_like_the_cli():
    # ex2 declares paper_frame_sum; the library used to fit and solve in the
    # weighted trace unless every call repeated the mode
    path = fixture_path("ex2_r3_timelike")
    cli = [
        json.loads(run_cli(command + [str(path), "--json"])[1])["constants"]
        for command in (["einstein-fit"], ["soliton", "solve"])
    ]
    for overrides, fitted, solved in (
        (None, (-2, 0, -4), (2, 4)),
        ({"ricci_mode": "weighted_trace"}, (0, 0, -2), (0, 2)),
    ):
        structure = load_manifest(path, overrides=overrides).structure()
        fit = einstein_like_fit(structure)
        result = solve_soliton_constants(structure, structure.xi)
        assert (fit.constants.a, fit.constants.b, fit.constants.c) == fitted
        assert (result.lam, result.mu) == solved
        failing = [
            o.id
            for o in einstein_like_suite(structure, fit.constants)
            if o.id.startswith("el_eq_") and o.status == "fail"
        ]
        assert failing == []
    assert [Fraction(cli[0][key]) for key in "abc"] == [-2, 0, -4]
    assert [Fraction(cli[1][key]) for key in ("lambda", "mu")] == [2, 4]


def test_base_point_override_changes_signature_report():
    code, out, _ = run_cli(
        ["validate", "fixtures/ex5d_r5_g2", "--base-point", "0,0,0,2,0", "--json"]
    )
    assert code == 0
    report = json.loads(out)
    signature = next(c for c in report["checks"] if c["id"] == "signature_base_point")
    assert "index 3" in signature["details"]


def test_a_constant_frame_norm_is_found_off_the_zero_base_point():
    # bumped_r3 has g(E_1, E_1) = (1 + e^z)^2 / (1 + e^z)^2 unreduced, and no
    # exp atom vanishes at z = 1/2
    manifest = str(Path(__file__).resolve().parent / "golden" / "manifests" / "bumped_r3.json")
    for command in ("validate", "curvature"):
        code, _, err = run_cli([command, manifest, "--base-point", "0,0,1/2"])
        assert code == 0, err


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


def test_r_xi_built_once_per_report(monkeypatch):
    # the para-Sasakian identities and the semi-symmetry residual share
    # R(xi, .) .; report --all used to contract it twice
    specs = []
    for module in (parasol.paracontact, parasol.solitons):
        contract = module.contract
        monkeypatch.setattr(
            module,
            "contract",
            lambda spec, *ops, contract=contract: specs.append(spec) or contract(spec, *ops),
        )
    code, _, _ = run_cli(["report", "--all", "fixtures/ex1_r3_spacelike", "--json"])
    assert code == 1
    assert specs.count("kmij,m->kij") + specs.count("mlij,l->mij") == 1


def test_scalar_curvature_and_g_phi_built_once_per_report(monkeypatch):
    # r is reported by curvature and checked by el_eq_scalar; g(phi X, Y) is
    # a basis tensor of the Einstein-like fit and a term of collinear_induced_ricci
    specs = []
    for module in (parasol.connection, parasol.paracontact, parasol.solitons):
        contract = module.contract
        monkeypatch.setattr(
            module,
            "contract",
            lambda spec, *ops, contract=contract, **keywords: specs.append(spec)
            or contract(spec, *ops, **keywords),
        )
    code, _, _ = run_cli(["report", "--all", "fixtures/ex1_r3_spacelike", "--json"])
    assert code == 1
    assert (specs.count("jk,jk->"), specs.count("mj,mi->ij")) == (1, 1)


# entries that are not finite at their base point: inf - inf = NaN at (10, 10, 0) (both
# monomials overflow to inf), and three whose float evaluation raises there: an
# overflow, a vanishing denominator and a coefficient that overflows a float
NOT_FINITE_AT_BASE_POINT = [
    ("x^200*y^200 - x^199*y^201 + 1", ("10", "10", "0")),
    ("x^400 + 1", ("10", "10", "0")),
    ("1 + 1/x", ("0", "0", "0")),
    ("10^400*x^2 + 1", ("0", "0", "0")),
]


def _not_finite_at_the_base_point(tmp_path, key: str, entry: str, base: tuple) -> str:
    data = json.loads(fixture_path("flat_r3").read_text())
    data["base_point"] = list(base)
    data["domain_box"] = [[str(int(v) - 1), str(int(v) + 1)] for v in base[:2]] + [["-1", "1"]]
    data[key][0][0] = entry
    path = tmp_path / ("nonfinite_%s.json" % key)
    path.write_text(json.dumps(data))
    return str(path)


def test_a_metric_not_finite_at_the_base_point_has_no_signature_there(tmp_path):
    for entry, base in NOT_FINITE_AT_BASE_POINT:
        path = _not_finite_at_the_base_point(tmp_path, "metric", entry, base)
        code, out, err = run_cli(["validate", path, "--json"])
        assert (code, err) == (0, ""), entry
        # the exact rows, then the signature row
        checks = json.loads(out)["checks"]
        assert [c["id"] for c in checks[:4]] == [
            "axiom_phi_square", "axiom_eta_xi", "axiom_phi_xi", "axiom_eta_phi"
        ]
        assert (checks[-1]["id"], checks[-1]["status"], checks[-1]["details"]) == (
            "signature_base_point", "inapplicable", "metric is not finite at the base point"
        ), entry


def test_a_frame_not_finite_at_the_base_point_is_an_input_error(tmp_path):
    for entry, base in NOT_FINITE_AT_BASE_POINT:
        path = _not_finite_at_the_base_point(tmp_path, "frame", entry, base)
        code, out, err = run_cli(["validate", path])
        assert (code, out) == (2, ""), entry
        assert err == "error: frame: frame vectors are not finite at the base point\n", entry
