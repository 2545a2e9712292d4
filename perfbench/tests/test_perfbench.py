"""Tests of the benchmark itself: output schema, generator determinism, the
correctness gates, and the tracing wrappers.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
from workloads import (
    GOLDEN_SEED,
    WORKLOADS,
    Dense,
    Fixtures,
    GateError,
    Ladder,
    dense_manifest,
    ladder_manifest,
)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {"fixtures": Fixtures(("flat_r3",)), "ladder": Ladder((3,)), "dense": Dense((3, 4))}


@pytest.fixture(scope="module")
def tiny_runs():
    """One short end-to-end and one traced run per workload at tiny sizes."""
    saved = run.SETUP_REPEATS
    run.SETUP_REPEATS = 2
    try:
        return {
            (name, trace): run.measure(workload, 3, 0.2, trace)
            for name, workload in TINY.items()
            for trace in (False, True)
        }
    finally:
        run.SETUP_REPEATS = saved


def test_benchmark_json_names_what_the_benchmark_prints():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert per_layer == {**run.PER_LAYER_UNITS, "trace_overhead": "ratio"}
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s"}
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_result_schema(tiny_runs, name, trace):
    result, detail = tiny_runs[name, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, detail["failures"]
    assert result["attempted"] >= len(detail["manifests"])
    assert result["attempted"] % len(detail["manifests"]) == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for metric in detail["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and metric["samples"] >= 1
    assert set(detail["host"]) >= {"nproc", "python", "numpy", "git_commit"}


def test_end_to_end_metrics_are_positive(tiny_runs):
    for name in TINY:
        result, _ = tiny_runs[name, False]
        for metric, value in result["metrics"].items():
            assert value["value"] > 0, (name, metric)


@pytest.mark.parametrize(
    "name, layers",
    [
        (
            "fixtures",
            [
                "symexpr.evaluate_s",
                "symexpr.evaluate_calls",
                "symexpr.is_zero_s",
                "symexpr.is_zero_calls",
                "chart.sample_points_calls",
                "report.numeric_max_s",
                "oracle.sample_points_s",
                "oracle.compare_s",
                "manifest.load_s",
                "report.serialise_s",
                "analysis.oracle_self_s",
                "analysis.report_self_s",
            ],
        ),
        (
            "ladder",
            [
                "connection.christoffel_s",
                "connection.riemann_s",
                "connection.ricci_s",
                "solitons.semi_symmetry_s",
                "connection.riemann_chars",
                "analysis.curvature_self_s",
            ],
        ),
        ("dense", ["tensor.metric_s", "analysis.validate_self_s"]),
    ],
)
def test_layer_metrics_nonzero_on_their_workload(tiny_runs, name, layers):
    result, detail = tiny_runs[name, True]
    assert detail["untraced_layers"] == []
    for layer in layers:
        assert result["metrics"][layer]["value"] > 0, layer


def test_counts_repeat_exactly(tiny_runs):
    first, _ = tiny_runs["fixtures", True]
    again, _ = run.measure(TINY["fixtures"], 3, 0.2, True)
    for name, metric in first["metrics"].items():
        if metric["unit"] in ("count", "chars"):
            assert again["metrics"][name]["value"] == metric["value"], name


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("generator", [ladder_manifest, dense_manifest])
def test_generators_are_deterministic_and_vary_with_seed(generator, n):
    for seed in (0, 1, 2**31 - 1):
        assert json.dumps(generator(n, seed)) == json.dumps(generator(n, seed))
    assert len({json.dumps(generator(n, seed)) for seed in range(12)}) > 1


def test_generated_manifest_bytes_repeat(tmp_path):
    for workload in (Ladder(), Dense()):
        first = workload.verdicts(5, run.ROOT, tmp_path / "a")
        second = workload.verdicts(5, run.ROOT, tmp_path / "b")
        assert [v.sha256 for v in first] == [v.sha256 for v in second]
        assert [v.path.read_bytes() for v in first] == [v.path.read_bytes() for v in second]


def _layer_function_targets():
    for span, module_name, attribute in tracing.LAYERS:
        owner, name, value = tracing._resolve(module_name, attribute)
        if not isinstance(owner, type):
            yield span, value


def _references_to(value):
    for module in tracing._parasol_modules():
        for key, bound in vars(module).items():
            if bound is value:
                yield module.__name__, key
            elif isinstance(bound, dict) and any(inner is value for inner in bound.values()):
                yield module.__name__, key


def test_tracer_rebinds_every_namespace_and_restores_it():
    import parasol
    import parasol.analysis
    import parasol.manifest
    import parasol.paracontact
    import parasol.tensor

    originals = dict(_layer_function_targets())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for span, original in originals.items():
            assert list(_references_to(original)) == [], span
        assert parasol.paracontact.riemann.__wrapped_layer__ == "connection.riemann"
        assert parasol.riemann.__wrapped_layer__ == "connection.riemann"
        assert parasol.analysis.compare.__wrapped_layer__ == "oracle.compare"
        assert parasol.analysis.COMMANDS["validate"].__wrapped_layer__ == "analysis.validate"
        assert parasol.analysis.cmd_validate is parasol.analysis.COMMANDS["validate"]
        assert parasol.manifest.Metric.__init__.__wrapped_layer__ == "tensor.metric"
    finally:
        tracer.uninstall()
    assert not hasattr(parasol.tensor.Metric.__init__, "__wrapped_layer__")
    for span, original in originals.items():
        assert list(_references_to(original)), span


@pytest.mark.parametrize("name", list(TINY))
def test_traced_report_bytes_equal_untraced(tmp_path, name):
    from parasol.cli import main

    workload = TINY[name]
    for verdict in workload.verdicts(GOLDEN_SEED, run.ROOT, tmp_path):
        _, code, plain, _ = run.run_verdict(main, verdict.argv)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, traced_code, traced, _ = run.run_verdict(main, verdict.argv)
        finally:
            tracer.uninstall()
        assert tracer.calls["symexpr.is_zero"] > 0
        assert (traced_code, traced) == (code, plain)
        workload.check(verdict, GOLDEN_SEED, code, plain)


def test_gates_reject_wrong_verdicts(tmp_path):
    from parasol.cli import main

    fixtures = Fixtures(("flat_r3",))
    (verdict,) = fixtures.verdicts(GOLDEN_SEED, run.ROOT, tmp_path)
    _, code, stdout, _ = run.run_verdict(main, verdict.argv)
    fixtures.check(verdict, GOLDEN_SEED, code, stdout)
    with pytest.raises(GateError):
        fixtures.check(verdict, GOLDEN_SEED, code, stdout.replace("0.0", "NaN", 1))
    with pytest.raises(GateError):
        fixtures.check(verdict, GOLDEN_SEED, 1 - code, stdout)
    with pytest.raises(GateError):
        fixtures.check(verdict, GOLDEN_SEED, code, stdout.replace('"details"', '"details" ', 1))
    flipped = stdout.replace('"status": "pass"', '"status": "fail"', 1)
    with pytest.raises(GateError):
        fixtures.check(verdict, GOLDEN_SEED + 1, 1, flipped)

    dense = Dense((3,))
    (verdict,) = dense.verdicts(1, run.ROOT, tmp_path)
    _, code, stdout, _ = run.run_verdict(main, verdict.argv)
    dense.check(verdict, 1, code, stdout)
    report = json.loads(stdout)
    for check in report["checks"]:
        if check["id"] == "compat_metric_phi":
            check.update(status="pass", symbolic_zero=True, numeric_max=0.0)
    with pytest.raises(GateError):
        dense.check(verdict, 1, code, json.dumps(report))


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "fixtures", "--seed", "1"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
