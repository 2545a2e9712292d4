"""CLI fuzz: ``report --all`` on mutated 3-D fixtures ends in a clean exit.

Each example changes one field of a bundled 3-D manifest: a metric or frame
entry (steep exponentials, non-integral rates, sum denominators,
degeneracy), a narrowed domain box, a ``k*xi`` potential, or new soliton
constants.  Whatever the input, no exception escapes ``main``; exit 2
prints one ``error:`` line and nothing on stdout, and exits 0 and 1 print
strict JSON (RFC 8259: no NaN or Infinity).
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from parasol.cli import main

from conftest import fixture_path

MANIFESTS = Path(__file__).resolve().parent / "golden" / "manifests"
FIXTURES_3D = ["ex1_r3_spacelike", "ex2_r3_timelike", "flat_r3", "warped_r3"]
ENTRIES = ["exp(60*z)", "1/(1+x^2)", "x - 1/3", "0", "x^2", "exp(z/2)", "exp(-2*y/3)"]
RATIONALS = ["0", "1", "-2", "1/3", "-5/2", "40"]


def _strict_constant(name: str):
    raise ValueError("non-strict JSON constant %s" % name)


@st.composite
def mutated_manifests(draw):
    path = fixture_path(draw(st.sampled_from(FIXTURES_3D)))
    manifest = json.loads(path.read_text(encoding="utf-8"))
    field = draw(st.sampled_from(["metric", "frame", "domain_box", "potential", "constants"]))
    if field == "metric":
        # both entries, so the metric stays symmetric
        i, j = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        manifest["metric"][i][j] = manifest["metric"][j][i] = draw(st.sampled_from(ENTRIES))
    elif field == "frame":
        i, j = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        manifest["frame"][i][j] = draw(st.sampled_from(ENTRIES))
    elif field == "domain_box":
        lo = draw(st.sampled_from(["-1", "-1/2", "0", "1/1000"]))
        hi = draw(st.sampled_from(["1", "1/2", "1/1000", "1/100000"]))
        manifest["domain_box"][draw(st.integers(0, 2))] = [lo, hi]
    elif field == "potential":
        factors = RATIONALS + ["exp(z)", "x", "exp(z/5)"]
        manifest["potential"] = "%s*xi" % draw(st.sampled_from(factors))
    else:
        manifest["constants"] = {
            "lambda": draw(st.sampled_from(RATIONALS)),
            "mu": draw(st.sampled_from(RATIONALS)),
        }
    return manifest


@settings(
    max_examples=25,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(manifest=mutated_manifests())
def test_report_all_on_mutated_manifest_exits_cleanly(manifest, tmp_path):
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    _assert_clean_exit(["report", "--all", str(path), "--json"])


def _assert_clean_exit(argv: list[str]) -> tuple[int, str]:
    """Run the CLI; return its exit code and its stdout, or its one error line on exit 2."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
        return code, lines[0]
    json.loads(out.getvalue(), parse_constant=_strict_constant)
    return code, out.getvalue()


def test_a_rate_denominator_only_in_the_potential_override_widens_the_chart():
    # kasner_r3's half rates are only in its frame; fifths come only from the flag
    manifest = str(MANIFESTS / "kasner_r3.json")
    argv = ["report", "--all", manifest, "--potential", "exp(z/5)*xi", "--json"]
    code, _ = _assert_clean_exit(argv)
    assert code in (0, 1)


def test_rates_that_leave_the_range_at_the_charts_denominator_exit_2(tmp_path):
    # each entry fits alone; together L = 2^30 and exp(y) would be stored as 2^30
    manifest = json.loads(fixture_path("ex1_r3_spacelike").read_text(encoding="utf-8"))
    manifest["metric"][0][0] = "exp(x/1073741824)"
    manifest["metric"][1][1] = "exp(y)"
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    code, line = _assert_clean_exit(["report", "--all", str(path), "--json"])
    assert code == 2
    assert "metric[1][1]" in line and "out of range" in line, line
