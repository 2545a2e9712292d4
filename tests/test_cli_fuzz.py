"""CLI fuzz: ``report --all`` on mutated 3-D fixtures ends in a clean exit.

Each example changes one field of a bundled 3-D manifest: a metric or frame
entry (steep exponentials, sum denominators, degeneracy), a narrowed domain
box, a ``k*xi`` potential, or new soliton constants.  Whatever the input,
no exception escapes ``main``; exit 2 prints one ``error:`` line and nothing
on stdout, and exits 0 and 1 print strict JSON (RFC 8259: no NaN or
Infinity).
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings, strategies as st

from parasol.cli import main

from conftest import fixture_path

FIXTURES_3D = ["ex1_r3_spacelike", "ex2_r3_timelike", "flat_r3", "warped_r3"]
ENTRIES = ["exp(60*z)", "1/(1+x^2)", "x - 1/3", "0", "x^2"]
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
        manifest["potential"] = "%s*xi" % draw(st.sampled_from(RATIONALS + ["exp(z)", "x"]))
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
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["report", "--all", str(path), "--json"])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
    else:
        json.loads(out.getvalue(), parse_constant=_strict_constant)
