"""The benchmark's workloads: which manifests each one feeds the CLI, and how
each verdict is judged.

A workload turns a seed into a list of :class:`Verdict` jobs, one CLI call
each.  The synthetic generators are pure functions of ``(seed, n)``: the same
seed always writes the same manifest bytes.  Seeds vary the inputs only along
directions that keep the symbolic work per rung the same (the sign of the
time coordinate, the band constant, which coordinate the polynomial entries
use, the coefficient values), so run-to-run spread measures the machine and
the program, not the luck of the draw.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

COORDINATE_NAMES = ("t", "x", "y", "z", "u", "v", "w")

# the largest manifest goes last: slowest_verdict_s times a workload's last one
FIXTURE_NAMES = (
    "ex1_r3_spacelike",
    "ex2_r3_timelike",
    "flat_r3",
    "warped_r3",
    "ex5d_r5_g1",
    "ex5d_r5_g2",
)

# the sampling seed the golden reports were written with (the CLI default)
GOLDEN_SEED = 42

LEVI_CIVITA_CHECKS = (
    "christoffel_torsion_free",
    "metric_compatibility",
    "riemann_antisymmetry",
    "riemann_first_bianchi",
    "ricci_symmetric",
    "lie_derivative_dual_formula",
)
DENSE_PASSING_CHECKS = (
    "axiom_phi_square",
    "axiom_eta_xi",
    "axiom_phi_xi",
    "axiom_eta_phi",
    "compat_metric_xi",
)
DENSE_FAILING_CHECKS = ("compat_metric_phi", "compat_phi_transpose")


@dataclass(frozen=True)
class Verdict:
    """One manifest and the CLI arguments that judge it."""

    name: str
    path: Path
    sha256: str
    argv: tuple[str, ...]
    golden: Path | None = None


class GateError(Exception):
    """A verdict differs from what the workload's construction implies."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _reject_constant(token: str):
    raise ValueError("non-finite number %s in report" % token)


def parse_report(stdout: str) -> dict:
    """Parse CLI stdout as strict JSON (RFC 8259: no NaN or Infinity)."""
    try:
        return json.loads(stdout, parse_constant=_reject_constant)
    except ValueError as exc:
        raise GateError("stdout is not strict JSON: %s" % exc) from None


def _checks_by_id(report: dict) -> dict:
    return {check["id"]: check for check in report["checks"]}


def _require_symbolic_passes(report: dict, check_ids) -> None:
    checks = _checks_by_id(report)
    for check_id in check_ids:
        check = checks.get(check_id)
        if check is None or check["status"] != "pass" or check["symbolic_zero"] is not True:
            raise GateError("%s is not a symbolic-zero pass" % check_id)


def _expect_exit(code: int, report: dict) -> None:
    failed = any(check["status"] == "fail" for check in report["checks"])
    if code != (1 if failed else 0):
        raise GateError("exit code %r disagrees with the report's statuses" % code)


def _paracontact_phi(n: int) -> list[list[str]]:
    """phi = diag(0, 1, -1, 1, ...): phi^2 = I - eta (x) xi for xi = d_0."""
    phi = [["0"] * n for _ in range(n)]
    for i in range(1, n):
        phi[i][i] = "1" if i % 2 else "-1"
    return phi


def _write_manifest(data: dict, directory: Path) -> Path:
    path = directory / (data["name"] + ".json")
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return path


def ladder_manifest(n: int, seed: int) -> dict:
    """Banded metric dt^2 + sum_i exp(+-2t + x_{i+1}) dx_i^2 + c (dx_i dx_{i+1}).

    The constant band c <= 1/4 against diagonals >= exp(-3/5) on the box
    [-1/5, 1/5]^n keeps the metric diagonally dominant, hence Riemannian and
    nondegenerate everywhere that is sampled.
    """
    rng = random.Random("ladder:%d:%d" % (seed, n))
    sign = rng.choice((1, -1))
    band = rng.choice(("1/4", "1/5", "1/6", "1/7", "2/9"))
    coords = list(COORDINATE_NAMES[:n])
    metric = [["0"] * n for _ in range(n)]
    metric[0][0] = "1"
    for i in range(1, n):
        rate = 2 * sign * (1 if i % 2 else -1)
        metric[i][i] = "exp(%d*t + %s)" % (rate, coords[1 + i % (n - 1)])
    for i in range(1, n - 1):
        metric[i][i + 1] = metric[i + 1][i] = band
    return {
        "name": "ladder_n%d" % n,
        "coordinates": coords,
        "base_point": ["0"] * n,
        "domain_box": [["-1/5", "1/5"]] * n,
        "metric": metric,
        "phi": _paracontact_phi(n),
        "xi": ["1"] + ["0"] * (n - 1),
        "eta": ["1"] + ["0"] * (n - 1),
    }


def _linear(coeff: int, name: str, constant: int) -> str:
    return "%d*%s %s %d" % (coeff, name, "-" if constant < 0 else "+", abs(constant))


def dense_manifest(n: int, seed: int) -> dict:
    """dt^2 plus a dense (n-1) x (n-1) block with entries a*s + b in one coordinate s.

    The constant diagonal 6n dominates off-diagonal rows bounded by 6(n-2) on
    the box [-1, 1]^n, so the metric is positive definite.  With xi = d_t and
    phi = diag(0, 1, -1, ...) the four axioms and g(X, xi) = eta(X) hold, while
    g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y) and g(X, phi Y) = g(phi X, Y)
    fail on every off-diagonal entry that couples a +1 and a -1 eigenvector.
    """
    rng = random.Random("dense:%d:%d" % (seed, n))
    coords = list(COORDINATE_NAMES[:n])
    variable = coords[rng.randrange(1, n)]
    metric = [["0"] * n for _ in range(n)]
    metric[0][0] = "1"
    for i in range(1, n):
        metric[i][i] = str(6 * n)
        for j in range(i + 1, n):
            coeff = rng.choice((1, 2, 3)) * rng.choice((1, -1))
            constant = rng.choice((1, 2, 3)) * rng.choice((1, -1))
            metric[i][j] = metric[j][i] = _linear(coeff, variable, constant)
    return {
        "name": "dense_n%d" % n,
        "coordinates": coords,
        "base_point": ["0"] * n,
        "metric": metric,
        "phi": _paracontact_phi(n),
        "xi": ["1"] + ["0"] * (n - 1),
        "eta": ["1"] + ["0"] * (n - 1),
    }


class Workload:
    name = ""
    why = ""
    command: tuple[str, ...] = ()

    def verdicts(self, seed: int, root: Path, workdir: Path) -> list[Verdict]:
        raise NotImplementedError

    def check(self, verdict: Verdict, seed: int, code: int, stdout: str) -> None:
        raise NotImplementedError

    def _argv(self, path: Path, seed: int) -> tuple[str, ...]:
        return self.command + (str(path), "--json", "--seed", str(seed))


class Fixtures(Workload):
    name = "fixtures"
    why = "report --all on the six bundled fixtures: numeric sampling, oracle and check layers dominate"
    command = ("report", "--all")

    def __init__(self, names: tuple[str, ...] = FIXTURE_NAMES):
        self.names = names

    def verdicts(self, seed, root, workdir):
        out = []
        for name in self.names:
            path = root / "src" / "parasol" / "fixtures" / (name + ".json")
            golden = root / "tests" / "golden" / (name + "__report_all.json")
            out.append(Verdict(name, path, _sha256(path), self._argv(path, seed), golden))
        return out

    def check(self, verdict, seed, code, stdout):
        golden_text = verdict.golden.read_text(encoding="utf-8")
        report = parse_report(stdout)
        _expect_exit(code, report)
        if seed == GOLDEN_SEED:
            if stdout != golden_text:
                raise GateError("report bytes differ from the golden file")
            return
        golden = json.loads(golden_text)
        got = [(c["id"], c["status"], c["symbolic_zero"]) for c in report["checks"]]
        want = [(c["id"], c["status"], c["symbolic_zero"]) for c in golden["checks"]]
        if got != want:
            raise GateError("check ids, statuses or symbolic_zero differ from the golden file")


class _Synthetic(Workload):
    generator = None

    def __init__(self, dims: tuple[int, ...]):
        self.dims = dims

    def verdicts(self, seed, root, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        out = []
        for n in self.dims:
            data = self.generator(n, seed)
            path = _write_manifest(data, workdir)
            out.append(Verdict(data["name"], path, _sha256(path), self._argv(path, seed)))
        return out


class Ladder(_Synthetic):
    name = "ladder"
    why = "curvature on banded exp-diagonal metrics n=3..5: exact-ring multiply/add in Riemann and semi-symmetry"
    command = ("curvature",)
    generator = staticmethod(ladder_manifest)

    def __init__(self, dims: tuple[int, ...] = (3, 4, 5)):
        super().__init__(dims)

    def check(self, verdict, seed, code, stdout):
        report = parse_report(stdout)
        _expect_exit(code, report)
        _require_symbolic_passes(report, LEVI_CIVITA_CHECKS)
        if code != 0:
            raise GateError("a curvature check failed")


class Dense(_Synthetic):
    name = "dense"
    why = "validate on dense polynomial metrics n=3..7: cofactor det/inverse with polynomial denominators"
    command = ("validate",)
    generator = staticmethod(dense_manifest)

    def __init__(self, dims: tuple[int, ...] = (3, 4, 5, 6, 7)):
        super().__init__(dims)

    def check(self, verdict, seed, code, stdout):
        report = parse_report(stdout)
        _expect_exit(code, report)
        _require_symbolic_passes(report, DENSE_PASSING_CHECKS)
        checks = _checks_by_id(report)
        for check_id in DENSE_FAILING_CHECKS:
            check = checks.get(check_id)
            if (
                check is None
                or check["status"] != "fail"
                or check["symbolic_zero"] is not False
                or not check["numeric_max"]
            ):
                raise GateError("%s does not fail with a nonzero residual" % check_id)
        expected = set(DENSE_PASSING_CHECKS) | set(DENSE_FAILING_CHECKS)
        for check_id, check in checks.items():
            if check_id not in expected and check["status"] != "pass":
                raise GateError("%s has status %s" % (check_id, check["status"]))


WORKLOADS = {w.name: w for w in (Fixtures(), Ladder(), Dense())}
