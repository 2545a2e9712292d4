#!/usr/bin/env python3
"""Verdict-time benchmark for parasol.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 30 --trace 0

One process runs the workload's verdicts one at a time through
``parasol.cli.main`` with stdout captured, pass after pass, until
``--seconds`` are used up, and judges every verdict (see ``workloads.py``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half with the layer wrappers of ``tracing.py`` installed,
and reports the per-layer metrics.  The last line of stdout is the result
object; the line before it is a detailed record with sample counts, raw
(unscaled) times, manifest hashes and host facts.

Times are scaled to a reference speed: a background thread times a short
fixed pure-Python loop every 50 ms on the same CPU, and each verdict's wall
time is multiplied by ``PROBE_NOMINAL_S / (median loop time while it ran)``.
On a shared host the speed of Python code drifts by up to 2x over minutes,
and the scaled times drift far less; see README.md.  Set-up times are
scaled by loops run between set-ups.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS, RIEMANN_CHARS, Tracer  # noqa: E402
from workloads import WORKLOADS, GateError, Workload  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 3
PROBE_ROUNDS = 150
PROBE_PERIOD_S = 0.05
# about what reference_seconds returns on an idle 2-core x86-64 host under
# CPython 3.11; any fixed value works, it only sets the unit of scaled times
PROBE_NOMINAL_S = 0.002
IMPORT_SNIPPET = (
    "import time; start = time.perf_counter(); import parasol.cli; "
    "print(time.perf_counter() - start)"
)

PER_LAYER_UNITS = {name: ("count" if name.endswith("_calls") else "s") for name in LAYER_METRICS}
PER_LAYER_UNITS[RIEMANN_CHARS] = "chars"


# -- host facts -----------------------------------------------------------------


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def pin_to_one_cpu() -> None:
    """Run this process, the speed probe and set-up children on one CPU.

    Then the probe measures the core that runs the verdicts, not its sibling.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def host_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(ROOT),
        "platform": platform.platform(),
    }


# -- reference speed ------------------------------------------------------------------


def reference_seconds() -> float:
    """Wall time of a fixed slice of pure-Python work: Fraction arithmetic and
    updates of a tuple-keyed dict, the kind of work parasol's exact ring does."""
    start = time.perf_counter()
    table: dict = {}
    total = Fraction(0)
    for i in range(1, PROBE_ROUNDS):
        key = ((i % 7, i % 5), Fraction(i % 11, 3))
        value = table.get(key, Fraction(0)) + Fraction(1, i % 13 + 1)
        table[key] = value
        total += value * Fraction(i % 3 + 1, 4)
    return time.perf_counter() - start


class SpeedProbe:
    """A background thread that calls ``reference_seconds`` every PROBE_PERIOD_S.

    The loop is short enough to finish within one interpreter switch
    interval, so each sample is the loop's own time, and the samples track
    how fast the host runs Python code while the verdicts run beside them.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (end time, duration)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            duration = reference_seconds()
            self.samples.append((time.perf_counter(), duration))

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        while len(self.samples) < 3:
            time.sleep(PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float) -> float:
        """PROBE_NOMINAL_S over the median probe time in [start, end].

        Intervals holding fewer than three samples use the three samples
        closest to their midpoint.
        """
        inside = [duration for at, duration in self.samples if start <= at <= end]
        if len(inside) < 3:
            middle = (start + end) / 2.0
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - middle))[:3]
            inside = [duration for _, duration in nearest]
        return PROBE_NOMINAL_S / statistics.median(inside)


# -- set-up -------------------------------------------------------------------------


def import_seconds() -> float:
    """Time to import the CLI in a fresh interpreter, measured inside it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def set_up(workload: Workload, seed: int, workdir: Path):
    """Import and generate SETUP_REPEATS times; manifests must repeat byte for byte.

    Returns the raw and reference-scaled set-up seconds and the verdicts.
    The reference loop runs between set-ups, never beside the importing
    child, which shares this process's CPU.
    """
    raw, references, verdicts = [], [], None
    for _ in range(SETUP_REPEATS):
        references.extend(reference_seconds() for _ in range(5))
        elapsed = import_seconds()
        start = time.perf_counter()
        generated = workload.verdicts(seed, ROOT, workdir)
        raw.append(elapsed + time.perf_counter() - start)
        if verdicts is not None and [v.sha256 for v in generated] != [v.sha256 for v in verdicts]:
            raise GateError("the %s generator is not deterministic for seed %d" % (workload.name, seed))
        verdicts = generated
    references.extend(reference_seconds() for _ in range(5))
    speed = PROBE_NOMINAL_S / statistics.median(references)
    return raw, [value * speed for value in raw], verdicts


# -- verdicts and passes ---------------------------------------------------------------


def run_verdict(main, argv) -> tuple[float, object, str, str]:
    """(wall seconds, exit code or exception text, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:
        code = "SystemExit(%r)" % (exc.code,)
    except Exception:  # a traceback is a failed verdict, not a crash of the benchmark
        code = traceback.format_exc()
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


class Judge:
    """Counts attempted and failed verdicts and keeps the first few reasons."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    def __call__(self, verdict, code, stdout: str, stderr: str) -> None:
        self.attempted += 1
        try:
            if not isinstance(code, int) or code not in (0, 1):
                raise GateError("exit %s" % code)
            if "Traceback" in stderr:
                raise GateError("traceback on stderr")
            self.workload.check(verdict, self.seed, code, stdout)
        except GateError as exc:
            self.fail("%s: %s" % (verdict.name, exc))


class Passes:
    """Per-pass verdict times, raw and reference-scaled, plus layer snapshots."""

    def __init__(self) -> None:
        self.raw: list[dict[str, float]] = []
        self.scaled: list[dict[str, float]] = []
        self.layers: list[dict[str, float]] = []
        self.outputs: dict[str, str] = {}

    def totals(self, scaled: bool = True) -> list[float]:
        return [sum(p.values()) for p in (self.scaled if scaled else self.raw)]


def run_passes(
    main, verdicts, judge: Judge, probe: SpeedProbe, seconds: float, min_passes: int, tracer=None
) -> Passes:
    """Whole passes over the verdicts until the next one would overrun ``seconds``.

    Each verdict's time is scaled by the speed probe's reading while it ran;
    layer times by the pass's overall ratio of scaled to raw time.
    """
    passes = Passes()
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        raw, scaled = {}, {}
        for verdict in verdicts:
            begin = time.perf_counter()
            elapsed, code, stdout, stderr = run_verdict(main, verdict.argv)
            raw[verdict.name] = elapsed
            scaled[verdict.name] = elapsed * probe.scale(begin, time.perf_counter())
            judge(verdict, code, stdout, stderr)
            passes.outputs[verdict.name] = stdout
        passes.raw.append(raw)
        passes.scaled.append(scaled)
        if tracer is not None:
            speed = sum(scaled.values()) / sum(raw.values())
            passes.layers.append(
                {
                    name: value * speed if PER_LAYER_UNITS[name] == "s" else value
                    for name, value in tracer.snapshot().items()
                }
            )
        used = time.perf_counter() - start
        if len(passes.raw) >= min_passes and used + statistics.median(passes.totals(False)) > seconds:
            return passes


def summary(values: list[float], unit: str, raw: list[float] | None = None) -> dict:
    out = {"value": statistics.median(values), "unit": unit, "samples": len(values)}
    out["min"], out["max"] = min(values), max(values)
    if raw is not None:
        out["raw_median"] = statistics.median(raw)
    return out


# -- one benchmark run ---------------------------------------------------------------


def end_to_end(main, verdicts, judge, probe, seconds, setup_raw, setup_scaled) -> dict:
    passes = run_passes(main, verdicts, judge, probe, seconds, MIN_PASSES)
    largest = verdicts[-1].name
    return {
        "verdict_s": summary(passes.totals(), "s", passes.totals(False)),
        "slowest_verdict_s": summary(
            [p[largest] for p in passes.scaled], "s", [p[largest] for p in passes.raw]
        ),
        "setup_s": summary(setup_scaled, "s", setup_raw),
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
            "samples": 1,
        },
    }


def per_layer(main, verdicts, judge, probe, seconds, detail) -> dict:
    plain = run_passes(main, verdicts, judge, probe, seconds / 2.0, 1)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(main, verdicts, judge, probe, seconds / 2.0, 1, tracer=tracer)
    finally:
        tracer.uninstall()
    for name, stdout in plain.outputs.items():
        if traced.outputs[name] != stdout:
            judge.fail("%s: traced report bytes differ from untraced" % name)
    detail["untraced_layers"] = tracer.missing
    detail["untraced_verdict_s"] = summary(plain.totals(), "s", plain.totals(False))
    detail["traced_verdict_s"] = summary(traced.totals(), "s", traced.totals(False))
    metrics = {
        name: summary([snapshot[name] for snapshot in traced.layers], unit)
        for name, unit in PER_LAYER_UNITS.items()
    }
    metrics["trace_overhead"] = {
        "value": statistics.median(traced.totals()) / statistics.median(plain.totals()),
        "unit": "ratio",
        "samples": len(traced.raw),
    }
    return metrics


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one benchmark; return (result object, detailed record)."""
    workdir = HERE / "_work" / ("%s-%d" % (workload.name, seed))
    judge = Judge(workload, seed)
    detail = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    try:
        setup_raw, setup_scaled, verdicts = set_up(workload, seed, workdir)
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from parasol.cli import main

        detail["host"] = host_facts()
        detail["probe_nominal_s"] = PROBE_NOMINAL_S
        detail["manifests"] = {v.name: v.sha256 for v in verdicts}
        with SpeedProbe() as probe:
            if trace:
                metrics = per_layer(main, verdicts, judge, probe, seconds, detail)
            else:
                metrics = end_to_end(
                    main, verdicts, judge, probe, seconds, setup_raw, setup_scaled
                )
        detail["probe_samples"] = len(probe.samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    detail["metrics"] = metrics
    detail["failures"] = judge.failures[:20]
    result = {
        "correct": not judge.failures,
        "attempted": judge.attempted,
        "failed": len(judge.failures),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "parasol" / "cli.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        print("error: run from a parasol source checkout (src/parasol and tests/golden)", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    try:
        result, detail = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except GateError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
