"""Command-line verifier.

Usage::

    parasol validate MANIFEST
    parasol curvature MANIFEST [--ricci-mode MODE]
    parasol sasakian MANIFEST
    parasol einstein-fit MANIFEST
    parasol soliton {check|solve} MANIFEST [--potential SPEC]
    parasol torse MANIFEST
    parasol collinear MANIFEST
    parasol parallel MANIFEST
    parasol oracle MANIFEST [--tolerance TOL]
    parasol report --all MANIFEST

Common flags: ``--ricci-mode {weighted_trace,paper_frame_sum}``, ``--json``,
``--seed N``, ``--tolerance TOL``, ``--base-point "r,r,..."``,
``--potential SPEC`` where SPEC is ``xi``, ``<expr>*xi`` or a comma-separated
component list.  MANIFEST is a path; bare names resolve against the bundled
fixtures (e.g. ``fixtures/ex1_r3_spacelike``).

Exit codes: 0 all executed checks passed, 1 at least one check failed,
2 input or usage error, or an internal invariant that failed (a bug).
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache, partial
from importlib import resources
from pathlib import Path

from .analysis import run_command
from .chart import ChartError, ChartMismatchError
from .connection import RICCI_MODES
from .manifest import XI_POTENTIAL, ManifestError, load_manifest
from .oracle import OracleConfig, OracleConfigError
from .paracontact import StructureError
from .report import EXIT_INPUT_ERROR
from .solitons import RankDeficientError
from .symexpr import ExprError, InvariantError
from .tensor import FrameError, SingularMetricError, ValenceError

__all__ = ["main"]

INPUT_ERRORS = (
    ManifestError,
    StructureError,
    ChartError,
    ChartMismatchError,
    ExprError,
    FrameError,
    SingularMetricError,
    ValenceError,
    RankDeficientError,
    OracleConfigError,
)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    defaults = OracleConfig()
    parser.add_argument("manifest", help="manifest path or bundled fixture name")
    parser.add_argument(
        "--ricci-mode",
        choices=RICCI_MODES,
        default=None,
        help="override the manifest's Ricci contraction mode",
    )
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    parser.add_argument(
        "--seed", type=int, default=defaults.seed, help="sampling seed (default %(default)s)"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=defaults.tolerance,
        help="oracle relative tolerance (default %(default)s)",
    )
    parser.add_argument(
        "--base-point",
        default=None,
        help="override the base point, comma-separated rationals like '0,1/2,0'",
    )
    parser.add_argument(
        "--potential",
        default=None,
        help="override the potential: 'xi', '<expr>*xi' or comma-separated components",
    )


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: ``parse_args`` keeps no state on it."""
    parser = argparse.ArgumentParser(
        prog="parasol",
        description="Symbolic verifier for almost paracontact metric structures "
        "and eta-Ricci solitons on a coordinate chart.",
    )
    # flags are taken by their full names only, so that no prefix (--h) reaches --help
    abbreviations_off = partial(argparse.ArgumentParser, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=abbreviations_off)

    for name, help_text in (
        ("validate", "structure axioms, epsilon detection, metric compatibility, signature"),
        ("curvature", "connection and curvature property suite with frame tables"),
        ("sasakian", "para-Sasakian condition and its curvature identities"),
        ("einstein-fit", "fit S = a g + b g(phi .,.) + c eta(x)eta and run its identity suite"),
        ("torse", "torse-forming classification of xi and induced curvature forms"),
        ("collinear", "pointwise-collinear potential analysis (V = k xi)"),
        ("parallel", "parallel symmetric (0,2) tensor analysis"),
        ("oracle", "cross-validation of Gamma, R, S from second-order jets of the metric"),
    ):
        command = sub.add_parser(name, help=help_text)
        _add_common_flags(command)

    soliton = sub.add_parser("soliton", help="eta-Ricci soliton residuals and constant solving")
    soliton.add_argument("action", choices=("check", "solve"))
    _add_common_flags(soliton)

    report = sub.add_parser("report", help="run every applicable analysis")
    report.add_argument("--all", action="store_true", required=True, help="run all analyses")
    _add_common_flags(report)
    return parser


def resolve_manifest_path(argument: str) -> Path:
    """Resolve a CLI manifest argument to a file, falling back to bundled fixtures."""
    path = Path(argument)
    if path.is_file():
        return path
    with_ext = path.with_suffix(".json")
    if with_ext.is_file():
        return with_ext
    stem = path.stem if path.suffix == ".json" else path.name
    bundled = resources.files("parasol").joinpath("fixtures", stem + ".json")
    if bundled.is_file():
        return Path(str(bundled))
    raise ManifestError("manifest %r not found (also tried bundled fixtures)" % argument)


def _overrides_from_args(args: argparse.Namespace) -> dict:
    overrides: dict = {}
    if args.base_point is not None:
        overrides["base_point"] = [part.strip() for part in args.base_point.split(",")]
    if args.potential is not None:
        text = args.potential.strip()
        if XI_POTENTIAL.fullmatch(text):
            overrides["potential"] = text
        else:
            overrides["potential"] = [part.strip() for part in text.split(",")]
    if args.ricci_mode is not None:
        overrides["ricci_mode"] = args.ricci_mode
    return overrides


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command
    if command == "soliton":
        command = "soliton-%s" % args.action
    try:
        path = resolve_manifest_path(args.manifest)
        manifest = load_manifest(path, overrides=_overrides_from_args(args))
        cfg = OracleConfig(seed=args.seed, tolerance=args.tolerance)
        report = run_command(command, manifest, cfg)
    except INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT_ERROR
    except InvariantError as exc:
        print("internal error: invariant violated: %s" % exc, file=sys.stderr)
        return EXIT_INPUT_ERROR
    sys.stdout.write(report.to_json() if args.json else report.to_table())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
