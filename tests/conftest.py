"""Shared fixtures: bundled manifests and their structures, loaded once.

Structures cache their connection/curvature data, so sharing them across
test modules keeps the suite fast; everything in the package is immutable,
making session scope safe.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

try:
    import parasol  # noqa: F401  (installed package preferred)
except ImportError:  # fall back to the in-repo sources for uninstalled runs
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from parasol.connection import WEIGHTED_TRACE
from parasol.manifest import load_manifest
from parasol.paracontact import ParacontactStructure

FIXTURE_NAMES = [
    "ex1_r3_spacelike",
    "ex2_r3_timelike",
    "ex5d_r5_g1",
    "ex5d_r5_g2",
    "flat_r3",
    "warped_r3",
]

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "src" / "parasol" / "fixtures"


def fixture_path(name: str) -> Path:
    return FIXTURES_DIR / (name + ".json")


# every bundled fixture and every golden manifest
ALL_MANIFESTS = [fixture_path(name) for name in FIXTURE_NAMES] + sorted(
    (Path(__file__).resolve().parent / "golden" / "manifests").glob("*.json")
)


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite the golden report files instead of comparing against them",
    )


@pytest.fixture(scope="session")
def manifests():
    return {name: load_manifest(fixture_path(name)) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def structures(manifests) -> dict[str, ParacontactStructure]:
    return {name: manifest.structure() for name, manifest in manifests.items()}


@pytest.fixture(scope="session")
def ex1(structures) -> ParacontactStructure:
    return structures["ex1_r3_spacelike"]


@pytest.fixture(scope="session")
def ex2(structures) -> ParacontactStructure:
    return structures["ex2_r3_timelike"]


@pytest.fixture(scope="session")
def ex2_weighted() -> ParacontactStructure:
    """Example 2 in the weighted trace; ``ex2`` follows the paper mode its manifest declares."""
    overrides = {"ricci_mode": WEIGHTED_TRACE}
    return load_manifest(fixture_path("ex2_r3_timelike"), overrides=overrides).structure()


@pytest.fixture(scope="session")
def flat(structures) -> ParacontactStructure:
    return structures["flat_r3"]


@pytest.fixture(scope="session")
def warped(structures) -> ParacontactStructure:
    return structures["warped_r3"]
