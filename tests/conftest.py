"""Shared fixtures: a reduced catalog and its libraries.

The reduced catalog covers every structural feature (single-stage
gates, stacked gates, multi-output adders, sequential cells, buffers)
while keeping characterization fast; full-catalog behaviour is covered
by dedicated tests in ``tests/cells`` and the benchmarks.
"""

from __future__ import annotations

import os

import pytest

from repro.cells.catalog import build_catalog
from repro.characterization.characterize import Characterizer


@pytest.fixture(scope="session", autouse=True)
def _isolated_cache_dir(tmp_path_factory):
    """Point the on-disk artifact store at a per-session temp directory.

    Keeps the suite hermetic (never touches ``~/.cache/repro``) while
    still exercising the store wherever flows enable it.
    """
    directory = tmp_path_factory.mktemp("repro-cache")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(directory)
    yield directory
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous

#: Families exercising every cell topology the code distinguishes.
SMALL_FAMILIES = [
    "INV",
    "BUF",
    "ND2",
    "ND4",
    "NR2",
    "NR2B",
    "OR2",
    "XNR2",
    "MUX2",
    "ADDH",
    "ADDF",
    "DFF",
    "DFFR",
    "LATQ",
]


@pytest.fixture(scope="session")
def small_specs():
    """Catalog slice with every topology class."""
    return build_catalog(families=SMALL_FAMILIES)


@pytest.fixture(scope="session")
def full_specs():
    """The full 304-cell Appendix A catalog."""
    return build_catalog()


@pytest.fixture(scope="session")
def characterizer():
    return Characterizer()


@pytest.fixture(scope="session")
def nominal_library(characterizer, small_specs):
    """Nominal library of the reduced catalog."""
    return characterizer.nominal_library(small_specs)


@pytest.fixture(scope="session")
def statistical_library(characterizer, small_specs):
    """Statistical library (30 MC samples) of the reduced catalog."""
    return characterizer.statistical_library(small_specs, n_samples=30, seed=9)


@pytest.fixture(scope="session")
def full_statistical_library(characterizer, full_specs):
    """Statistical library of the full 304-cell catalog."""
    return characterizer.statistical_library(full_specs, n_samples=30, seed=9)
