"""Shared fixtures.

The partition table and the census counter are the two expensive objects in
the suite, so both are built once per session and handed out read-only.
"""

from __future__ import annotations

import pathlib

import pytest

from oseq.census import CensusCounter, build_census
from oseq.partitions import build_partition_table

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def partition_table():
    return build_partition_table(500)


@pytest.fixture(scope="session")
def census_counter():
    return CensusCounter(ceiling=200)


@pytest.fixture(scope="session")
def census_table():
    return build_census(60)


@pytest.fixture(scope="session")
def schema_dir():
    path = REPO_ROOT / "schemas"
    assert path.is_dir()
    return path
