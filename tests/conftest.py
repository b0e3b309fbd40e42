"""Shared fixtures.

The partition table and the census to 60 are built once per session and
handed out read-only. The generate-and-test oracle is built once too, for the
tests that check the counter and the enumeration against it.
"""

from __future__ import annotations

import pathlib

import pytest

import oseq.macaulay
from oseq.census import build_census
from oseq.macaulay import is_o_sequence
from oseq.partitions import build_partition_table

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def partition_table():
    return build_partition_table(500)


@pytest.fixture(scope="session")
def census_table():
    return build_census(60)


def compositions(total: int):
    """Every ordered tuple of positive integers summing to ``total``."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first, *rest)


@pytest.fixture(scope="session")
def filtered_compositions():
    """n -> every O-sequence of length n, n = 1..12, in lexicographic order.

    Generate and test: every 1-prefixed composition of n, kept when
    ``is_o_sequence`` accepts it. It shares no code with the census besides
    that validity test.
    """
    return {
        n: sorted((1, *tail) for tail in compositions(n - 1) if is_o_sequence((1, *tail)).valid)
        for n in range(1, 13)
    }


@pytest.fixture
def searches(monkeypatch):
    """Every Macaulay search made during the test, as a list of (value, k)."""
    calls = []
    largest_top_index = oseq.macaulay._largest_top_index

    def counted(value, k):
        calls.append((value, k))
        return largest_top_index(value, k)

    monkeypatch.setattr(oseq.macaulay, "_largest_top_index", counted)
    return calls


@pytest.fixture(scope="session")
def schema_dir():
    path = REPO_ROOT / "schemas"
    assert path.is_dir()
    return path
