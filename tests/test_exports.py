"""The public surface: every exported name exists, and the list is pinned."""

from __future__ import annotations

import importlib
import pkgutil

import oseq


def test_every_exported_name_resolves():
    modules = [oseq] + [
        importlib.import_module(f"oseq.{info.name}") for info in pkgutil.iter_modules(oseq.__path__)
    ]
    exported = [(m, name) for m in modules for name in getattr(m, "__all__", ())]
    with_all = {m.__name__ for m, _ in exported}
    assert with_all >= {"oseq", "oseq.bounds", "oseq.census", "oseq.macaulay", "oseq.partitions"}
    missing = [f"{m.__name__}.{name}" for m, name in exported if not hasattr(m, name)]
    assert missing == []


def test_package_exports_every_module_list_once():
    modules = [oseq.bounds, oseq.census, oseq.errors, oseq.macaulay, oseq.partitions]
    assert oseq.__all__ == [name for m in modules for name in m.__all__]
    assert len(set(oseq.__all__)) == len(oseq.__all__)
    assert oseq.precritical_prefixes is oseq.census.precritical_prefixes


# Every public name, in module order. A name added or removed here is a
# change of the library contract, to be stated with the change.
PUBLIC_NAMES = [
    # bounds
    "BoundsRecord",
    "BoundsReport",
    "StaircaseDecomposition",
    "RemarkReport",
    "critical_index",
    "verify_tail_partition",
    "check_prefix_bound",
    "build_bounds_report",
    "staircase_decompose",
    "remark_profile",
    # census
    "DEFAULT_STREAM_CAP",
    "CensusCounter",
    "CensusTable",
    "count_osequences",
    "enumerate_osequences",
    "precritical_prefixes",
    "build_census",
    # errors
    "ResourceLimitError",
    "EnumerationCapError",
    "TheoremViolationError",
    # macaulay
    "HVector",
    "MacaulayExpansion",
    "ValidityReport",
    "macaulay_expand",
    "pseudopower",
    "is_o_sequence",
    # partitions
    "DEFAULT_TABLE_LIMIT",
    "PartitionTable",
    "build_partition_table",
    "hardy_ramanujan",
]


def test_public_names_are_pinned():
    assert oseq.__all__ == PUBLIC_NAMES
