"""Exact counting, validation, and bound checking for O-sequences."""

from .bounds import (
    BoundsRecord,
    BoundsReport,
    RemarkReport,
    StaircaseDecomposition,
    build_bounds_report,
    check_prefix_bound,
    critical_index,
    remark_profile,
    staircase_decompose,
    verify_tail_partition,
)
from .census import (
    CensusCounter,
    CensusTable,
    brute_force_count,
    build_census,
    count_osequences,
    enumerate_osequences,
)
from .errors import EnumerationCapError, ResourceLimitError, TheoremViolationError
from .macaulay import (
    HVector,
    MacaulayExpansion,
    ValidityReport,
    binomial,
    is_o_sequence,
    macaulay_expand,
    pseudopower,
)
from .partitions import (
    AsymptoticEstimate,
    PartitionTable,
    PQCheck,
    build_partition_table,
    check_pq_inequality,
    hardy_ramanujan,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticEstimate",
    "BoundsRecord",
    "BoundsReport",
    "CensusCounter",
    "CensusTable",
    "EnumerationCapError",
    "HVector",
    "MacaulayExpansion",
    "PQCheck",
    "PartitionTable",
    "RemarkReport",
    "ResourceLimitError",
    "StaircaseDecomposition",
    "TheoremViolationError",
    "ValidityReport",
    "binomial",
    "brute_force_count",
    "build_bounds_report",
    "build_census",
    "build_partition_table",
    "check_pq_inequality",
    "check_prefix_bound",
    "count_osequences",
    "critical_index",
    "enumerate_osequences",
    "hardy_ramanujan",
    "is_o_sequence",
    "macaulay_expand",
    "pseudopower",
    "remark_profile",
    "staircase_decompose",
    "verify_tail_partition",
]
