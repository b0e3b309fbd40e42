"""The record contracts: immutable, compared and hashed by their fields.

Every result record is a slotted ``collections.namedtuple`` subclass whose
class body annotates its fields; ``HVector`` is a small slotted class, since
it iterates over its entries rather than its fields.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from oseq.bounds import BoundsRecord, BoundsReport, RemarkReport, StaircaseDecomposition
from oseq.census import CensusTable
from oseq.macaulay import HVector, MacaulayExpansion, ValidityReport
from oseq.partitions import PartitionTable

BOUNDS_RECORD = dict(n=2, count=1, lower=1, log_upper=2.5, c1_emp=0.0, c2_emp=0.0)

# Each record type with the fields of one instance, in declaration order.
RECORDS = [
    (PartitionTable, dict(limit=2, p_values=(1, 1, 2), q_values=(1, 1, 1))),
    (CensusTable, dict(records={1: 1, 2: 1}, max_n=2)),
    (BoundsRecord, BOUNDS_RECORD),
    (BoundsReport, dict(records=(BoundsRecord(**BOUNDS_RECORD),), c1_min=None, c2_max=None)),
    (StaircaseDecomposition, dict(degree=2, t=0, alpha=1)),
    (
        RemarkReport,
        dict(
            decompositions=((1, None), (2, StaircaseDecomposition(degree=2, t=0, alpha=1))),
            first_applicable_degree=2,
            critical_index=3,
        ),
    ),
    (MacaulayExpansion, dict(degree=2, terms=((3, 2), (2, 1)))),
    (ValidityReport, dict(valid=False, first_violation=1, reason="growth-violation")),
]

# Records holding a dict are unhashable, as they were as frozen dataclasses.
UNHASHABLE = {CensusTable}


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_contract(cls, fields):
    record = cls(**fields)
    assert record._fields == tuple(fields) == tuple(cls.__annotations__)
    with pytest.raises(AttributeError):
        record.extra = None
    assert record == cls(**copy.deepcopy(fields))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(**copy.deepcopy(fields)))
    assert record._replace(**{record._fields[0]: "other"}) != record


def test_record_defaults():
    assert ValidityReport(True) == ValidityReport(valid=True, first_violation=None, reason=None)


def test_hvector_is_immutable_and_compared_by_entries():
    h = HVector((1, 2))
    with pytest.raises(AttributeError):
        h.entries = (1, 3)
    with pytest.raises(AttributeError):
        h.extra = 1
    with pytest.raises(AttributeError):
        del h.entries
    assert h.entries == (1, 2)
    assert h == HVector((1, 2)) and hash(h) == hash(HVector((1, 2)))
    assert h != HVector((1, 3))
    assert h != (1, 2)
    assert (h.top_degree, h.total, len(h), h[1], list(h)) == (1, 3, 2, 2, [1, 2])
    assert copy.copy(h) == h and pickle.loads(pickle.dumps(h)) == h


def test_hvector_repr():
    assert repr(HVector((1, 2))) == "HVector(entries=(1, 2))"


@pytest.mark.parametrize(
    "entries, message",
    [
        ((), "an h-vector has at least the entry h_0 = 1"),
        ((2,), "h_0 must be 1, got 2"),
        ((1, 0), "all entries must be positive"),
    ],
)
def test_hvector_rejects_non_canonical_entries(entries, message):
    with pytest.raises(ValueError) as excinfo:
        HVector(entries)
    assert str(excinfo.value) == message
