"""The contract of the package's fifteen records, the immutable value types
of blocks, slots, oracle and tables. Each is a named tuple: it keeps its
fields in order with their defaults, refuses assignment, compares and
hashes by value, and prints as Name(field=value, ...). The validated ones
refuse bad values when they are built, by position or by keyword."""

import pytest

from blockcensus import blocks, slots
from blockcensus.blocks import (
    BlockInvariants,
    BlockQuery,
    CensusReport,
    EllProfile,
    Row,
    SweepSpec,
)
from blockcensus.oracle import ClassDatum, MatrixGroupCensus
from blockcensus.slots import (
    CentralizerShape,
    SlotClass,
    SlotInventory,
    WeightVector,
)
from blockcensus.tables import (
    ClassRow,
    ClassTable,
    E8IsolatedRow,
    RootSystemDatum,
)

_PROFILE = EllProfile(3, 1, 1, 4)
_IDENTITY = ClassRow("T", 1, 1, 1)
_REPORT_ROW = Row(family="GL", ell=3, d=1, a=1, w=0, verdict=blocks.ERROR)
_DATUM = ClassDatum(((1, 0), (0, 1)), 1, 6, 1)

# type: (fields in order, their defaults, a valid sample's arguments, a
# field change that keeps the sample valid)
RECORDS = {
    EllProfile: (
        ("ell", "d", "a", "q"),
        {"q": None},
        {"ell": 3, "d": 1, "a": 1},
        {"q": 4},
    ),
    BlockQuery: (
        ("family", "profile", "w", "n", "g", "m"),
        {"w": None, "n": None, "g": 0, "m": 0},
        {"family": blocks.GL, "profile": _PROFILE},
        {"w": 2},
    ),
    BlockInvariants: (
        ("k_B", "exactness", "defect_exponent", "abelian_defect", "verdict", "two_path_checked"),
        {"two_path_checked": False},
        {
            "k_B": 3,
            "exactness": blocks.EXACT,
            "defect_exponent": 1,
            "abelian_defect": True,
            "verdict": blocks.HOLDS_EQUALITY_ABELIAN,
        },
        {"k_B": 2},
    ),
    SweepSpec: (
        (
            "families", "ell_values", "d_values", "a_values",
            "w_values", "n_values", "g_values", "q_values",
        ),
        {
            "families": (), "ell_values": (), "d_values": None, "a_values": (1,),
            "w_values": (), "n_values": (), "g_values": None, "q_values": (),
        },
        {},
        {"families": (blocks.GL,)},
    ),
    CensusReport: (
        ("rows", "metadata", "errors", "cells"),
        {"errors": (), "cells": None},
        {
            "rows": (_REPORT_ROW,),
            "metadata": {"tool": "blockcensus"},
            "cells": (blocks._row_cells(_REPORT_ROW),),
        },
        {"metadata": {"tool": "other"}},
    ),
    SlotClass: (
        ("level", "slot_count", "unit_weight", "factor_kind", "degree_multiplier"),
        {},
        {"level": 1, "slot_count": 2, "unit_weight": 1, "factor_kind": slots.LINEAR, "degree_multiplier": 1},
        {"slot_count": 3},
    ),
    SlotInventory: (
        ("family", "ell", "d", "dprime", "a", "denom", "weyl_base"),
        {},
        {"family": slots.LINEAR, "ell": 3, "d": 1, "dprime": 1, "a": 1, "denom": 1, "weyl_base": 1},
        {"a": 2},
    ),
    WeightVector: (
        ("principal", "mults"),
        {},
        {"principal": 1, "mults": ((0, 1),)},
        {"principal": 0},
    ),
    CentralizerShape: (
        ("factors",),
        {},
        {"factors": ((slots.LINEAR, 2, 1),)},
        {"factors": ()},
    ),
    ClassDatum: (
        ("representative", "size", "centralizer_order", "element_order"),
        {},
        {"representative": ((1, 0), (0, 1)), "size": 1, "centralizer_order": 6, "element_order": 1},
        {"size": 2},
    ),
    MatrixGroupCensus: (
        ("group", "n", "q", "ell", "group_order", "classes"),
        {},
        {"group": "GL", "n": 2, "q": 2, "ell": 3, "group_order": 6, "classes": (_DATUM,)},
        {"ell": 2},
    ),
    ClassRow: (
        ("centralizer_label", "order_of_t", "e_count", "class_size", "multiplicity"),
        {"multiplicity": 1},
        {"centralizer_label": "T", "order_of_t": 3, "e_count": 2, "class_size": 4},
        {"e_count": 1},
    ),
    ClassTable: (
        ("group_label", "ell", "rows"),
        {},
        {"group_label": "F4", "ell": 3, "rows": (_IDENTITY,)},
        {"ell": 2},
    ),
    E8IsolatedRow: (
        ("case_number", "centralizer_label", "levi_label", "cuspidal_label", "defect_coeff", "defect_const"),
        {},
        {
            "case_number": None, "centralizer_label": "C", "levi_label": "L",
            "cuspidal_label": "X", "defect_coeff": 5, "defect_const": 1,
        },
        {"case_number": 7},
    ),
    RootSystemDatum: (
        ("label", "rank", "positive_roots"),
        {},
        {"label": "A1", "rank": 1, "positive_roots": 1},
        {"label": "B1"},
    ),
}

_IDS = [cls.__name__ for cls in RECORDS]


def test_every_record_is_listed():
    # the fifteen records, by the module that defines them
    assert {(cls.__module__, cls.__name__) for cls in RECORDS} == {
        ("blockcensus.blocks", name)
        for name in ("EllProfile", "BlockQuery", "BlockInvariants", "SweepSpec", "CensusReport")
    } | {
        ("blockcensus.slots", name)
        for name in ("SlotClass", "SlotInventory", "WeightVector", "CentralizerShape")
    } | {
        ("blockcensus.oracle", name) for name in ("ClassDatum", "MatrixGroupCensus")
    } | {
        ("blockcensus.tables", name)
        for name in ("ClassRow", "ClassTable", "E8IsolatedRow", "RootSystemDatum")
    }


@pytest.mark.parametrize("cls", RECORDS, ids=_IDS)
def test_record_fields_and_defaults(cls):
    fields, defaults, sample, _ = RECORDS[cls]
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    record = cls(**sample)
    for name in fields:
        expected = sample[name] if name in sample else defaults[name]
        assert getattr(record, name) == expected
    # by position, in field order
    assert cls(*[getattr(record, name) for name in fields]) == record


@pytest.mark.parametrize("cls", RECORDS, ids=_IDS)
def test_record_rejects_assignment(cls):
    fields, _, sample, _ = RECORDS[cls]
    record = cls(**sample)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert cls(**sample) == record


@pytest.mark.parametrize("cls", RECORDS, ids=_IDS)
def test_record_compares_and_hashes_by_value(cls):
    _, _, sample, change = RECORDS[cls]
    record, twin = cls(**sample), cls(**sample)
    other = cls(**{**sample, **change})
    assert twin is not record
    assert twin == record and not twin != record
    assert other != record
    if cls is CensusReport:
        # its metadata is a dict, so a report has no hash, as before
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)
        assert len({record, twin, other}) == 2
    # a named tuple equals the plain tuple of its values and unpacks like one
    assert record == tuple(record)
    assert [*record] == [getattr(record, name) for name in cls._fields]


@pytest.mark.parametrize("cls", RECORDS, ids=_IDS)
def test_record_repr(cls):
    _, _, sample, _ = RECORDS[cls]
    record = cls(**sample)
    body = ", ".join(f"{name}={getattr(record, name)!r}" for name in cls._fields)
    assert repr(record) == f"{cls.__name__}({body})"


def test_record_repr_literals():
    assert repr(EllProfile(3, 2, 1)) == "EllProfile(ell=3, d=2, a=1, q=None)"
    assert repr(BlockQuery(blocks.GL, _PROFILE, w=2)) == (
        "BlockQuery(family='GL', profile=EllProfile(ell=3, d=1, a=1, q=4), "
        "w=2, n=None, g=0, m=0)"
    )
    assert repr(RootSystemDatum("A1", 1, 1)) == "RootSystemDatum(label='A1', rank=1, positive_roots=1)"


def test_census_report_normalises_its_sequences():
    report = CensusReport([_REPORT_ROW], {"tool": "blockcensus"}, ["GL row: bad"])
    assert report.rows == (_REPORT_ROW,) and type(report.rows) is tuple
    assert report.errors == ("GL row: bad",) and type(report.errors) is tuple
    assert report.cells == (blocks._row_cells(_REPORT_ROW),) and type(report.cells) is tuple
    given = CensusReport(rows=[_REPORT_ROW], metadata={}, cells=[report.cells[0]])
    assert type(given.cells) is tuple and given.cells == report.cells


# bad values for each of the eight records that check theirs
_INVALID = [
    (EllProfile, (4, 1, 1), {}, "ell must be prime, got 4"),
    (EllProfile, (3, 1, 0), {}, "a must be >= 1"),
    (EllProfile, (), {"ell": 3, "d": 0, "a": 1}, "d must be >= 1"),
    (EllProfile, (2, 3, 1), {}, "for ell = 2 the order parameter is taken mod 4"),
    (EllProfile, (5, 3, 1), {}, "d=3 must divide ell-1=4 for odd ell"),
    (BlockQuery, ("XX", _PROFILE), {}, "unknown family 'XX'"),
    (BlockQuery, (blocks.GL, _PROFILE), {"g": -1}, "g and m must be >= 0"),
    (BlockQuery, (blocks.GL, _PROFILE, -1), {}, "w must be >= 0"),
    (BlockQuery, (blocks.GL, _PROFILE), {"n": 0}, "n must be >= 1"),
    (BlockQuery, (blocks.GL, EllProfile(3, 2, 1), 2, 3), {}, "weight 2 does not fit into rank 3"),
    (BlockQuery, (blocks.SOEVEN_PLUS, _PROFILE), {"n": 3}, "even orthogonal families need n >= 4"),
    (BlockQuery, (blocks.GL, _PROFILE), {"g": 2}, "g must be <= a"),
    (CensusReport, ((_REPORT_ROW,), {}), {"cells": ()}, "a report of 1 rows has 0 cell rows"),
    (CensusReport, ((), {}, (), ((),)), {}, "a report of 0 rows has 1 cell rows"),
    (SlotClass, (1, 0, 1, slots.LINEAR, 1), {}, "slot_count must be >= 1"),
    (SlotClass, (), {**RECORDS[SlotClass][2], "unit_weight": 0}, "unit_weight must be >= 1"),
    (ClassRow, ("T", 1, 0, 1), {}, "e_count and class_size must be >= 1"),
    (ClassRow, ("T", 1, 1, 1), {"multiplicity": 0}, "order_of_t and multiplicity must be >= 1"),
    (ClassTable, ("F4", 3, (ClassRow("T", 3, 2, 4),)), {}, "class table F4 \\(ell=3\\) is missing its identity row"),
    (E8IsolatedRow, (None, "C", "L", "X", 6, 1), {}, "defect_coeff must be one of 4, 5, 8: 6"),
    (E8IsolatedRow, (), {**RECORDS[E8IsolatedRow][2], "defect_const": 2}, "defect_const must be 0 or 1: 2"),
    (RootSystemDatum, ("A0", 0, 0), {}, "need positive_roots >= rank >= 1"),
    (RootSystemDatum, (), {"label": "X", "rank": 3, "positive_roots": 2}, "need positive_roots >= rank >= 1"),
]


@pytest.mark.parametrize(
    "cls, args, kwargs, match",
    _INVALID,
    ids=[f"{case[0].__name__}-{i}" for i, case in enumerate(_INVALID)],
)
def test_validated_record_refuses_bad_values(cls, args, kwargs, match):
    with pytest.raises(ValueError, match=match):
        cls(*args, **kwargs)
