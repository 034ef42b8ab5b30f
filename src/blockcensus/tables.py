"""Static data tables for exceptional types and the numeric checks that
run over them: unipotent character counts, torus class data with the
average-value inequality, the isolated 5-block list for the largest
exceptional type, and root-system margins for the defining-characteristic
argument.

Tables live as tab-separated files under blockcensus/data. Every loader
takes an optional data_dir override pointing at a directory with files of
the same names, used by tests to inject corrupted copies.
"""

from __future__ import annotations

import functools
import re
from pathlib import Path
from typing import NamedTuple

from . import slots
from .counting import partition_count

__all__ = [
    "ClassRow",
    "ClassTable",
    "E8IsolatedRow",
    "RootSystemDatum",
    "EXPECTED_CLASS_SUMS",
    "unipotent_count",
    "unipotent_count_entries",
    "list_class_tables",
    "class_table",
    "average_check",
    "label_product_count",
    "e8_isolated_rows",
    "e8_defect_order",
    "e8_series_bound_check",
    "root_systems",
    "fg_margin",
]

_CLASS_TABLE_FILES = {
    "F4-l2": ("F4", 2, "class_f4_l2.tsv"),
    "F4-l3": ("F4", 3, "class_f4_l3.tsv"),
    "E6-l3": ("E6", 3, "class_e6_l3.tsv"),
}

# Known-good multiplicity-weighted sums (character count, torsion element
# count) per class table; the verifier checks freshly loaded data against
# these, so a corrupted data file cannot slip through silently.
EXPECTED_CLASS_SUMS = {
    "F4-l2": (138, 256),
    "F4-l3": (70, 81),
    "E6-l3": (176, 729),
}


def _read_table(filename: str, data_dir: str | Path | None = None) -> list[dict[str, str]]:
    if data_dir is not None:
        text = Path(data_dir, filename).read_text()
    else:
        # imported here: from Python 3.12 on, importlib.resources loads
        # inspect, which a census never needs
        from importlib import resources

        text = resources.files("blockcensus.data").joinpath(filename).read_text()
    header: list[str] | None = None
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split("\t")]
        if header is None:
            header = cells
            continue
        if len(cells) != len(header):
            raise ValueError(f"{filename}: malformed row {raw!r}")
        rows.append(dict(zip(header, cells)))
    if header is None:
        raise ValueError(f"{filename}: no header line found")
    return rows


def unipotent_count_entries(data_dir=None) -> tuple[tuple[str, int], ...]:
    """The stored (label, count) pairs, one per table entry; labels that
    share a count are kept on one comma-joined line in the data file."""
    return tuple(
        (row["label"], int(row["count"]))
        for row in _read_table("unipotent_counts.tsv", data_dir)
    )


@functools.lru_cache(maxsize=None)
def _packaged_unipotent_count_entries() -> tuple[tuple[str, int], ...]:
    # the packaged file cannot change while the program runs, so it is read
    # once; a data_dir file is read afresh on every call
    return unipotent_count_entries()


def unipotent_count(label: str, data_dir=None) -> int:
    """Unipotent character count for one simple-type label; accepts either
    a single label like "E6" or "2D4" or a stored comma pair."""
    if data_dir is None:
        entries = _packaged_unipotent_count_entries()
    else:
        entries = unipotent_count_entries(data_dir)
    for stored, count in entries:
        if label == stored or label in stored.split(","):
            return count
    raise KeyError(f"no unipotent count stored for label {label!r}")


class _ClassRowFields(NamedTuple):
    centralizer_label: str
    order_of_t: int
    e_count: int
    class_size: int
    multiplicity: int = 1


class ClassRow(_ClassRowFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.e_count < 1 or self.class_size < 1:
            raise ValueError("e_count and class_size must be >= 1")
        if self.order_of_t < 1 or self.multiplicity < 1:
            raise ValueError("order_of_t and multiplicity must be >= 1")
        return self


class _ClassTableFields(NamedTuple):
    group_label: str
    ell: int
    rows: tuple[ClassRow, ...]


class ClassTable(_ClassTableFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not any(r.order_of_t == 1 and r.class_size == 1 for r in self.rows):
            raise ValueError(
                f"class table {self.group_label} (ell={self.ell}) "
                "is missing its identity row"
            )
        return self

    def identity_row(self) -> ClassRow:
        return next(r for r in self.rows if r.order_of_t == 1)


def list_class_tables() -> tuple[str, ...]:
    return tuple(_CLASS_TABLE_FILES)


def class_table(name: str, data_dir=None) -> ClassTable:
    if name not in _CLASS_TABLE_FILES:
        raise KeyError(f"unknown class table {name!r}; have {list_class_tables()}")
    group_label, ell, filename = _CLASS_TABLE_FILES[name]
    rows = tuple(
        ClassRow(
            centralizer_label=row["centralizer"],
            order_of_t=int(row["order_t"]),
            e_count=int(row["e_count"]),
            class_size=int(row["class_size"]),
            multiplicity=int(row["multiplicity"]),
        )
        for row in _read_table(filename, data_dir)
    )
    return ClassTable(group_label, ell, rows)


_FACTOR_RE = re.compile(r"~?(\d?[A-G]\d+)\(q[^)]*\)(?:\^(\d+))?")


def _simple_factor_count(name: str) -> int | None:
    try:
        return unipotent_count(name)
    except KeyError:
        pass
    core = name.lstrip("23")
    if core.startswith("A"):
        # type A in any twist: counts are plain partition numbers
        return partition_count(int(core[1:]) + 1)
    return None


def label_product_count(label: str) -> int | None:
    """Unipotent character count a plain product centralizer label should
    carry: one factor per simple component, torus factors contribute 1.
    Returns None for labels this cannot validate, namely those with a bare
    integer component-group suffix (characters mix between factors there)
    or with a simple factor of unlisted type."""
    total = 1
    for part in label.split("."):
        if not part:
            return None
        if part.startswith("("):
            continue
        if part.isdigit():
            return None
        match = _FACTOR_RE.fullmatch(part)
        if match is None:
            return None
        count = _simple_factor_count(match.group(1))
        if count is None:
            return None
        total *= count ** int(match.group(2) or 1)
    return total


def average_check(table: ClassTable) -> tuple[int, int, bool]:
    """Multiplicity-weighted sums (character counts, class sizes) and
    whether the strict inequality sum_e < sum_sizes holds, which is what
    makes the average contribution per class less than one."""
    sum_e = sum(r.multiplicity * r.e_count for r in table.rows)
    sum_sizes = sum(r.multiplicity * r.class_size for r in table.rows)
    return sum_e, sum_sizes, sum_e < sum_sizes


class _E8IsolatedRowFields(NamedTuple):
    case_number: int | None
    centralizer_label: str
    levi_label: str
    cuspidal_label: str
    defect_coeff: int
    defect_const: int


class E8IsolatedRow(_E8IsolatedRowFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.defect_coeff not in (4, 5, 8):
            raise ValueError(f"defect_coeff must be one of 4, 5, 8: {self.defect_coeff}")
        if self.defect_const not in (0, 1):
            raise ValueError(f"defect_const must be 0 or 1: {self.defect_const}")
        return self


def e8_isolated_rows(data_dir=None) -> tuple[E8IsolatedRow, ...]:
    rows = []
    for row in _read_table("isolated_5blocks_e8.tsv", data_dir):
        case = row["case"]
        rows.append(
            E8IsolatedRow(
                case_number=None if case == "-" else int(case),
                centralizer_label=row["centralizer"],
                levi_label=row["levi"],
                cuspidal_label=row["cuspidal"],
                defect_coeff=int(row["defect_coeff"]),
                defect_const=int(row["defect_const"]),
            )
        )
    return tuple(rows)


def e8_defect_order(row: E8IsolatedRow, a: int) -> int:
    """Defect group order 5**(coeff*a + const) of the row's block, where
    5**a is the exact power of 5 dividing the relevant q**d - 1."""
    if a < 1:
        raise ValueError("a must be >= 1")
    return 5 ** (row.defect_coeff * a + row.defect_const)


def e8_series_bound_check(a: int, rows) -> bool:
    """The product bound behind the unnumbered rows: character totals of
    the rank 6, 3, 2 unitary factors are bounded by 5**(4a), 5**(2a),
    5**(2a), the product stays under 5**(8a), and dividing out the index
    5**(3a) lands exactly on the defect order 5**(5a) stored with the
    coefficient-5 rows. The twisted order parameter is 2 because the cases
    in question have field size congruent to 1 mod 5. rows are the
    isolated 5-block rows, as e8_isolated_rows returns them; without a
    coefficient-5 row the check fails."""
    if a < 1:
        raise ValueError("a must be >= 1")
    bounds = ((6, 4), (3, 2), (2, 2))
    product = 1
    ok = True
    for rank, coeff in bounds:
        total = slots.eL_series_total(slots.UNITARY, rank, 2, a, 5)
        ok = ok and total <= 5 ** (coeff * a)
        product *= total
    ok = ok and product <= 5 ** (8 * a)
    quotient = 5 ** (8 * a) // 5 ** (3 * a)
    row = next((r for r in rows if r.defect_coeff == 5), None)
    ok = ok and row is not None and quotient == 5 ** (5 * a) == e8_defect_order(row, a)
    return ok


class _RootSystemDatumFields(NamedTuple):
    label: str
    rank: int
    positive_roots: int


class RootSystemDatum(_RootSystemDatumFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 1 <= self.rank <= self.positive_roots:
            raise ValueError("need positive_roots >= rank >= 1")
        return self


def root_systems(data_dir=None) -> tuple[RootSystemDatum, ...]:
    return tuple(
        RootSystemDatum(row["label"], int(row["rank"]), int(row["positive_roots"]))
        for row in _read_table("root_systems.tsv", data_dir)
    )


def fg_margin(datum: RootSystemDatum, q: int) -> bool:
    """True when the Sylow size q**N beats the class-count bound 27.2 * q**r,
    that is when q**(N - r) > 27.2; evaluated as 5 * q**(N-r) > 136 to stay
    in integers."""
    if q < 2:
        raise ValueError("q must be >= 2")
    return 5 * q ** (datum.positive_roots - datum.rank) > 136
