import shutil
from collections import Counter
from pathlib import Path

import pytest

from blockcensus import tables
from blockcensus.counting import partition_count

DATA_DIR = Path(tables.__file__).parent / "data"

EXPECTED_UNIPOTENT = {
    "B2,C2": 6,
    "B3,C3": 12,
    "B4,C4": 25,
    "D4": 14,
    "2D4": 10,
    "F4": 37,
    "D5,2D5": 20,
    "D6": 42,
    "2D6": 36,
    "E6,2E6": 30,
    "D7,2D7": 65,
    "E7": 76,
    "D8": 120,
    "2D8": 110,
    "E8": 166,
}


def test_unipotent_count_entries():
    entries = tables.unipotent_count_entries()
    assert dict(entries) == EXPECTED_UNIPOTENT
    assert len(entries) == 15


def test_unipotent_count_alias_lookup():
    assert tables.unipotent_count("B2") == 6
    assert tables.unipotent_count("C2") == 6
    assert tables.unipotent_count("B2,C2") == 6
    assert tables.unipotent_count("2E6") == tables.unipotent_count("E6") == 30
    assert tables.unipotent_count("E8") == 166
    with pytest.raises(KeyError):
        tables.unipotent_count("H4")


def test_verify_exceptional_parses_the_packaged_counts_once(monkeypatch, tmp_path, capsys):
    from blockcensus import cli

    reads = Counter()
    read_table = tables._read_table

    def counting_read(filename, data_dir=None):
        reads[filename, data_dir is None] += 1
        return read_table(filename, data_dir)

    monkeypatch.setattr(tables, "_read_table", counting_read)
    tables._packaged_unipotent_count_entries.cache_clear()
    assert cli.main(["verify-exceptional"]) == 0
    assert reads["unipotent_counts.tsv", True] == 1
    assert reads["root_systems.tsv", True] == 1
    assert reads["isolated_5blocks_e8.tsv", True] == 1
    # the packaged counts stay the ground truth under --data-dir, and
    # their parse is not repeated
    reads.clear()
    assert cli.main(["verify-exceptional", "--data-dir", str(_copied_data(tmp_path))]) == 0
    assert reads["unipotent_counts.tsv", True] == 0
    assert reads["unipotent_counts.tsv", False] == 0
    assert reads["class_e6_l3.tsv", False] == 1
    assert reads["root_systems.tsv", False] == 1
    assert reads["isolated_5blocks_e8.tsv", False] == 1
    assert reads["isolated_5blocks_e8.tsv", True] == 0
    capsys.readouterr()


def test_list_class_tables():
    assert tables.list_class_tables() == ("F4-l2", "F4-l3", "E6-l3")
    with pytest.raises(KeyError):
        tables.class_table("E8-l7")


def test_class_table_sums_match_frozen_values():
    for name, (sum_e, sum_sizes) in tables.EXPECTED_CLASS_SUMS.items():
        table = tables.class_table(name)
        got_e, got_sizes, strict = tables.average_check(table)
        assert (got_e, got_sizes) == (sum_e, sum_sizes), name
        assert strict, name


def test_class_table_shapes():
    f4l2 = tables.class_table("F4-l2")
    assert f4l2.group_label == "F4" and f4l2.ell == 2
    assert len(f4l2.rows) == 8
    assert f4l2.identity_row().e_count == 37
    assert {r.order_of_t for r in f4l2.rows} == {1, 2, 4}

    f4l3 = tables.class_table("F4-l3")
    assert len(f4l3.rows) == 4
    assert {r.order_of_t for r in f4l3.rows} == {1, 3}

    e6l3 = tables.class_table("E6-l3")
    assert len(e6l3.rows) == 7
    assert sorted(r.multiplicity for r in e6l3.rows) == [1, 1, 1, 1, 1, 2, 2]
    # torsion counts are powers of ell in every table
    for name in tables.list_class_tables():
        table = tables.class_table(name)
        total = tables.average_check(table)[1]
        while total % table.ell == 0:
            total //= table.ell
        assert total == 1, name


LABEL_COUNTS = {
    "F4(q)": 37,
    "B4(q)": 25,
    "C3(q).A1(q)": 24,
    "B3(q).(q-1)": 12,
    "A3(q).~A1(q)": 10,
    "B2(q).A1(q).(q-1)": 12,
    "~A2(q).A1(q).(q-1)": 6,
    "A2(q).~A2(q)": 9,
    "E6(q)": 30,
    "A5(q).(q-1)": 11,
    "D5(q).(q-1)": 20,
    "A4(q).A1(q).(q-1)": 14,
}


def test_label_product_count_values():
    for label, expected in LABEL_COUNTS.items():
        assert tables.label_product_count(label) == expected, label


def test_label_product_count_unvalidatable_labels():
    # a bare integer component-group suffix glues characters across factors
    assert tables.label_product_count("A2(q)^3.3") is None
    assert tables.label_product_count("D4(q).(q-1)^2.3") is None
    assert tables.label_product_count("3D4(q).(q^2+q+1).3") is None
    assert tables.label_product_count("H4(q)") is None
    assert tables.label_product_count("") is None


def test_label_product_count_covers_every_validatable_row():
    for name in tables.list_class_tables():
        for row in tables.class_table(name).rows:
            predicted = tables.label_product_count(row.centralizer_label)
            if predicted is not None:
                assert predicted == row.e_count, (name, row.centralizer_label)


def test_type_a_fallback_uses_partition_numbers():
    assert tables.label_product_count("A7(q)") == partition_count(8)
    assert tables.label_product_count("2A3(q)") == partition_count(4)


def _copied_data(tmp_path):
    dest = tmp_path / "data"
    shutil.copytree(DATA_DIR, dest)
    return dest


def test_data_dir_override_roundtrip(tmp_path):
    dest = _copied_data(tmp_path)
    table = tables.class_table("F4-l3", data_dir=dest)
    assert tables.average_check(table)[:2] == tables.EXPECTED_CLASS_SUMS["F4-l3"]


def test_corrupted_count_is_detected(tmp_path):
    dest = _copied_data(tmp_path)
    path = dest / "class_f4_l3.tsv"
    path.write_text(path.read_text().replace("A2(q).~A2(q)\t3\t9", "A2(q).~A2(q)\t3\t10"))
    table = tables.class_table("F4-l3", data_dir=dest)
    sum_e, _, _ = tables.average_check(table)
    assert sum_e != tables.EXPECTED_CLASS_SUMS["F4-l3"][0]
    # and the per-row product check pins the same row
    bad = next(r for r in table.rows if r.centralizer_label == "A2(q).~A2(q)")
    assert tables.label_product_count(bad.centralizer_label) != bad.e_count


def test_malformed_row_raises(tmp_path):
    dest = _copied_data(tmp_path)
    path = dest / "class_f4_l3.tsv"
    path.write_text(path.read_text() + "dangling\t3\n")
    with pytest.raises(ValueError, match="malformed"):
        tables.class_table("F4-l3", data_dir=dest)


def test_missing_identity_row_rejected(tmp_path):
    dest = _copied_data(tmp_path)
    path = dest / "class_f4_l3.tsv"
    kept = [
        line
        for line in path.read_text().splitlines()
        if not line.startswith("F4(q)\t1")
    ]
    path.write_text("\n".join(kept) + "\n")
    with pytest.raises(ValueError, match="identity row"):
        tables.class_table("F4-l3", data_dir=dest)


def test_e8_isolated_rows_shape():
    rows = tables.e8_isolated_rows()
    assert len(rows) == 15
    census = {}
    for row in rows:
        census[row.defect_coeff] = census.get(row.defect_coeff, 0) + 1
    assert census == {8: 4, 5: 3, 4: 8}
    for row in rows:
        assert row.defect_const == (1 if row.defect_coeff == 8 else 0)
    assert sum(1 for r in rows if r.case_number is None) == 2
    # the two unnumbered rows carry the same centralizer label
    unnumbered = {r.centralizer_label for r in rows if r.case_number is None}
    assert unnumbered == {"2A5(q).2A2(q)A1(q)"}


def test_e8_defect_orders():
    rows = tables.e8_isolated_rows()
    for a in (1, 2):
        for row in rows:
            expected = 5 ** (row.defect_coeff * a + row.defect_const)
            assert tables.e8_defect_order(row, a) == expected
    by_coeff = {r.defect_coeff: r for r in rows}
    assert tables.e8_defect_order(by_coeff[8], 1) == 5**9
    assert tables.e8_defect_order(by_coeff[5], 1) == 5**5
    assert tables.e8_defect_order(by_coeff[4], 1) == 5**4
    with pytest.raises(ValueError):
        tables.e8_defect_order(by_coeff[4], 0)


def test_e8_series_bound():
    rows = tables.e8_isolated_rows()
    assert tables.e8_series_bound_check(1, rows)
    assert tables.e8_series_bound_check(2, rows)
    with pytest.raises(ValueError):
        tables.e8_series_bound_check(0, rows)


def test_root_systems():
    data = {d.label: (d.rank, d.positive_roots) for d in tables.root_systems()}
    assert len(data) == 16
    assert data["B2"] == (2, 4)
    assert data["G2"] == (2, 6)
    assert data["E8"] == (8, 120)
    assert data["F4"] == (4, 24)


def test_fg_margin_edges():
    by_label = {d.label: d for d in tables.root_systems()}
    b2 = by_label["B2"]
    assert not tables.fg_margin(b2, 5)
    assert tables.fg_margin(b2, 6)
    a1 = by_label["A1"]
    for q in (2, 3, 5, 9, 101):
        assert not tables.fg_margin(a1, q)
    g2 = by_label["G2"]
    assert not tables.fg_margin(g2, 2)
    assert tables.fg_margin(g2, 3)
    with pytest.raises(ValueError):
        tables.fg_margin(b2, 1)
    # every stored system with at least five more positive roots than rank
    # clears the margin already at q = 2
    big = [d for d in tables.root_systems() if d.positive_roots - d.rank >= 5]
    assert len(big) == 11
    for datum in big:
        assert tables.fg_margin(datum, 2), datum.label
