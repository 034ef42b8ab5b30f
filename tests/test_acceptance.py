"""Acceptance battery: fifteen numbered criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines; every
criterion is also an ordinary test, so a failure shows up either way.
"""

import time
from contextlib import contextmanager

from blockcensus import blocks, cli, oracle, slots, tables
from blockcensus.counting import (
    gmpn_irr_count,
    multipartition_count,
    p_ell,
)


@contextmanager
def criterion(number, name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[{number:2d}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"[{number:2d}] {name}: PASS ({elapsed:.1f}s)")


TABLE1 = {
    "B2": 6, "C2": 6, "B3": 12, "C3": 12, "B4": 25, "C4": 25,
    "D4": 14, "2D4": 10, "F4": 37, "D5": 20, "2D5": 20, "D6": 42,
    "2D6": 36, "E6": 30, "2E6": 30, "D7": 65, "2D7": 65, "E7": 76,
    "D8": 120, "2D8": 110, "E8": 166,
}


def test_criterion_01_unipotent_count_table():
    with criterion(1, "unipotent character counts"):
        assert len(tables.unipotent_count_entries()) == 15
        for label, expected in TABLE1.items():
            assert tables.unipotent_count(label) == expected, label


def test_criterion_02_f4_ell2_average():
    with criterion(2, "F4 average check at ell=2"):
        table = tables.class_table("F4-l2")
        assert tables.average_check(table) == (138, 256, True)


def test_criterion_03_f4_ell3_average():
    with criterion(3, "F4 average check at ell=3"):
        table = tables.class_table("F4-l3")
        assert tables.average_check(table) == (70, 81, True)


def test_criterion_04_e6_ell3_average():
    with criterion(4, "E6 average check at ell=3"):
        table = tables.class_table("E6-l3")
        assert any(r.multiplicity == 2 for r in table.rows)
        assert tables.average_check(table) == (176, 729, True)


GRID_FAMILIES = (blocks.GL, blocks.SP, blocks.GOEVEN_PLUS)


def _grid():
    for family in GRID_FAMILIES:
        for ell in (3, 5, 7):
            for d in range(1, ell):
                if (ell - 1) % d:
                    continue
                for a in (1, 2):
                    for w in range(9):
                        yield family, ell, d, a, w


def test_criterion_05_two_path_equivalence():
    with criterion(5, "two-path block count equivalence"):
        started = time.perf_counter()
        rows = 0
        for family, ell, d, a, w in _grid():
            query = blocks.BlockQuery(family, blocks.EllProfile(ell, d, a), w=w)
            closed = blocks.block_invariants(query, check_two_path=False).k_B
            proof = slots.block_count_proof_path(
                blocks.WEIGHT_FAMILIES[family], ell, d, a, w
            )
            assert closed == proof, (family, ell, d, a, w, closed, proof)
            rows += 1
        assert rows == 486
        assert time.perf_counter() - started < 60


def test_criterion_06_strong_form_verdicts():
    with criterion(6, "strong-form verdicts across the sweep"):
        spec = blocks.SweepSpec(
            families=GRID_FAMILIES,
            ell_values=(3, 5, 7),
            a_values=(1, 2),
            w_values=tuple(range(9)),
        )
        report = blocks.sweep(spec)
        assert not report.errors
        assert len(report.rows) == 486
        for row in report.rows:
            if row.w >= row.ell:
                assert row.verdict == blocks.HOLDS_STRICT, row
            else:
                assert row.verdict != blocks.VIOLATION, row
                if row.verdict == blocks.HOLDS_EQUALITY_ABELIAN:
                    assert row.abelian is True
                assert row.verdict != blocks.HOLDS_NONSTRICT, row


def test_criterion_07_symplectic_spot_value():
    with criterion(7, "symplectic weight-2 spot value"):
        inv = blocks.block_invariants(
            blocks.BlockQuery(blocks.SP, blocks.EllProfile(3, 1, 1), w=2)
        )
        assert inv.k_B == 9
        assert 3**inv.defect_exponent == 9
        assert inv.abelian_defect
        assert inv.verdict == blocks.HOLDS_EQUALITY_ABELIAN
        # hand expansion of the proof-path sum
        assert 1 * 2 + 2 * 1 + 5 * 1 == 9


def test_criterion_08_special_linear_spot_values():
    with criterion(8, "special linear principal block spot values"):
        small = blocks.k_principal_slrange(
            blocks.BlockQuery(blocks.SLRANGE, blocks.EllProfile(3, 1, 1), n=2, g=1, m=0)
        )
        assert small == 3
        fixture = oracle.a5_fixture_check()
        assert fixture["principal_block_size"] == small == 3
        bigger = blocks.k_principal_slrange(
            blocks.BlockQuery(blocks.SLRANGE, blocks.EllProfile(3, 1, 1), n=3, g=1, m=1)
        )
        assert bigger == 16


def test_criterion_09_oracle_agreement():
    with criterion(9, "brute-force oracle agreement"):
        started = time.perf_counter()
        census = oracle.gl_ell_class_census(2, 4, 3)
        assert len(census.classes) == 6
        orders = sorted(c.centralizer_order for c in census.classes)
        assert orders == [9, 9, 9, 180, 180, 180]
        assert oracle.census_matches_weight_vectors(census)
        assert oracle.gmpn_class_count(2, 2, 2) == 4 == gmpn_irr_count(2, 2, 2)
        for s in range(1, 9):
            for t in range(13):
                assert oracle.multipartition_enumerate(s, t) == multipartition_count(s, t)
        assert time.perf_counter() - started < 60


def test_criterion_10_composition_count_bound():
    with criterion(10, "ell-power composition count bound"):
        for ell in (2, 3, 5):
            for w in range(1, 5001):
                u = 0
                power = ell
                while power <= w:
                    u += 1
                    power *= ell
                assert p_ell(ell, w) <= ell ** (u * (u + 1) // 2), (ell, w)
        for ell in (3, 5, 7):
            assert p_ell(ell, 2 * ell) == 3, ell


def test_criterion_11_colour_convolution():
    with criterion(11, "colour convolution identity"):
        for s in range(1, 7):
            for s2 in range(1, 7):
                for n in range(41):
                    lhs = multipartition_count(s + s2, n)
                    rhs = sum(
                        multipartition_count(s, t) * multipartition_count(s2, n - t)
                        for t in range(n + 1)
                    )
                    assert lhs == rhs, (s, s2, n)


def test_criterion_12_bound_dominance_and_chain():
    with criterion(12, "principal bound dominance and boundary chain"):
        for ell in (3, 5):
            for a in (1, 2):
                for n in range(1, 21):
                    m = min(blocks.valuation(ell, n), a)
                    query = blocks.BlockQuery(
                        blocks.SLRANGE, blocks.EllProfile(ell, 1, a), n=n, g=a, m=m
                    )
                    exact = blocks.k_principal_slrange(query)
                    assert exact <= blocks.bound_thm_slnproof(n, ell, a, m)
                query = blocks.BlockQuery(
                    blocks.SLRANGE, blocks.EllProfile(ell, 1, a), n=ell, g=a, m=1
                )
                exact = blocks.k_principal_slrange(query)
                mid = ell ** (a * (ell - 1)) + ell**2
                assert exact <= mid < ell ** (a * (ell - 1) + 1)


def test_criterion_13_e8_defect_orders():
    with criterion(13, "E8 isolated 5-block defect data"):
        rows = tables.e8_isolated_rows()
        for a in (1, 2):
            for row in rows:
                order = tables.e8_defect_order(row, a)
                if row.defect_coeff == 8:
                    assert order == 5 ** (8 * a + 1)
                elif row.defect_coeff == 5:
                    assert order == 5 ** (5 * a)
                else:
                    assert order == 5 ** (4 * a)
            assert tables.e8_series_bound_check(a, rows)
            assert 5 ** (8 * a) // 5 ** (3 * a) == 5 ** (5 * a)


def test_criterion_14_defining_characteristic_margin():
    with criterion(14, "defining-characteristic margin"):
        big = [
            d for d in tables.root_systems() if d.positive_roots - d.rank >= 5
        ]
        assert big
        for datum in big:
            assert tables.fg_margin(datum, 2), datum.label
        b2 = next(d for d in tables.root_systems() if d.label == "B2")
        for q in (2, 3, 4, 5):
            assert not tables.fg_margin(b2, q)
        for q in (6, 7, 8, 9):
            assert tables.fg_margin(b2, q)


def _census_args(out_path, *extra):
    return [
        "census",
        "--family", ",".join(GRID_FAMILIES),
        "--ell", "3,5,7",
        "--a", "1,2",
        "--w", "0..8",
        "--out", str(out_path),
        *extra,
    ]


def _without_timestamp(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("# timestamp")
    )


def test_criterion_15_determinism(tmp_path):
    with criterion(15, "byte-identical reports modulo timestamp"):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        third = tmp_path / "c.csv"
        assert cli.main(_census_args(first)) == 0
        assert cli.main(_census_args(second)) == 0
        assert cli.main(_census_args(third)) == 0
        a = _without_timestamp(first.read_text())
        b = _without_timestamp(second.read_text())
        c = _without_timestamp(third.read_text())
        assert a == b == c
        assert len([l for l in a.splitlines() if not l.startswith("#")]) == 487
