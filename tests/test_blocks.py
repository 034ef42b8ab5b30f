import json
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockcensus import blocks, slots
from blockcensus.blocks import (
    BlockQuery,
    EllProfile,
    SweepSpec,
    block_invariants,
    bound_thm_slnproof,
    defect_exponent,
    ell_profile,
    ennola_profile,
    is_abelian_defect,
    k_principal_pslell,
    k_principal_slrange,
    spec_hash,
    sweep,
    valuation,
    verdict,
)
from blockcensus.counting import (
    PLAIN,
    CountCache,
    exact_div,
    is_prime,
    k_ell_a_w,
    val_factorial,
)


def test_valuation():
    assert valuation(3, 54) == 3
    assert valuation(5, 7) == 0
    with pytest.raises(ValueError):
        valuation(3, 0)
    # ell = 1 and -1 divide every n, so the loop would never end; ell = 0
    # would divide by zero
    for ell in (1, 0, -1):
        with pytest.raises(ValueError, match="ell >= 2, got"):
            valuation(ell, 12)


PROFILE_VALUES = {
    (4, 3): (1, 1),
    (8, 7): (1, 1),
    (7, 5): (4, 2),
    (2, 3): (2, 1),
    (4, 5): (2, 1),
    (5, 2): (1, 2),
    (3, 2): (2, 3),
}


def test_ell_profile_values():
    for (q, ell), (d, a) in PROFILE_VALUES.items():
        prof = ell_profile(q, ell)
        assert (prof.d, prof.a) == (d, a), (q, ell)
        assert prof.q == q


def test_ell_profile_rejects():
    with pytest.raises(ValueError, match="divides"):
        ell_profile(9, 3)
    with pytest.raises(ValueError):
        ell_profile(1, 3)
    with pytest.raises(ValueError, match="prime"):
        ell_profile(4, 6)


def test_ennola_profile():
    prof = ennola_profile(6, 5)
    assert (prof.d, prof.a) == (2, 1)
    # ennola transfer fixes primes where -q and q generate the same subgroup
    assert (ennola_profile(4, 3).d, ennola_profile(4, 3).a) == (2, 1)
    with pytest.raises(ValueError):
        ennola_profile(6, 2)


def _reference_profile(x, ell, d=None):
    # the order loop and the plain valuation of x**d - 1
    if d is None:
        d, acc = 1, x % ell
        while acc != 1:
            acc = acc * x % ell
            d += 1
    return d, valuation(ell, x**d - 1)


def test_profiles_match_reference():
    for ell in (p for p in range(2, 62) if is_prime(p)):
        for q in (q for q in range(2, 65) if q % ell):
            prof = ell_profile(q, ell)
            d = (1 if q % 4 == 1 else 2) if ell == 2 else None
            assert (prof.d, prof.a) == _reference_profile(q, ell, d), (q, ell)
            if ell > 2:
                prof = ennola_profile(q, ell)
                assert (prof.d, prof.a) == _reference_profile(-q, ell), (q, ell)


def test_profiles_at_a_large_prime():
    # the order of 2 modulo this prime is ell - 1; q**d would have ten
    # billion bits
    ell = 10000000019
    prof = ell_profile(2, ell)
    assert (prof.d, prof.a) == (ell - 1, 1)
    assert ennola_profile(2, ell).d == (ell - 1) // 2


def test_ennola_profile_rejects_unit_q():
    # (-q)**e - 1 is 0 for q = 1 and q = -1, so no valuation exists
    for q in (1, -1):
        with pytest.raises(ValueError):
            ennola_profile(q, 3)


def test_ennola_profile_refuses_q_below_two_like_ell_profile():
    # a negative q is not a field size, even though -q would give a profile
    for q in (-3, -2, 0, 1):
        for derive in (ell_profile, ennola_profile):
            with pytest.raises(ValueError, match="q must be >= 2"):
                derive(q, 5)


def test_profile_validation():
    with pytest.raises(ValueError):
        EllProfile(9, 1, 1)
    with pytest.raises(ValueError, match="divide"):
        EllProfile(5, 3, 1)
    with pytest.raises(ValueError):
        EllProfile(3, 1, 0)
    with pytest.raises(ValueError):
        EllProfile(2, 3, 1)
    assert EllProfile(5, 4, 1).dprime == 2
    assert EllProfile(5, 2, 1).dprime == 1
    assert EllProfile(3, 1, 1).dprime == 1


def test_block_query_validation():
    prof = EllProfile(3, 1, 1)
    with pytest.raises(ValueError, match="unknown family"):
        BlockQuery("GLL", prof, w=1)
    with pytest.raises(ValueError, match="does not fit"):
        BlockQuery(blocks.GL, EllProfile(5, 2, 1), w=4, n=3)
    # GL and GU spend d * w of the rank, the other families d' * w
    with pytest.raises(ValueError, match=r"does not fit into rank 4 \(w \* d = 6\)"):
        BlockQuery(blocks.GL, EllProfile(5, 2, 1), w=3, n=4)
    BlockQuery(blocks.SP, EllProfile(5, 2, 1), w=4, n=4)
    with pytest.raises(ValueError, match="n >= 4"):
        BlockQuery(blocks.SOEVEN_PLUS, prof, w=0, n=2)


def test_block_query_refuses_g_above_a():
    # the closing division of k_principal_slrange is by ell**g, and g <= a
    # is what keeps it exact
    for family in (blocks.SLRANGE, blocks.SURANGE):
        for a in (1, 2):
            with pytest.raises(ValueError, match="g must be <= a"):
                BlockQuery(family, EllProfile(3, 1, a), n=3, g=a + 1, m=1)
            for g in range(a + 1):
                BlockQuery(family, EllProfile(3, 1, a), n=3, g=g, m=1)
    # the refusal is a row error in a sweep, and rows at g <= a keep their counts
    report = sweep(SweepSpec(
        families=(blocks.SLRANGE,), ell_values=(3,), n_values=(1, 3, 9), g_values=(0, 1, 2),
    ))
    assert [(r.n, r.g, r.verdict == blocks.ERROR) for r in report.rows] == [
        (n, g, g == 2) for n in (1, 3, 9) for g in (0, 1, 2)
    ]
    assert report.errors and all(e.endswith(": g must be <= a") for e in report.errors)
    assert blocks.INTERNAL_MISMATCH not in {r.verdict for r in report.rows}
    for row in report.rows:
        if row.g <= 1:
            query = BlockQuery(blocks.SLRANGE, EllProfile(3, 1, 1), n=row.n, g=row.g, m=row.m)
            assert row.k_B == k_principal_slrange(query)


def test_profile_consistency_check():
    # synthetic profiles skip the check, witnessed ones must match
    ok = BlockQuery(blocks.GL, EllProfile(3, 1, 1, q=4), w=2)
    assert block_invariants(ok).k_B == 9
    bad = BlockQuery(blocks.GL, EllProfile(3, 2, 1, q=4), w=2)
    with pytest.raises(ValueError, match="does not match q=4"):
        block_invariants(bad)
    # the unitary family derives its profile through the ennola transfer
    uq = BlockQuery(blocks.GU, EllProfile(5, 2, 1, q=6), w=1)
    assert block_invariants(uq).k_B == 4
    # 3 divides 2 + 1, so q = 2 witnesses d = 2, not the d = 1 asked for;
    # the query is refused with one message, with the two-path check or
    # without, on every call
    query = BlockQuery(blocks.GL, EllProfile(3, 1, 1, q=2), w=1)
    messages = set()
    for check_two_path in (False, True, False):
        with pytest.raises(ValueError, match=r"derived \(d=2, a=1\)") as info:
            block_invariants(query, check_two_path=check_two_path)
        messages.add(str(info.value))
    assert len(messages) == 1


K_BLOCK_VALUES = {
    (blocks.GL, 3, 1, 1, 2): 9,
    (blocks.GL, 3, 1, 1, 3): 24,
    (blocks.GL, 3, 1, 2, 3): 261,
    (blocks.GL, 5, 1, 1, 1): 5,
    (blocks.GL, 5, 1, 1, 5): 510,
    (blocks.GU, 3, 1, 1, 2): 9,
    (blocks.SP, 3, 1, 1, 2): 9,
    (blocks.SP, 3, 1, 1, 0): 1,
    (blocks.SOEVEN_PLUS, 3, 1, 1, 2): 9,
}


def test_k_unipotent_block_values():
    for (family, ell, d, a, w), expected in K_BLOCK_VALUES.items():
        query = BlockQuery(family, EllProfile(ell, d, a), w=w)
        k_b = block_invariants(query, check_two_path=False).k_B
        assert k_b == expected, (family, ell, d, a, w)


def test_k_unipotent_block_matches_split_closed_form():
    for ell in (3, 5, 7):
        for a in (1, 2, 3):
            for w in range(7):
                query = BlockQuery(blocks.GL, EllProfile(ell, 1, a), w=w)
                k_b = block_invariants(query, check_two_path=False).k_B
                assert k_b == k_ell_a_w(ell, a, w)


def test_k_unipotent_block_rejects():
    with pytest.raises(ValueError, match="odd"):
        block_invariants(BlockQuery(blocks.GL, EllProfile(2, 1, 1), w=1), check_two_path=False)
    with pytest.raises(ValueError, match="needs w"):
        block_invariants(BlockQuery(blocks.GL, EllProfile(3, 1, 1)), check_two_path=False)


SL_VALUES = {
    (2, 3, 1, 1, 0): 3,
    (3, 3, 1, 1, 1): 16,
    (3, 3, 2, 2, 1): 37,
    (5, 5, 1, 1, 1): 126,
}


def test_k_principal_slrange_values():
    for (n, ell, a, g, m), expected in SL_VALUES.items():
        query = BlockQuery(blocks.SLRANGE, EllProfile(ell, 1, a), n=n, g=g, m=m)
        assert k_principal_slrange(query) == expected, (n, ell, a, g, m)


def test_k_principal_slrange_g_zero_is_ambient_count():
    for ell, a, n in ((3, 1, 4), (3, 2, 2), (5, 1, 6)):
        query = BlockQuery(blocks.SLRANGE, EllProfile(ell, 1, a), n=n, g=0, m=0)
        assert k_principal_slrange(query) == k_ell_a_w(ell, a, n)


def test_k_principal_pslell_values():
    assert k_principal_pslell(3, 1) == 6
    assert k_principal_pslell(3, 2) == 13
    assert k_principal_pslell(5, 1) == 26


def test_defect_exponents():
    assert defect_exponent(blocks.GL, 3, 1, w=4) == 4 + val_factorial(3, 4)
    assert defect_exponent(blocks.SP, 3, 2, w=3) == 7
    assert defect_exponent(blocks.SLRANGE, 3, 1, n=3, g=1) == 3
    assert defect_exponent(blocks.SURANGE, 5, 1, n=5, g=1) == 5
    assert defect_exponent(blocks.PSLELL, 3, 1) == 2
    assert defect_exponent(blocks.PSLELL, 3, 2) == 4
    assert defect_exponent(blocks.PSLELL, 5, 1) == 4
    with pytest.raises(ValueError):
        defect_exponent(blocks.GL, 3, 1)
    with pytest.raises(ValueError):
        defect_exponent(blocks.SLRANGE, 3, 1)


def test_abelian_defect():
    assert is_abelian_defect(2, 3)
    assert not is_abelian_defect(3, 3)
    assert is_abelian_defect(0, 3)


def test_verdict_decision_table():
    E, U = blocks.EXACT, blocks.UPPER_BOUND
    assert verdict(4, E, 1, True, 5) == blocks.HOLDS_STRICT
    assert verdict(5, E, 1, True, 5) == blocks.HOLDS_EQUALITY_ABELIAN
    assert verdict(6, E, 1, True, 5) == blocks.VIOLATION
    assert verdict(9, E, 2, False, 3) == blocks.HOLDS_NONSTRICT
    assert verdict(10, E, 2, False, 3) == blocks.VIOLATION
    # upper bounds above the threshold prove nothing
    assert verdict(9, U, 2, False, 3) == blocks.INCONCLUSIVE_UPPER_BOUND
    assert verdict(8, U, 2, False, 3) == blocks.HOLDS_STRICT
    # an upper bound that still lands on an abelian order validates equality
    assert verdict(9, U, 2, True, 3) == blocks.HOLDS_EQUALITY_ABELIAN
    with pytest.raises(ValueError):
        verdict(1, "sharp", 1, True, 3)


def test_block_invariants_weight_family():
    inv = block_invariants(BlockQuery(blocks.SP, EllProfile(3, 1, 1), w=2))
    assert inv.k_B == 9
    assert inv.defect_exponent == 2
    assert inv.abelian_defect
    assert inv.verdict == blocks.HOLDS_EQUALITY_ABELIAN
    assert inv.two_path_checked
    no_check = block_invariants(
        BlockQuery(blocks.SP, EllProfile(3, 1, 1), w=2), check_two_path=False
    )
    assert no_check.k_B == 9 and not no_check.two_path_checked


def test_block_invariants_principal_families():
    sl = block_invariants(
        BlockQuery(blocks.SLRANGE, EllProfile(3, 1, 1), n=2, g=1, m=0)
    )
    # same shape as the alternating-group fixture: three characters in a
    # block with a cyclic defect group of order three
    assert sl.k_B == 3 and sl.defect_exponent == 1 and sl.abelian_defect
    assert sl.verdict == blocks.HOLDS_EQUALITY_ABELIAN
    assert not sl.two_path_checked
    psl1 = block_invariants(BlockQuery(blocks.PSLELL, EllProfile(3, 1, 1), n=3))
    assert psl1.k_B == 6 and psl1.abelian_defect
    psl2 = block_invariants(BlockQuery(blocks.PSLELL, EllProfile(3, 1, 2), n=3))
    assert psl2.k_B == 13 and not psl2.abelian_defect
    psl3 = block_invariants(BlockQuery(blocks.PSLELL, EllProfile(5, 1, 1), n=5))
    assert psl3.k_B == 26 and not psl3.abelian_defect
    for inv in (psl1, psl2, psl3):
        assert inv.verdict == blocks.HOLDS_STRICT


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(sorted(blocks.WEIGHT_FAMILIES)),
    ell=st.sampled_from([3, 5]),
    a=st.integers(1, 2),
    w=st.integers(0, 6),
)
def test_strong_form_never_violated_on_grid(family, ell, a, w):
    inv = block_invariants(BlockQuery(family, EllProfile(ell, 1, a), w=w))
    assert inv.verdict != blocks.VIOLATION
    if w >= ell:
        assert inv.verdict == blocks.HOLDS_STRICT
    if inv.verdict == blocks.HOLDS_EQUALITY_ABELIAN:
        assert inv.abelian_defect and inv.k_B == ell**inv.defect_exponent


def test_bound_dominates_exact_count():
    assert bound_thm_slnproof(3, 3, 1, 1) == 27
    for ell in (3, 5):
        for a in (1, 2):
            for n in range(1, 21):
                m = min(valuation(ell, n), a) if n % ell == 0 else 0
                query = BlockQuery(
                    blocks.SLRANGE, EllProfile(ell, 1, a), n=n, g=a, m=m
                )
                exact = k_principal_slrange(query)
                assert exact <= bound_thm_slnproof(n, ell, a, m), (ell, a, n)


def test_boundary_case_chain():
    # at rank n = ell the count stays below ell**(a(ell-1)) + ell**2,
    # which is itself below the next power of ell
    for ell, a, expected in ((3, 1, 16), (3, 2, 37), (5, 1, 126)):
        query = BlockQuery(blocks.SLRANGE, EllProfile(ell, 1, a), n=ell, g=a, m=1)
        exact = k_principal_slrange(query)
        assert exact == expected
        mid = ell ** (a * (ell - 1)) + ell**2
        assert exact <= mid < ell ** (a * (ell - 1) + 1)


def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="empty"):
        SweepSpec(families=(), ell_values=(3,)).validate()
    with pytest.raises(ValueError, match="unknown families"):
        SweepSpec(families=("GLL",), ell_values=(3,), w_values=(1,)).validate()
    with pytest.raises(ValueError, match="odd primes"):
        SweepSpec(families=(blocks.GL,), ell_values=(2,), w_values=(1,)).validate()
    with pytest.raises(ValueError, match="prime"):
        SweepSpec(families=(blocks.GL,), ell_values=(9,), w_values=(1,)).validate()
    with pytest.raises(ValueError, match="need w"):
        SweepSpec(families=(blocks.GL,), ell_values=(3,)).validate()
    with pytest.raises(ValueError, match="need n"):
        SweepSpec(families=(blocks.SLRANGE,), ell_values=(3,)).validate()
    SweepSpec(families=(blocks.GL,), ell_values=(3,), w_values=(1,)).validate()


def _small_spec(**overrides):
    base = dict(
        families=(blocks.GL,),
        ell_values=(3,),
        a_values=(1,),
        w_values=(0, 1, 2),
    )
    base.update(overrides)
    return SweepSpec(**base)


def test_sweep_row_layout():
    report = sweep(_small_spec())
    # d expands to the divisors of ell - 1 = 2
    assert len(report.rows) == 6
    assert [r.d for r in report.rows] == [1, 1, 1, 2, 2, 2]
    assert [r.w for r in report.rows] == [0, 1, 2, 0, 1, 2]
    assert all(r.verdict != "ERROR" for r in report.rows)
    assert not report.errors
    assert blocks.VIOLATION not in {r.verdict for r in report.rows}
    assert report.metadata["tool"] == "blockcensus"
    assert "timestamp" not in report.metadata


def test_sweep_error_rows_are_isolated():
    # ell divides q: the profile for that row cannot be derived
    report = sweep(_small_spec(q_values=(3,)))
    assert all(r.verdict == "ERROR" for r in report.rows)
    assert len(report.errors) == len(report.rows)
    assert blocks.VIOLATION not in {r.verdict for r in report.rows}
    good = sweep(_small_spec(q_values=(4,)))
    # w < ell everywhere here, so every valid row sits at the abelian bound
    assert [r.verdict for r in good.rows if r.d == 1] == [
        blocks.HOLDS_EQUALITY_ABELIAN
    ] * 3
    # d = 2 rows disagree with the witnessed profile and become errors
    assert all(r.verdict == "ERROR" for r in good.rows if r.d == 2)


def test_sweep_overflow_is_an_error_row_and_inexact_division_a_mismatch(monkeypatch):
    # a weight too large to index a table is refused up front, and an
    # OverflowError raised inside a count is a parameter error too; every
    # other ArithmeticError is a fault in the program
    spec = SweepSpec(
        families=(blocks.GL,), ell_values=(3,), d_values=(1,), a_values=(1,),
        w_values=(1, 10**20),
    )
    report = sweep(spec, CountCache())
    assert [r.verdict for r in report.rows] == [
        blocks.HOLDS_EQUALITY_ABELIAN,
        blocks.ERROR,
    ]
    assert blocks.INTERNAL_MISMATCH not in {r.verdict for r in report.rows}

    def inexact(*args):
        return exact_div(13, 4)

    monkeypatch.setattr(slots, "block_count_proof_path", inexact)
    report = sweep(spec, CountCache())
    assert [r.verdict for r in report.rows] == [
        blocks.INTERNAL_MISMATCH,
        blocks.ERROR,
    ]
    assert "division is not exact" in report.errors[0]
    assert "w = 100000000000000000000 is too large to index a table" in report.errors[1]

    def overflow(*args):
        raise OverflowError("cannot fit 'int' into an index-sized integer")

    monkeypatch.setattr(slots, "block_count_proof_path", overflow)
    report = sweep(spec, CountCache())
    assert [r.verdict for r in report.rows] == [blocks.ERROR, blocks.ERROR]
    assert blocks.INTERNAL_MISMATCH not in {r.verdict for r in report.rows}


def test_sweep_report_does_not_depend_on_cache_state():
    # the cache tables are prefix-stable, so a cache already grown past the
    # sweep's weights gives the same report as a fresh one, and so do two
    # sweeps in a row, for synthetic profiles and for q witnesses that pass
    # and fail
    for q_values in ((), (2, 4, 7)):
        spec = SweepSpec(
            families=(blocks.GL, blocks.SP, blocks.PSLELL),
            ell_values=(3, 5),
            a_values=(1, 2),
            w_values=(0, 1, 2, 3),
            q_values=q_values,
        )
        grown = CountCache()
        sweep(
            SweepSpec(
                families=spec.families, ell_values=(3, 5), a_values=(1, 2), w_values=(40,)
            ),
            grown,
        )
        fresh = sweep(spec, CountCache())
        reused = sweep(spec, grown)
        assert fresh.to_csv() == reused.to_csv()
        assert fresh.to_json() == reused.to_json()
        cold = sweep(spec, CountCache())
        warm = sweep(spec, CountCache())
        assert cold.to_csv() == warm.to_csv() == fresh.to_csv()
        assert cold.errors == warm.errors == fresh.errors


def test_sweep_checks_each_passing_group_once(monkeypatch):
    # the group check of a (family, profile) runs once per run and q,
    # passing or failing: a failure is kept for every row of the q that
    # reaches it. A q whose rows are all refused for w < 0 is never checked
    real = blocks._check_profile_consistency
    calls = []

    def counted(family, profile):
        calls.append((family, profile))
        real(family, profile)

    monkeypatch.setattr(blocks, "_check_profile_consistency", counted)
    spec = SweepSpec(
        families=(blocks.GL, blocks.GU),
        ell_values=(5,),
        d_values=(1, 2, 4),
        a_values=(1, 2),
        w_values=(-1, 0, 2, 2),
        q_values=(2, 4, 11),
    )
    report = sweep(spec, CountCache())
    keys = {
        (param["family"], EllProfile(param["ell"], param["d"], param["a"], param["q"]))
        for param in spec.row_params()
    }
    assert Counter(calls) == Counter(keys)
    passing = []
    for key in keys:
        try:
            real(*key)
        except ValueError:
            continue
        passing.append(key)
    assert 0 < len(passing) < len(keys)
    assert sum(row.verdict == blocks.ERROR for row in report.rows) == (
        len(spec.row_params()) - 3 * len(passing)
    )
    calls.clear()
    refused = sweep(SweepSpec(**{**spec._asdict(), "w_values": (-1, -2)}), CountCache())
    assert calls == []
    assert {row.verdict for row in refused.rows} == {blocks.ERROR}
    assert all(e.endswith(": w must be >= 0") for e in refused.errors)


def test_sweep_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    spec = SweepSpec(families=(blocks.GL, blocks.SP), ell_values=(3, 5), w_values=(0, 1, 2))
    assert sweep(spec).to_csv() == sweep(spec).to_csv()


def test_sweep_tests_primality_once_per_prime():
    is_prime.cache_clear()
    sweep(SweepSpec(families=(blocks.GL, blocks.SP), ell_values=(101,), w_values=(0, 1, 2)))
    assert is_prime.cache_info().misses == 1


def test_divisors():
    for n in range(1, 501):
        assert blocks._divisors(n) == tuple(d for d in range(1, n + 1) if n % d == 0)
    assert len(blocks._divisors(10000000018)) == 16


def test_block_invariants_at_a_large_prime():
    # ell - 1 slots at unit weight: the slot path raises the partition
    # series to that power by squaring, not by one fold per slot
    ell = 10000000019
    query = BlockQuery(blocks.GL, EllProfile(ell, 1, 1), w=2)
    inv = block_invariants(query, CountCache())
    assert inv.two_path_checked
    # the ell-multipartitions of 2
    assert inv.k_B == ell * (ell + 3) // 2


def test_report_formats():
    report = sweep(_small_spec(), timestamp="2026-01-01T00:00:00+00:00")
    csv_text = report.to_csv()
    lines = csv_text.splitlines()
    assert lines[0] == "# tool: blockcensus"
    assert any(line.startswith("# timestamp: 2026-01-01") for line in lines)
    header = next(l for l in lines if not l.startswith("#"))
    assert header.split(",") == list(blocks.REPORT_COLUMNS)
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 6
    assert data[2].split(",")[blocks.REPORT_COLUMNS.index("k_B")] == "9"

    payload = json.loads(report.to_json())
    assert payload["metadata"]["tool"] == "blockcensus"
    assert len(payload["rows"]) == 6
    csv_cells = [row.split(",") for row in data]
    json_cells = [
        [row[col] for col in blocks.REPORT_COLUMNS] for row in payload["rows"]
    ]
    assert csv_cells == json_cells

    md = report.to_markdown()
    assert "| " + " | ".join(blocks.REPORT_COLUMNS) + " |" in md
    with pytest.raises(ValueError):
        report.render("yaml")
    assert report.render("csv") == csv_text


def _cell_dicts(report):
    # each row's cells keyed by their column names
    return [dict(zip(blocks.REPORT_COLUMNS, cells)) for cells in report.cells]


def test_boolean_cells_render_lowercase():
    report = sweep(_small_spec())
    strings = _cell_dicts(report)
    assert strings[0]["abelian"] == "true"
    assert strings[0]["two_path_checked"] == "true"
    assert strings[0]["n"] == ""


def test_spec_hash_stability():
    a = spec_hash(_small_spec())
    b = spec_hash(_small_spec())
    c = spec_hash(_small_spec(w_values=(0, 1, 2, 3)))
    assert a == b
    assert a != c
    assert len(a) == 16 and all(ch in "0123456789abcdef" for ch in a)


def test_sweep_psl_rows_fix_g_and_m():
    spec = SweepSpec(families=(blocks.PSLELL,), ell_values=(3,), a_values=(1, 2))
    report = sweep(spec)
    assert [(r.g, r.m, r.k_B) for r in report.rows] == [
        (1, 1, 6),
        (2, 1, 13),
    ]


def test_sweep_psl_rows_check_the_witnessed_profile():
    # 5 divides 4 + 1, so q = 4 witnesses d = 2 and contradicts the d = 1
    # that PSLell rows are keyed at, for PSLell as for SLrange; q = 11
    # witnesses d = 1, a = 1 and both rows evaluate
    spec = SweepSpec(
        families=(blocks.PSLELL, blocks.SLRANGE),
        ell_values=(5,),
        n_values=(5,),
        q_values=(4, 11),
    )
    report = sweep(spec)
    verdicts = [(r.family, r.verdict) for r in report.rows]
    assert verdicts[0] == (blocks.PSLELL, "ERROR")
    assert verdicts[1][0] == blocks.PSLELL and verdicts[1][1] != "ERROR"
    assert verdicts[2] == (blocks.SLRANGE, "ERROR")
    assert verdicts[3][0] == blocks.SLRANGE and verdicts[3][1] != "ERROR"
    assert len(report.errors) == 2
    assert all("derived (d=2, a=1)" in message for message in report.errors)


def _reference_row(param, cache, check_two_path=True):
    # one BlockQuery and one block_invariants call per row, the route the
    # sweep took before its rows shared the per-group step
    family = param["family"]
    row = {col: None for col in blocks.REPORT_COLUMNS}
    row.update(
        family=family,
        ell=param.get("ell"),
        d=param.get("d"),
        a=param.get("a"),
        w=param.get("w"),
        n=param.get("n"),
        g=param.get("g"),
    )
    try:
        profile = EllProfile(param["ell"], param["d"], param["a"], param.get("q"))
        if family in blocks.WEIGHT_FAMILIES:
            query = BlockQuery(family, profile, w=param["w"], n=param.get("n"))
        elif family in (blocks.SLRANGE, blocks.SURANGE):
            n = param["n"]
            m = min(valuation(profile.ell, n), profile.a) if n >= 1 else 0
            query = BlockQuery(family, profile, n=n, g=param["g"], m=m)
            row.update(m=m)
        else:
            query = BlockQuery(family, profile, n=param["n"], g=profile.a, m=1)
            row.update(g=profile.a, m=1)
        inv = block_invariants(query, cache, check_two_path)
    except ArithmeticError as exc:
        row.update(verdict=blocks.INTERNAL_MISMATCH)
        return blocks.Row(**row), f"{family} row {param}: internal mismatch: {exc}"
    except Exception as exc:
        row.update(verdict=blocks.ERROR)
        return blocks.Row(**row), f"{family} row {param}: {exc}"
    row.update(
        k_B=inv.k_B,
        exactness=inv.exactness,
        defect_exponent=inv.defect_exponent,
        abelian=inv.abelian_defect,
        verdict=inv.verdict,
        two_path_checked=inv.two_path_checked,
    )
    return blocks.Row(**row), None


# Every family over q witnesses that pass and fail the consistency check
# (and q = 3, 7 divisible by ell), d not dividing ell - 1, a = 0, the
# non-prime ell = 9, w = -1 in groups whose q is bad, a repeated w, and
# ranks n = -3 and 0; then synthetic profiles at every divisor d.
_MIXED_SPECS = (
    SweepSpec(
        families=blocks.FAMILIES,
        ell_values=(3, 5, 7, 9),
        d_values=(1, 2, 3, 4),
        a_values=(0, 1, 2),
        w_values=(-1, 0, 2, 2, 5),
        n_values=(-3, 0, 1, 3),
        g_values=(0, 1, 2),
        q_values=(2, 3, 4, 7, 11),
    ),
    SweepSpec(
        families=blocks.FAMILIES,
        ell_values=(3, 5, 7),
        a_values=(1, 2),
        w_values=(0, 1, 1, 4),
        n_values=(1, 3),
    ),
)


# the verdicts each of _MIXED_SPECS must reach
_WITNESSED = {blocks.ERROR, blocks.HOLDS_STRICT, blocks.HOLDS_EQUALITY_ABELIAN}
_SYNTHETIC = {blocks.HOLDS_STRICT, blocks.HOLDS_EQUALITY_ABELIAN}


def _reference_sweep(spec, cache, check_two_path=True):
    results = [_reference_row(param, cache, check_two_path) for param in spec.row_params()]
    return [row for row, _ in results], tuple(message for _, message in results if message)


def _row_items(rows):
    return [list(row._asdict().items()) for row in rows]


@pytest.mark.parametrize(
    "spec, verdicts, check_two_path",
    [
        pytest.param(_MIXED_SPECS[0], _WITNESSED, True, id="witnessed"),
        pytest.param(_MIXED_SPECS[0], _WITNESSED, False, id="witnessed-no-two-path"),
        pytest.param(_MIXED_SPECS[1], _SYNTHETIC, True, id="synthetic"),
        pytest.param(_MIXED_SPECS[1], _SYNTHETIC, False, id="synthetic-no-two-path"),
    ],
)
def test_sweep_matches_a_per_row_reference(spec, verdicts, check_two_path):
    cache = CountCache()
    report = sweep(spec, cache, check_two_path)
    rows, errors = _reference_sweep(spec, cache, check_two_path)
    assert _row_items(report.rows) == _row_items(rows)
    assert report.errors == errors
    assert verdicts <= {row.verdict for row in rows}


def test_sweep_mismatch_in_one_ell_fails_only_its_rows(monkeypatch):
    spec = _MIXED_SPECS[1]
    honest = sweep(spec, CountCache())
    real = slots.block_count_proof_path

    def off_by_one_at_five(family, ell, *args, **kwargs):
        return real(family, ell, *args, **kwargs) + (ell == 5)

    monkeypatch.setattr(slots, "block_count_proof_path", off_by_one_at_five)
    cache = CountCache()
    report = sweep(spec, cache)
    rows, errors = _reference_sweep(spec, cache)
    assert _row_items(report.rows) == _row_items(rows)
    assert report.errors == errors
    hit = [
        row.family in blocks.WEIGHT_FAMILIES and row.ell == 5
        for row in honest.rows
    ]
    assert any(hit)
    for was, now, in_hit in zip(honest.rows, report.rows, hit):
        if in_hit:
            assert now.verdict == blocks.INTERNAL_MISMATCH
            assert now.k_B is None
        else:
            assert now == was
    assert len(report.errors) == sum(hit)
    assert all("two-path mismatch" in message for message in report.errors)


# Runs evaluate largest w first; the rows, their order and the error
# messages must not show it. q = 3 divides ell = 3, and q = 2, 7 give
# profiles that several (d, a) rows contradict, so error rows sit between
# valid ones at several w of one run; w = -1 is refused per row.
@pytest.mark.parametrize(
    "w_values, check_two_path",
    [
        (w_values, check_two_path)
        for check_two_path in (True, False)
        for w_values in (
            (0, 1, 40, 130, 200),
            (200, 130, 40, 1, 0),
            (40, -1, 200, 0, 130, 1),
            (130, 40, 130, -1, 0, 40, -1),
        )
    ],
    ids=[
        f"{order}{suffix}"
        for suffix in ("", "-no-two-path")
        for order in ("ascending", "descending", "unsorted", "repeated")
    ],
)
def test_sweep_order_matches_a_per_row_reference(w_values, check_two_path):
    spec = SweepSpec(
        families=(blocks.GL, blocks.GU, blocks.SP, blocks.SOEVEN_PLUS, blocks.SLRANGE),
        ell_values=(3, 5),
        d_values=(1, 2),
        a_values=(1, 2),
        w_values=w_values,
        n_values=(3,),
        q_values=(2, 3, 4, 7),
    )
    report = sweep(spec, CountCache(), check_two_path)
    rows, errors = _reference_sweep(spec, CountCache(), check_two_path)
    assert _row_items(report.rows) == _row_items(rows)
    assert report.errors == errors
    verdicts = {row.verdict for row in rows}
    assert {blocks.ERROR, blocks.HOLDS_STRICT, blocks.HOLDS_EQUALITY_ABELIAN} <= verdicts
    assert blocks.INTERNAL_MISMATCH not in verdicts


def test_census_deep_grid_builds_each_table_once(monkeypatch):
    # the grid of the census-deep benchmark: evaluated largest w first,
    # every slot series is built once, at 700, and every closed-form series
    # grows once, where an ascending sweep builds each twice
    builds = []
    powers = []
    grown = {}
    real_slot_series = CountCache._slot_series
    real_power_series = CountCache._power_series
    real_euler_row = CountCache._euler_row

    def counted_slot_series(self, key, n, build):
        def counted_build(top):
            builds.append((key, top))
            return build(top)

        return real_slot_series(self, key, n, counted_build)

    def counted_power_series(self, c, n, build):
        def counted_build(top):
            powers.append((c, top))
            return build(top)

        return real_power_series(self, c, n, counted_build)

    def counted_euler_row(self, ell, s, n):
        before = len(self._series.get((ell, s), ()))
        row = real_euler_row(self, ell, s, n)
        if len(row) != before:
            grown.setdefault((ell, s), []).append(len(row))
        return row

    monkeypatch.setattr(CountCache, "_slot_series", counted_slot_series)
    monkeypatch.setattr(CountCache, "_power_series", counted_power_series)
    monkeypatch.setattr(CountCache, "_euler_row", counted_euler_row)
    spec = SweepSpec(
        families=(blocks.GL, blocks.SP),
        ell_values=(3,),
        d_values=(1,),
        a_values=(1,),
        w_values=(0, 400, 500, 600, 700),
    )
    report = sweep(spec, CountCache())
    assert all(row.two_path_checked for row in report.rows)
    # GL has slot denominator 1, Sp 2: one slot series each
    assert sorted(builds) == [((3, 1, 1), 700), ((3, 1, 2), 700)]
    # both slot series hold P(x)**3 to 700, built once and read twice; the
    # deep factors take P(x)**2 (GL) and P(x) (Sp) to 700 // 3
    assert sorted(powers) == [(1, 233), (2, 233), (3, 700)]
    # the row k(3, .) of head colours 3, shared by GL and Sp, read to 700;
    # the tail series of tail colours 2 (GL) and 1 (Sp), read to 700 // 3
    assert grown == {(PLAIN, 3): [701], (3, 2): [234], (3, 1): [234]}


def _count_block_evaluations(monkeypatch):
    # counts the calls of both count paths and of the verdict, which
    # computes |D|, through the module names the sweep calls them by
    calls = Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(blocks, "composition_sum", counted("closed", blocks.composition_sum))
    monkeypatch.setattr(
        slots, "block_count_proof_path", counted("slots", slots.block_count_proof_path)
    )
    monkeypatch.setattr(blocks, "verdict", counted("verdict", blocks.verdict))
    return calls


# the grid of the census-wide benchmark
_CENSUS_WIDE = SweepSpec(
    families=(
        blocks.GL, blocks.GU, blocks.SP, blocks.SOODD, blocks.SOEVEN_PLUS,
        blocks.SOEVEN_MINUS, blocks.GOEVEN_PLUS, blocks.GOEVEN_MINUS,
    ),
    ell_values=(3, 5, 7, 11, 13),
    a_values=(1, 2),
    w_values=tuple(range(25)),
)


def test_census_wide_grid_evaluates_each_distinct_block_once(monkeypatch):
    # the census-wide grid's 7,600 rows hold 950 distinct blocks (ell, a,
    # slot denominator, w), since GL and GU share a block at equal d, and
    # Sp, SOodd and the even orthogonal families at equal 2d' (GL at d = 2
    # too). Each block is evaluated once per exactness: SOevenPlus/Minus
    # give upper bounds, on 550 blocks of their own
    calls = _count_block_evaluations(monkeypatch)
    report = sweep(_CENSUS_WIDE, CountCache())
    distinct = {
        (
            row.ell,
            row.a,
            slots.slot_denominator(blocks.WEIGHT_FAMILIES[row.family], row.d),
            row.w,
        )
        for row in report.rows
    }
    assert len(report.rows) == 7600 and len(distinct) == 950
    assert all(row.two_path_checked for row in report.rows)
    assert calls == {"closed": 1500, "slots": 1500, "verdict": 1500}
    # the block table belongs to one call: a second sweep evaluates again
    again = sweep(_CENSUS_WIDE, CountCache())
    assert calls == {"closed": 3000, "slots": 3000, "verdict": 3000}
    assert again.to_csv() == report.to_csv()


def test_sparse_large_weights_evaluate_only_the_asked_weights(monkeypatch):
    # GL (slot denominator 1) and Sp (2) at w = 0 and 2800 are four blocks;
    # nothing is evaluated at the weights in between, |D| included
    calls = _count_block_evaluations(monkeypatch)
    spec = SweepSpec(
        families=(blocks.GL, blocks.SP),
        ell_values=(3,),
        d_values=(1,),
        a_values=(1,),
        w_values=(0, 2800),
    )
    report = sweep(spec, CountCache())
    assert calls == {"closed": 4, "slots": 4, "verdict": 4}
    assert [row.defect_exponent for row in report.rows] == [
        0, 2800 + val_factorial(3, 2800)
    ] * 2
    assert all(row.verdict == blocks.HOLDS_STRICT for row in report.rows[1::2])


def test_families_sharing_a_block_keep_their_own_q_checks():
    # GL and GU share the block at equal d, but q = 11 witnesses d = 1 for
    # GL (5 divides 11 - 1) and d = 2 for GU (5 divides 11 + 1): at d = 1
    # the GU rows are errors after valid GL rows, at d = 2 the valid GU rows
    # come after GL error rows
    spec = SweepSpec(
        families=(blocks.GL, blocks.GU),
        ell_values=(5,),
        d_values=(1, 2),
        a_values=(1,),
        w_values=(0, 3, 7),
        q_values=(11,),
    )
    cache = CountCache()
    report = sweep(spec, cache)
    rows, errors = _reference_sweep(spec, cache)
    assert _row_items(report.rows) == _row_items(rows)
    assert report.errors == errors
    refused = [(row.family, row.d, row.verdict == blocks.ERROR) for row in report.rows]
    assert refused == (
        [(blocks.GL, 1, False)] * 3
        + [(blocks.GL, 2, True)] * 3
        + [(blocks.GU, 1, True)] * 3
        + [(blocks.GU, 2, False)] * 3
    )
    assert len(report.errors) == 6
    assert all("derived (d=" in message for message in report.errors)


def _reference_cell_text(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _reference_renderings(report):
    # the renderers as they were when every format went through one string
    # dict per row
    cols = blocks.REPORT_COLUMNS
    strings = [{col: _reference_cell_text(row.get(col)) for col in cols} for row in report.rows]
    csv_lines = [f"# {key}: {report.metadata[key]}" for key in report.metadata]
    csv_lines.append(",".join(cols))
    for row in strings:
        csv_lines.append(",".join(row[col] for col in cols))
    md_lines = [f"- {key}: {report.metadata[key]}" for key in report.metadata]
    md_lines.append("")
    md_lines.append("| " + " | ".join(cols) + " |")
    md_lines.append("|" + "|".join(" --- " for _ in cols) + "|")
    for row in strings:
        md_lines.append("| " + " | ".join(row[col] for col in cols) + " |")
    payload = {"metadata": dict(report.metadata), "rows": strings}
    return {
        "strings": strings,
        "csv": "\n".join(csv_lines) + "\n",
        "md": "\n".join(md_lines) + "\n",
        "json": json.dumps(payload, indent=2) + "\n",
    }


def test_renderers_match_the_row_string_reference():
    big = 10**99 + 7
    rows = [
        blocks.Row(),
        blocks.Row(family="GL", verdict=blocks.ERROR),
        blocks.Row(
            family="GL", n=None, ell=3, d=1, a=1, w=0, g=None,
            m=None, k_B=1, exactness=blocks.EXACT, defect_exponent=0,
            abelian=True, verdict=blocks.HOLDS_EQUALITY_ABELIAN,
            two_path_checked=False,
        ),
        blocks.Row(
            family="SLrange", n=1, ell=5, d=1, a=0, w=None, g=0,
            m=0, k_B=big, exactness=blocks.UPPER_BOUND, defect_exponent=1,
            abelian=False, verdict=blocks.INTERNAL_MISMATCH,
            two_path_checked=True,
        ),
        # a row missing columns, and one with them given in another order
        blocks.Row(verdict=blocks.ERROR, k_B=0),
        blocks.Row(**{col: 1 for col in reversed(blocks.REPORT_COLUMNS)}),
    ]
    report = blocks.CensusReport(
        rows=rows,
        metadata={"tool": "blockcensus", "version": "0", "spec_hash": "ab"},
        errors=["GL row {}: w must be >= 0"],
    )
    expected = _reference_renderings(report)
    assert _cell_dicts(report) == expected["strings"]
    assert report.to_csv() == report.render("csv") == expected["csv"]
    assert report.to_markdown() == report.render("md") == expected["md"]
    assert report.to_json() == report.render("json") == expected["json"]
    assert str(big) in report.to_csv()
    assert report.to_csv().splitlines()[-1] == ",".join(["1"] * len(blocks.REPORT_COLUMNS))


def _indented_dumps(report):
    # to_json as it was: one indented json.dumps of the whole payload
    payload = {"metadata": dict(report.metadata), "rows": _cell_dicts(report)}
    return json.dumps(payload, indent=2) + "\n"


def _awkward_report():
    # metadata and cells with quotes, backslashes, control characters and
    # non-ASCII text, and metadata values of every JSON type
    cells = (
        ('GL "quoted"', "back\\slash", "tab\tand\nnewline", "caf\u00e9", "\u2203k(B)",
         "\U0001d53d_q", "%s %d %%", "", "\x00\x1f\x7f", "</script>", "1", "true", "ERROR", "false"),
        ("",) * len(blocks.REPORT_COLUMNS),
    )
    metadata = {
        "tool": 'block"census"',
        "note": "Brauer\u2019s k(B) \u2264 |D| \u2014 d\u00e9j\u00e0 vu\n",
        "count": 7,
        "ratio": 0.5,
        "flag": True,
        "missing": None,
        "nested": {"list": [1, "z\u00fc", {"empty": []}], "empty": {}},
    }
    return blocks.CensusReport(rows=(blocks.Row(),) * 2, metadata=metadata, cells=cells)


@pytest.mark.parametrize(
    "make_report",
    [
        pytest.param(lambda: blocks.CensusReport(rows=(), metadata={}), id="empty"),
        pytest.param(
            lambda: blocks.CensusReport(rows=(), metadata={"tool": "blockcensus"}),
            id="no-rows",
        ),
        pytest.param(
            lambda: sweep(_CENSUS_WIDE, CountCache(), timestamp="2026-01-01T00:00:00Z"),
            id="census-wide",
        ),
        pytest.param(_awkward_report, id="quotes-and-non-ascii"),
    ],
)
def test_to_json_is_the_indented_dumps(make_report):
    report = make_report()
    text = report.to_json()
    assert text == _indented_dumps(report)
    assert json.loads(text)["rows"] == _cell_dicts(report)


def test_report_rows_are_immutable_records():
    report = sweep(_small_spec())
    assert blocks.REPORT_COLUMNS == blocks.Row._fields
    assert all(type(part) is tuple for part in (report.rows, report.cells, report.errors))
    row = report.rows[0]
    assert type(row) is blocks.Row
    # the dict-style read: a column's value, or the default for any other name
    assert row.get("verdict") == row.verdict == blocks.HOLDS_EQUALITY_ABELIAN
    assert row.get("two_path_checked") is True
    assert row.get("n") is None and row.get("n", "unset") is None
    assert row.get("q") is None and row.get("count", 0) == 0
    with pytest.raises(AttributeError):
        report.rows = ()
    with pytest.raises(ValueError, match="a report of 6 rows has 5 cell rows"):
        blocks.CensusReport(rows=report.rows, metadata={}, cells=report.cells[:-1])


def test_hand_built_report_renders_ints_as_ints():
    # 1 == True and 0 == False, but a cell tests a bool by identity
    row = blocks.Row(
        family="GL", ell=3, d=1, a=1, w=0, k_B=1, abelian=1,
        verdict=blocks.HOLDS_EQUALITY_ABELIAN, two_path_checked=0,
    )
    report = blocks.CensusReport(rows=[row], metadata={"tool": "blockcensus"})
    cells = ("GL", "", "3", "1", "1", "0", "", "", "1", "", "", "1", blocks.HOLDS_EQUALITY_ABELIAN, "0")
    assert report.cells == (cells,)
    assert report.to_csv().splitlines()[-1] == ",".join(cells)
    assert report.to_markdown().splitlines()[-1] == "| " + " | ".join(cells) + " |"
    assert json.loads(report.to_json())["rows"] == [dict(zip(blocks.REPORT_COLUMNS, cells))]
    booled = blocks.CensusReport(
        rows=[row._replace(abelian=True, two_path_checked=False)], metadata={}
    )
    assert booled.cells[0][-3:] == ("true", blocks.HOLDS_EQUALITY_ABELIAN, "false")


@pytest.mark.parametrize(
    "spec, check_two_path, off_by_one",
    [
        pytest.param(_MIXED_SPECS[0], True, False, id="witnessed"),
        pytest.param(_MIXED_SPECS[1], True, False, id="synthetic"),
        pytest.param(
            SweepSpec(
                families=tuple(blocks.WEIGHT_FAMILIES),
                ell_values=(3, 5, 7),
                a_values=(1, 2),
                w_values=tuple(range(13)),
            ),
            True,
            False,
            id="weight-families",
        ),
        pytest.param(
            SweepSpec(
                families=blocks.PRINCIPAL_FAMILIES,
                ell_values=(3, 5, 7),
                a_values=(1, 2),
                n_values=(-1, *range(1, 31)),
                q_values=(4, 11),
            ),
            True,
            False,
            id="principal-families",
        ),
        pytest.param(_MIXED_SPECS[0], False, False, id="witnessed-no-two-path"),
        pytest.param(_MIXED_SPECS[1], True, True, id="off-by-one-slot-path"),
    ],
)
def test_sweep_renderings_match_a_row_by_row_reference(
    monkeypatch, spec, check_two_path, off_by_one
):
    # the sweep formats each block's cells once and joins them to each
    # run's head cells; the bytes must be those of formatting every row
    # with _row_cells, as a report built without cells does
    if off_by_one:
        real = slots.block_count_proof_path
        monkeypatch.setattr(slots, "block_count_proof_path", lambda *args: real(*args) + 1)
    report = sweep(spec, CountCache(), check_two_path, timestamp="2026-01-01T00:00:00+00:00")
    reference = blocks.CensusReport(
        rows=report.rows, metadata=report.metadata, errors=report.errors
    )
    assert report.cells == tuple(map(blocks._row_cells, report.rows)) == reference.cells
    expected = _reference_renderings(report)
    for fmt in ("csv", "json", "md"):
        assert report.render(fmt) == reference.render(fmt) == expected[fmt]
    verdicts = {row.verdict for row in report.rows}
    assert (blocks.INTERNAL_MISMATCH in verdicts) == off_by_one
    for cells, row in zip(report.cells, report.rows):
        if row.k_B is not None:
            checked = check_two_path and row.family in blocks.WEIGHT_FAMILIES
            assert cells[-1] == ("true" if checked else "false")
