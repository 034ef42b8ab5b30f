import random
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockcensus import blocks, slots
from blockcensus.counting import (
    KRONECKER_MIN_LEN,
    CountCache,
    is_prime,
    multipartition_count,
    partition_count,
)


def test_general_linear_order():
    assert slots.general_linear_order(0, 5) == 1
    assert slots.general_linear_order(1, 4) == 3
    assert slots.general_linear_order(2, 4) == 180
    assert slots.general_linear_order(3, 4) == 181440
    assert slots.general_linear_order(2, 8) == 3528


def test_build_inventory_rejects_bad_parameters():
    with pytest.raises(ValueError, match="ell = 2"):
        slots.build_inventory(slots.LINEAR, 2, 1, 1)
    with pytest.raises(ValueError):
        slots.build_inventory(slots.LINEAR, 9, 1, 1)
    with pytest.raises(ValueError, match="divide"):
        slots.build_inventory(slots.LINEAR, 5, 3, 1)
    with pytest.raises(ValueError):
        slots.build_inventory("octonion", 3, 1, 1)


def test_slot_denominator():
    # the closed form and the slot path share this value, so the two-path
    # check cannot catch a wrong rule; these fixed values are its guard
    assert [slots.dprime_of(d) for d in (1, 2, 3, 4, 5, 6, 8)] == [1, 1, 3, 2, 5, 3, 4]
    expected = {
        slots.LINEAR: [1, 2, 3, 4, 5, 6, 8],
        slots.UNITARY: [1, 2, 3, 4, 5, 6, 8],
        slots.SYMPLECTIC: [2, 2, 6, 4, 10, 6, 8],
        slots.EVEN_ORTHOGONAL: [2, 2, 6, 4, 10, 6, 8],
    }
    assert set(expected) == set(slots.INVENTORY_FAMILIES)
    for family, denoms in expected.items():
        got = [slots.slot_denominator(family, d) for d in (1, 2, 3, 4, 5, 6, 8)]
        assert got == denoms, family
    with pytest.raises(ValueError, match="unknown family"):
        slots.slot_denominator("octonion", 1)


def test_slot_denominator_divides_ell_minus_one():
    for ell in (p for p in range(3, 200) if is_prime(p)):
        for d in (d for d in range(1, ell) if (ell - 1) % d == 0):
            for family in slots.INVENTORY_FAMILIES:
                assert (ell - 1) % slots.slot_denominator(family, d) == 0, (family, ell, d)


def test_linear_inventory_3_1_1():
    inv = slots.build_inventory(slots.LINEAR, 3, 1, 1)
    base = inv.base_slots()
    assert len(base) == 1
    assert base[0].slot_count == 2 and base[0].unit_weight == 1
    assert base[0].factor_kind == slots.LINEAR and base[0].degree_multiplier == 1
    deep = inv.deep_slots(9)
    assert [(c.slot_count, c.unit_weight) for c in deep] == [(2, 3), (2, 9)]
    assert [c.degree_multiplier for c in deep] == [3, 9]


def test_linear_inventory_deep_levels_respect_valuation():
    # with a = 2 every root of order up to ell**2 already lives at weight 1
    inv = slots.build_inventory(slots.LINEAR, 3, 2, 2)
    base = inv.base_slots()
    assert [(c.level, c.slot_count, c.unit_weight) for c in base] == [
        (1, 1, 1),
        (2, 3, 1),
    ]
    assert all(c.degree_multiplier == 2 for c in base)
    deep = inv.deep_slots(3)
    assert [(c.level, c.slot_count, c.unit_weight, c.degree_multiplier) for c in deep] == [
        (3, 3, 3, 6)
    ]


def test_linear_inventory_degree4():
    inv = slots.build_inventory(slots.LINEAR, 5, 4, 1)
    base = inv.base_slots()
    assert len(base) == 1 and base[0].slot_count == 1
    assert base[0].degree_multiplier == 4


def test_symplectic_inventory_pairs_slots():
    inv = slots.build_inventory(slots.SYMPLECTIC, 3, 1, 1)
    assert inv.denom == 2 and inv.weyl_base == 2
    base = inv.base_slots()
    assert len(base) == 1 and base[0].slot_count == 1
    # odd order parameter keeps full-degree linear factors
    assert base[0].factor_kind == slots.LINEAR and base[0].degree_multiplier == 1


def test_even_order_parameter_gives_unitary_factors():
    inv = slots.build_inventory(slots.SYMPLECTIC, 5, 2, 1)
    base = inv.base_slots()
    assert base[0].factor_kind == slots.UNITARY
    assert base[0].degree_multiplier == 1  # dprime = 1


def test_slot_count_exactness_across_profiles():
    for ell in (3, 5, 7):
        for d in range(1, ell):
            if (ell - 1) % d:
                continue
            for a in (1, 2):
                for family in slots.INVENTORY_FAMILIES:
                    inv = slots.build_inventory(family, ell, d, a)
                    for cls in inv.slot_classes(ell**2):
                        assert cls.slot_count >= 1


def test_enumerate_weight_vectors_counts():
    inv = slots.build_inventory(slots.LINEAR, 3, 1, 1)
    assert len(list(slots.enumerate_weight_vectors(inv, 0))) == 1
    # budget 2 over the principal slot and two unit slots
    assert len(list(slots.enumerate_weight_vectors(inv, 2))) == 6
    sp = slots.build_inventory(slots.SYMPLECTIC, 3, 1, 1)
    assert len(list(slots.enumerate_weight_vectors(sp, 2))) == 3


def test_enumerate_weight_vectors_unique_and_balanced():
    inv = slots.build_inventory(slots.LINEAR, 3, 1, 2)
    seen = set()
    for vec in slots.enumerate_weight_vectors(inv, 4):
        key = (vec.principal, vec.mults)
        assert key not in seen
        seen.add(key)
        classes = inv.slot_classes(4)
        twisted = sum(sum(occ) * cls.unit_weight for cls, occ in zip(classes, vec.mults))
        assert vec.principal + twisted == 4


def _brute_force_vector_count(inv, w):
    # independent path: count integer solutions of
    #   principal + sum(m_i * weight_i) == w
    # by recursion over the flattened slot list
    weights = [1]  # principal
    for cls in inv.slot_classes(w):
        weights.extend([cls.unit_weight] * cls.slot_count)

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def count(idx, remaining):
        if idx == len(weights):
            return 1 if remaining == 0 else 0
        step = weights[idx]
        return sum(
            count(idx + 1, remaining - m * step)
            for m in range(remaining // step + 1)
        )

    return count(0, w)


@settings(max_examples=20, deadline=None)
@given(a=st.integers(1, 2), w=st.integers(0, 5))
def test_stream_length_matches_brute_force(a, w):
    inv = slots.build_inventory(slots.LINEAR, 3, 1, a)
    stream = sum(1 for _ in slots.enumerate_weight_vectors(inv, w))
    assert stream == _brute_force_vector_count(inv, w)


def test_centralizer_shape_principal_and_slots():
    inv = slots.build_inventory(slots.LINEAR, 3, 1, 1)
    vecs = list(slots.enumerate_weight_vectors(inv, 2))
    shapes = [slots.centralizer_shape(inv, v, 2) for v in vecs]
    orders = sorted(s.linear_order(4) for s in shapes)
    # GL_2(4): identity, mixed-eigenvalue, and scalar classes
    assert orders == [9, 9, 9, 180, 180, 180]


def test_centralizer_shape_refuses_non_linear_orders():
    inv = slots.build_inventory(slots.SYMPLECTIC, 3, 1, 1)
    vec = next(iter(slots.enumerate_weight_vectors(inv, 1)))
    shape = slots.centralizer_shape(inv, vec, 1)
    with pytest.raises(ValueError):
        shape.linear_order(4)


def _inventory_profiles(families=slots.INVENTORY_FAMILIES):
    # every d dividing ell - 1, a in {1, 2}
    return [
        (family, ell, d, a)
        for family in families
        for ell in (3, 5)
        for d in range(1, ell)
        if (ell - 1) % d == 0
        for a in (1, 2)
    ]


# weights 0..4 keep the enumeration of ell = 5, a = 2 (24 base slots) small;
# at ell = 3 they reach the first deep class
BRUTE_FORCE_WEIGHTS = range(5)


@pytest.mark.parametrize("family, ell, d, a", _inventory_profiles())
def test_unipotent_block_count_sums_to_proof_path(family, ell, d, a):
    inv = slots.build_inventory(family, ell, d, a)
    cache = CountCache()
    for w in BRUTE_FORCE_WEIGHTS:
        total = sum(
            slots.unipotent_block_count(inv, vec, cache)
            for vec in slots.enumerate_weight_vectors(inv, w)
        )
        assert total == slots.block_count_proof_path(family, ell, d, a, w, cache), w


@pytest.mark.parametrize(
    "kind, ell, e, a", _inventory_profiles((slots.LINEAR, slots.UNITARY))
)
def test_eL_series_total_sums_over_weight_vectors(kind, ell, e, a):
    # at rank n = e * w + r every weight vector contributes p(e * principal
    # + r), the unipotent characters of the principal factor, times one
    # partition count per slot multiplicity
    inv = slots.build_inventory(kind, ell, e, a)
    for w in BRUTE_FORCE_WEIGHTS:
        totals = [0] * e
        for vec in slots.enumerate_weight_vectors(inv, w):
            slot_term = 1
            for occ in vec.mults:
                for m in occ:
                    slot_term *= partition_count(m)
            for r in range(e):
                totals[r] += partition_count(e * vec.principal + r) * slot_term
        for r, total in enumerate(totals):
            n = e * w + r
            if n:
                assert slots.eL_series_total(kind, n, e, a, ell, CountCache()) == total, n


def test_proof_path_values():
    assert slots.block_count_proof_path(slots.SYMPLECTIC, 3, 1, 1, 2) == 9
    assert slots.block_count_proof_path(slots.LINEAR, 3, 1, 1, 2) == 9
    assert slots.block_count_proof_path(slots.LINEAR, 3, 1, 1, 0) == 1
    assert slots.block_count_proof_path(slots.EVEN_ORTHOGONAL, 3, 1, 1, 0) == 1


def test_proof_path_hand_expansion_symplectic():
    # weight 2, one paired slot: k(2,0)*pi(2) + k(2,1)*pi(1) + k(2,2)*pi(0)
    expected = (
        multipartition_count(2, 0) * partition_count(2)
        + multipartition_count(2, 1) * partition_count(1)
        + multipartition_count(2, 2) * partition_count(0)
    )
    assert expected == 9
    assert slots.block_count_proof_path(slots.SYMPLECTIC, 3, 1, 1, 2) == expected


def test_eL_series_values():
    assert slots.eL_series_total(slots.LINEAR, 2, 1, 1, 3) == 9
    assert slots.eL_series_total(slots.LINEAR, 3, 1, 1, 3) == 24
    # below the order parameter only unipotent characters remain
    for n in (1, 2, 3):
        assert slots.eL_series_total(slots.LINEAR, n, 4, 1, 5) == partition_count(n)
    assert slots.eL_series_total(slots.UNITARY, 6, 2, 1, 5) == 41
    assert slots.eL_series_total(slots.UNITARY, 3, 2, 1, 5) == 5
    assert slots.eL_series_total(slots.UNITARY, 2, 2, 1, 5) == 4


def test_eL_series_rejects_bad_parameters():
    with pytest.raises(ValueError):
        slots.eL_series_total("octonion", 2, 1, 1, 3)
    with pytest.raises(ValueError):
        slots.eL_series_total(slots.LINEAR, 0, 1, 1, 3)
    with pytest.raises(ValueError):
        # order parameter 3 does not divide ell - 1 = 4
        slots.eL_series_total(slots.LINEAR, 4, 3, 1, 5)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from([slots.LINEAR, slots.UNITARY]),
    n=st.integers(1, 12),
    a=st.integers(1, 2),
)
def test_eL_series_monotone(kind, n, a):
    base = slots.eL_series_total(kind, n, 2, a, 5)
    assert slots.eL_series_total(kind, n + 2, 2, a, 5) >= base
    assert slots.eL_series_total(kind, n, 2, a + 1, 5) >= base


def test_two_path_equality_spot_grid():
    # trimmed grid; the full acceptance sweep covers ell in {3,5,7}, w <= 8
    from blockcensus import blocks

    for family, slot_family in (
        ("GL", slots.LINEAR),
        ("Sp", slots.SYMPLECTIC),
        ("GOevenPlus", slots.EVEN_ORTHOGONAL),
    ):
        for ell in (3, 5):
            for d in (1, 2):
                if (ell - 1) % d:
                    continue
                for a in (1, 2):
                    for w in range(5):
                        query = blocks.BlockQuery(
                            family, blocks.EllProfile(ell, d, a), w=w
                        )
                        closed = blocks.block_invariants(query, check_two_path=False).k_B
                        proof = slots.block_count_proof_path(slot_family, ell, d, a, w)
                        assert closed == proof, (family, ell, d, a, w, closed, proof)


@pytest.mark.parametrize(
    "family, ell, a, w",
    [
        ("GL", 3, 1, 150),
        ("GL", 3, 1, 300),
        ("Sp", 3, 1, 150),
        ("Sp", 3, 1, 300),
        ("GL", 5, 2, 100),
    ],
)
def test_two_path_equality_large_weight(family, ell, a, w):
    from blockcensus import blocks

    query = blocks.BlockQuery(family, blocks.EllProfile(ell, 1, a), w=w)
    closed = blocks.block_invariants(query, check_two_path=False).k_B
    proof = slots.block_count_proof_path(blocks.WEIGHT_FAMILIES[family], ell, 1, a, w)
    assert closed == proof


def _convolve(a, b, cap):
    out = [0] * (cap + 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j in range(cap - i + 1):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def _reference_slot_fold(inv, budget):
    # the literal slot fold: one truncated convolution per slot
    series = [1] + [0] * budget
    for cls in inv.slot_classes(budget):
        single = [0] * (budget + 1)
        for v in range(budget // cls.unit_weight + 1):
            single[v * cls.unit_weight] = partition_count(v)
        for _ in range(cls.slot_count):
            series = _convolve(series, single, budget)
    return series


def _reference_block_from(inv, slot_series, w):
    return sum(
        multipartition_count(inv.weyl_base, u) * slot_series[w - u] for u in range(w + 1)
    )


def _reference_block_count(inv, w):
    return _reference_block_from(inv, _reference_slot_fold(inv, w), w)


@st.composite
def _slot_profiles(draw):
    ell = draw(st.sampled_from([3, 5, 7]))
    d = draw(st.sampled_from([d for d in range(1, ell) if (ell - 1) % d == 0]))
    return ell, d, draw(st.integers(1, 2))


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(slots.INVENTORY_FAMILIES),
    profile=_slot_profiles(),
    w=st.integers(0, 40),
)
def test_slot_product_is_the_slot_fold(family, profile, w):
    ell, d, a = profile
    inv = slots.build_inventory(family, ell, d, a)
    expected = _reference_slot_fold(inv, w)
    assert slots._slot_product(inv, 0, w, CountCache())[: w + 1] == expected
    count = _reference_block_count(inv, w)
    assert slots.block_count_proof_path(family, ell, d, a, w, CountCache()) == count
    assert slots.block_count_proof_path(family, ell, d, a, w) == count


def _reference_class_product(inv, budget):
    # the literal product over inv.slot_classes(budget) of P(x**u)**c, one
    # schoolbook product per class; the class factor P(y)**c is read off the
    # coloured-partition row k(c, .), which the slot path never reads
    series = [1] + [0] * budget
    for cls in inv.slot_classes(budget):
        u = cls.unit_weight
        factor = [0] * (budget + 1)
        for v in range(budget // u + 1):
            factor[u * v] = multipartition_count(cls.slot_count, v)
        series = _convolve(factor, series, budget)
    return series


def _edge_budgets(ell):
    # 0 and 1, and either side of ell, ell**2 and ell**3: the budgets where
    # the deep classes, and the levels of their self-similar fold, begin
    return sorted({0, 1} | {ell**j + e for j in (1, 2, 3) for e in (-1, 0, 1)})


@pytest.mark.parametrize("a", [1, 2, 3])
@pytest.mark.parametrize("ell", [3, 5, 7])
def test_slot_series_is_the_class_product_at_edge_budgets(ell, a):
    # every d, under both denominator rules (d, and 2d'); each budget is
    # built on a fresh cache, so the fold starts its recursion there, for
    # the slot classes alone and, in the block count, with the principal
    # factor joined to their base power
    budgets = _edge_budgets(ell)
    top = budgets[-1]
    products = {}
    for family in (slots.LINEAR, slots.SYMPLECTIC):
        for d in (d for d in range(1, ell) if (ell - 1) % d == 0):
            inv = slots.build_inventory(family, ell, d, a)
            if inv.denom not in products:
                products[inv.denom] = _reference_class_product(inv, top)
            expected = products[inv.denom]
            for budget in budgets:
                cache = CountCache()
                got = slots._slot_product(inv, 0, budget, cache)
                assert got[: budget + 1] == expected[: budget + 1], (family, d, budget)
                count = _reference_block_from(inv, expected, budget)
                assert slots.block_count_proof_path(
                    family, ell, d, a, budget, cache
                ) == count, (family, d, budget)


def test_slot_series_is_the_class_product_where_the_fold_packs(monkeypatch):
    # budgets either side of the one where the deep factor, at budget // ell,
    # reaches the packed kernel; the slot path then runs with the sigma
    # recurrence and the coloured-partition rows refusing to be read
    cases = []
    for ell, a in ((3, 1), (3, 2), (5, 1), (7, 1)):
        edge = ell * (KRONECKER_MIN_LEN - 1)  # budget // ell + 1 == KRONECKER_MIN_LEN
        budgets = (edge - 1, edge, edge + ell)
        for family in (slots.LINEAR, slots.SYMPLECTIC):
            inv = slots.build_inventory(family, ell, 1, a)
            expected = _reference_class_product(inv, budgets[-1])
            for budget in budgets:
                count = _reference_block_from(inv, expected, budget)
                cases.append((inv, budget, expected[: budget + 1], count))

    def refuse(*args):
        raise AssertionError("the slot path read the sigma recurrence")

    for name in ("_extend_sigma", "_euler_row", "multipartition_count"):
        monkeypatch.setattr(CountCache, name, refuse)
    for inv, budget, expected, count in cases:
        assert slots._slot_product(inv, 0, budget, CountCache())[: budget + 1] == expected
        assert slots.block_count_proof_path(
            inv.family, inv.ell, inv.d, inv.a, budget, CountCache()
        ) == count


def test_slot_series_is_prefix_stable():
    # the slot series only grows; a later request, shorter or longer, must
    # read what a fresh cache computes, for either function on one cache
    grown = CountCache()
    for family in (slots.LINEAR, slots.SYMPLECTIC):
        for w in (0, 1, 2, 300, 7, 150, 601):
            fresh = slots.block_count_proof_path(family, 3, 1, 1, w, CountCache())
            assert slots.block_count_proof_path(family, 3, 1, 1, w, grown) == fresh
    for n in (300, 7, 150, 601):
        fresh = slots.eL_series_total(slots.LINEAR, n, 1, 1, 3, CountCache())
        assert slots.eL_series_total(slots.LINEAR, n, 1, 1, 3, grown) == fresh
    inv = slots.build_inventory(slots.SYMPLECTIC, 3, 1, 1)
    assert slots.block_count_proof_path(
        slots.SYMPLECTIC, 3, 1, 1, 7, grown
    ) == _reference_block_count(inv, 7)


def test_slot_path_reads_no_sigma_row(monkeypatch):
    # the principal factor joins the base power of P, so neither the sigma table
    # nor a coloured-partition row is touched; at w = 450 and ell = 3 the
    # stride-3 fold and the principal product go through the packed kernel
    expected = {
        family: blocks.block_invariants(
            blocks.BlockQuery(family, blocks.EllProfile(3, 1, 1), w=450),
            CountCache(),
            check_two_path=False,
        ).k_B
        for family in ("GL", "Sp")
    }

    def refuse(*args):
        raise AssertionError("the slot path read the sigma recurrence")

    for name in ("_extend_sigma", "_euler_row", "multipartition_count"):
        monkeypatch.setattr(CountCache, name, refuse)
    for family, count in expected.items():
        weight_family = blocks.WEIGHT_FAMILIES[family]
        inv = slots.build_inventory(weight_family, 3, 1, 1)
        cache = CountCache()
        assert slots._slot_product(inv, 0, 450, cache)[:451] == _reference_slot_fold(inv, 450)
        assert slots.block_count_proof_path(weight_family, 3, 1, 1, 450, cache) == count


def test_closed_form_reads_no_partition_power(monkeypatch):
    # the converse: the closed form takes its counts from the sigma
    # recurrence alone, so neither a partition number nor the slot path's
    # partition-power table is read at w = 450
    expected = {
        family: slots.block_count_proof_path(
            blocks.WEIGHT_FAMILIES[family], 3, 1, 1, 450, CountCache()
        )
        for family in ("GL", "Sp")
    }

    def refuse(*args):
        raise AssertionError("the closed form read a partition power")

    for name in ("partition_count", "_power_row"):
        monkeypatch.setattr(CountCache, name, refuse)
    for family, count in expected.items():
        query = blocks.BlockQuery(family, blocks.EllProfile(3, 1, 1), w=450)
        cache = CountCache()
        assert blocks.block_invariants(query, cache, check_two_path=False).k_B == count
        assert cache._powers == {}


def test_slot_series_growth():
    # entries are rebuilt longer and never changed once stored: one cache
    # grown in any query order must read what one serial cache computes
    queries = [
        (family, ell, d, a, w)
        for family in (slots.LINEAR, slots.SYMPLECTIC)
        for ell in (3, 5)
        for d in (1, 2)
        for a in (1, 2)
        for w in range(0, 120, 7)
    ]
    serial = CountCache()
    expected = {q: slots.block_count_proof_path(*q, serial) for q in queries}
    for seed in range(6):
        grown = CountCache()
        for q in random.Random(seed).sample(queries, len(queries)):
            assert slots.block_count_proof_path(*q, grown) == expected[q], (seed, q)


@settings(max_examples=80, deadline=timedelta(seconds=2))
@given(
    family=st.sampled_from(sorted(blocks.WEIGHT_FAMILIES)),
    profile=st.sampled_from(
        [(ell, d) for ell in (3, 5, 7, 11, 13) for d in range(1, ell) if (ell - 1) % d == 0]
    ),
    a=st.integers(1, 3),
    w=st.integers(0, 1000),
)
def test_two_path_equality_large_weight_property(family, profile, a, w):
    ell, d = profile
    cache = CountCache()
    query = blocks.BlockQuery(family, blocks.EllProfile(ell, d, a), w=w)
    closed = blocks.block_invariants(query, cache, check_two_path=False).k_B
    proof = slots.block_count_proof_path(blocks.WEIGHT_FAMILIES[family], ell, d, a, w, cache)
    assert closed == proof

