import inspect
import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockcensus import counting, oracle, slots
from blockcensus.counting import (
    gmpn_irr_count,
    multipartition_count,
    partition_count,
)


def test_partitions_of_counts():
    for t in range(13):
        parts = list(oracle.partitions_of(t))
        assert len(parts) == partition_count(t)
        assert len(set(parts)) == len(parts)
        for lam in parts:
            assert sum(lam) == t
            assert all(a >= b for a, b in zip(lam, lam[1:]))


def _recursive_compositions(total, parts):
    # the weak compositions of total into exactly `parts` slots, head first,
    # in lexicographic order
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for rest in _recursive_compositions(total - head, parts - 1):
            yield (head,) + rest


def test_compositions_into():
    # pins the reference that the composition-sum check of
    # multipartition_enumerate sums over
    combos = list(_recursive_compositions(3, 2))
    assert combos == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert list(_recursive_compositions(0, 3)) == [(0, 0, 0)]
    for total in range(11):
        for parts in range(1, 7):
            combos = list(_recursive_compositions(total, parts))
            assert combos == sorted(set(combos)), (total, parts)
            assert len(combos) == math.comb(total + parts - 1, parts - 1), (total, parts)


def test_compositions_into_matches_recursive_reference():
    # the recursion against a brute-force filter of every bounded tuple,
    # which product yields in the same lexicographic order
    for total in range(9):
        for parts in range(6):
            brute = [
                c for c in itertools.product(range(total + 1), repeat=parts) if sum(c) == total
            ]
            assert list(_recursive_compositions(total, parts)) == brute, (total, parts)


def test_multipartition_enumeration_matches_recurrence():
    for s in range(1, oracle.ENUM_MAX_COLOURS + 1):
        for t in range(oracle.ENUM_MAX_SIZE + 1):
            assert oracle.multipartition_enumerate(s, t) == multipartition_count(s, t)


def _composition_sum_reference(s, t):
    # the sum over weak size compositions that multipartition_enumerate
    # replaced, kept as a reference
    counts = [len(list(oracle.partitions_of(size))) for size in range(t + 1)]
    return sum(
        math.prod(counts[size] for size in sizes) for sizes in _recursive_compositions(t, s)
    )


def test_multipartition_enumerate_matches_composition_sum():
    for s in range(1, oracle.ENUM_MAX_COLOURS + 1):
        for t in range(oracle.ENUM_MAX_SIZE + 1):
            expected = _composition_sum_reference(s, t)
            assert oracle.multipartition_enumerate(s, t) == expected, (s, t)


def test_multipartition_enumerate_cap():
    with pytest.raises(ValueError, match="enumeration cap exceeded"):
        oracle.multipartition_enumerate(9, 1)
    with pytest.raises(ValueError, match="enumeration cap exceeded"):
        oracle.multipartition_enumerate(2, 13)


def test_small_field_axioms_all_sizes():
    for q in oracle._SUPPORTED_Q:
        field = oracle.SmallField(q)
        assert field.q == q
        g = field.generator()
        seen = {g}
        x = g
        for _ in range(q - 2):
            x = field.mul(x, g)
            seen.add(x)
        assert len(seen) == q - 1  # the generator really has order q - 1


def test_small_field_rejects_reducible_modulus():
    # x^3 + 1 factors over GF(2)
    with pytest.raises(ValueError):
        oracle.SmallField(8, (1, 0, 0, 1))
    with pytest.raises(ValueError):
        oracle.SmallField(6)


def test_both_gf8_moduli_agree():
    a = oracle.gl_ell_class_census(2, 8, 3, modulus=(1, 1, 0, 1))
    b = oracle.gl_ell_class_census(2, 8, 3, modulus=(1, 0, 1, 1))
    key = lambda c: (c.size, c.centralizer_order, c.element_order)
    assert sorted(map(key, a.classes)) == sorted(map(key, b.classes))


def test_matrix_helpers_roundtrip():
    field = oracle.SmallField(4)
    m = ((2, 1), (1, 1))
    assert oracle.mat_det(field, m) != 0
    inv = oracle.mat_inv(field, m)
    assert oracle.mat_mul(field, m, inv) == oracle.mat_identity(2)
    assert oracle.mat_pow(field, m, 0) == oracle.mat_identity(2)
    singular = ((1, 1), (1, 1))
    assert oracle.mat_det(field, singular) == 0
    with pytest.raises(ZeroDivisionError):
        oracle.mat_inv(field, singular)


# every supported field, plus GF(8) under its alternative modulus
FIELDS = [(f"q{q}", oracle.SmallField(q)) for q in oracle._SUPPORTED_Q] + [
    (f"q{q}alt", oracle.SmallField(q, modulus)) for q, modulus in oracle._ALT_MODULI.items()
]
KERNEL_CASES = pytest.mark.parametrize(
    "field, n",
    [pytest.param(field, n, id=f"{label}-n{n}") for label, field in FIELDS for n in range(1, 5)],
)


def _mat_mul_reference(field, a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = 0
            for t in range(n):
                acc = field._add[acc][field.mul(a[i][t], b[t][j])]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _mat_det_reference(field, a):
    # cofactor expansion along the first row, minors by recursion
    if len(a) == 1:
        return a[0][0]
    det = 0
    for j, entry in enumerate(a[0]):
        minor = tuple(row[:j] + row[j + 1 :] for row in a[1:])
        term = field.mul(entry, _mat_det_reference(field, minor))
        det = field._add[det][field._neg[term] if j % 2 else term]
    return det


def _matrices(field, n):
    entry = st.integers(0, field.q - 1)
    return st.tuples(*[st.tuples(*[entry] * n)] * n)


@KERNEL_CASES
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mat_mul_and_det_match_literal_references(field, n, data):
    a = data.draw(_matrices(field, n))
    b = data.draw(_matrices(field, n))
    assert oracle.mat_mul(field, a, b) == _mat_mul_reference(field, a, b)
    assert oracle.mat_det(field, a) == _mat_det_reference(field, a)


def _invertible_matrices(field, n):
    # P L U: a permutation matrix, a unit lower-triangular matrix and an
    # upper-triangular one with a nonzero diagonal. Every invertible matrix
    # has this form, and no draw is rejected.
    entry = st.integers(0, field.q - 1)
    unit = st.integers(1, field.q - 1)
    perm = st.permutations(range(n)).map(
        lambda p: tuple(tuple(int(j == p[i]) for j in range(n)) for i in range(n))
    )
    lower = st.tuples(
        *[st.tuples(*[entry] * i, st.just(1), *[st.just(0)] * (n - 1 - i)) for i in range(n)]
    )
    upper = st.tuples(
        *[st.tuples(*[st.just(0)] * i, unit, *[entry] * (n - 1 - i)) for i in range(n)]
    )
    return st.tuples(perm, lower, upper).map(
        lambda plu: _mat_mul_reference(
            field, _mat_mul_reference(field, plu[0], plu[1]), plu[2]
        )
    )


@KERNEL_CASES
@settings(max_examples=15, deadline=None)
@given(data=st.data(), e=st.integers(-6, 40))
def test_mat_pow_matches_repeated_products(field, n, data, e):
    a = data.draw(_invertible_matrices(field, n))
    assert _mat_det_reference(field, a) != 0
    base = a if e >= 0 else oracle.mat_inv(field, a)
    expected = oracle.mat_identity(n)
    for _ in range(abs(e)):
        expected = _mat_mul_reference(field, expected, base)
    assert oracle.mat_pow(field, a, e) == expected


def test_mat_identity_is_built_once_per_n():
    for n in range(1, 5):
        identity = oracle.mat_identity(n)
        assert identity == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        assert oracle.mat_identity(n) is identity


def _mat_mul_orbit(field, x, conjugators):
    # the breadth-first search on matrix products that the row-coded
    # search replaced, kept as a reference
    orbit = {x}
    frontier = [x]
    while frontier:
        new = []
        for z in frontier:
            for g, ginv in conjugators:
                y = oracle.mat_mul(field, ginv, oracle.mat_mul(field, z, g))
                if y not in orbit:
                    orbit.add(y)
                    new.append(y)
        frontier = new
    return orbit


def _row_coded_orbit(field, x, conjugators):
    # the class of x closed by the census's own search: _closure over the
    # row-coded _conjugation maps, decoded back to matrices
    tables = field.row_tables(len(x))
    orbit = oracle._closure(
        tuple(map(tables.index.__getitem__, x)),
        [oracle._conjugation(tables, g, ginv) for g, ginv in conjugators],
        field.q ** (len(x) * len(x)),  # no orbit outgrows the matrix space
    )
    return {tuple(map(tables.rows.__getitem__, z)) for z in orbit}


def _generator_pairs(field, n):
    return [(g, oracle.mat_inv(field, g)) for g in oracle.gl_generators(field, n)]


# GL_2 over every supported field (GF(8) under both moduli), GL_3(2),
# GL_3(3), and the plain-loop sizes n = 1 and n = 4
CONJUGACY_CASES = pytest.mark.parametrize(
    "field, n",
    [pytest.param(field, 2, id=f"{label}-n2") for label, field in FIELDS]
    + [
        pytest.param(oracle.SmallField(q), n, id=f"q{q}-n{n}")
        for q, n in ((2, 3), (3, 3), (5, 1), (2, 4))
    ],
)


@CONJUGACY_CASES
def test_conjugacy_class_matches_mat_mul_orbits(field, n):
    conjugators = _generator_pairs(field, n)
    rng = random.Random(100 * n + field.q)
    starts = [oracle.mat_identity(n)]
    # GL_4(2) orbits run to thousands of matrices, so n = 4 takes fewer
    for _ in range(8 if n < 4 else 2):
        entries = [rng.randrange(field.q) for _ in range(n * n)]
        starts.append(tuple(tuple(entries[i * n : (i + 1) * n]) for i in range(n)))
    for x in starts:
        assert _row_coded_orbit(field, x, conjugators) == _mat_mul_orbit(
            field, x, conjugators
        ), x


def test_conjugacy_class_under_sl2_gf4_conjugators():
    field = oracle.SmallField(4)
    elements = [
        m
        for m in (((a, b), (c, d)) for a, b, c, d in itertools.product(range(4), repeat=4))
        if oracle.mat_det(field, m) == 1
    ]
    conjugators = [(g, oracle.mat_inv(field, g)) for g in elements]
    for datum in oracle.sl2_gf4_census():
        x = datum.representative
        orbit = _row_coded_orbit(field, x, conjugators)
        assert orbit == _mat_mul_orbit(field, x, conjugators)
        assert len(orbit) == datum.size and min(orbit) == x


def _element_order_reference(field, x, bound):
    identity = oracle.mat_identity(len(x))
    y, order = x, 1
    while y != identity:
        y = _mat_mul_reference(field, y, x)
        order += 1
        assert order <= bound, f"{x} has no order up to {bound}"
    return order


# the oracle battery's GL cases -> number of elements of ell-power order
ORACLE_GL_TOTALS = {
    (1, 4, 3): 3,
    (2, 2, 3): 3,
    (2, 4, 3): 63,
    (2, 4, 5): 25,
    (2, 5, 3): 21,
    (2, 8, 3): 225,
    (2, 9, 5): 145,
    (3, 2, 7): 49,
    (3, 3, 13): 1729,
    (3, 4, 3): 14499,
    (3, 5, 3): 15501,
}


@pytest.mark.parametrize(
    "case", list(ORACLE_GL_TOTALS), ids=lambda c: "n{}-q{}-ell{}".format(*c)
)
def test_census_classes_match_mat_mul_orbits(case):
    # every class is the mat_mul orbit of its representative, with that
    # representative least; distinct representatives mean distinct orbits,
    # and the orbits cover every element of ell-power order
    n, q, ell = case
    census = oracle.gl_ell_class_census(n, q, ell)
    field = oracle.SmallField(q)
    conjugators = _generator_pairs(field, n)
    expected = []
    for datum in census.classes:
        orbit = _mat_mul_orbit(field, datum.representative, conjugators)
        expected.append(
            oracle.ClassDatum(
                min(orbit),
                len(orbit),
                census.group_order // len(orbit),
                _element_order_reference(field, datum.representative, census.group_order),
            )
        )
    expected.sort(key=lambda c: (c.size, c.representative))
    assert census.classes == tuple(expected)
    assert len({c.representative for c in expected}) == len(expected)
    assert census.ell_element_total == ORACLE_GL_TOTALS[case]


def test_gl_order():
    assert oracle.gl_order(2, 2) == 6
    assert oracle.gl_order(2, 4) == 180
    assert oracle.gl_order(3, 2) == 168
    assert oracle.gl_order(3, 4) == 181440
    assert oracle.gl_order(3, 5) == 1488000


def test_mulclose_generates_gl2_gf2():
    field = oracle.SmallField(2)
    group = oracle.mulclose(field, oracle.gl_generators(field, 2), cap=10)
    assert len(group) == 6
    with pytest.raises(ValueError, match="cap"):
        oracle.mulclose(field, oracle.gl_generators(field, 2), cap=5)


def test_closure_and_orbits():
    # the residues mod 12 under x -> x + 4 and x -> 2x
    maps = [lambda x: (x + 4) % 12, lambda x: 2 * x % 12]
    assert oracle._closure(1, maps, 12) == {0, 1, 2, 4, 5, 6, 8, 9, 10}
    assert oracle._closure(1, maps, 9) == {0, 1, 2, 4, 5, 6, 8, 9, 10}
    with pytest.raises(ValueError, match="cap 8 exceeded"):
        oracle._closure(1, maps, 8)
    shift = [lambda x: (x + 4) % 12]
    orbits = list(oracle._orbits([0, 4, 1, 5, 3, 2], shift, 3))
    assert orbits == [{0, 4, 8}, {1, 5, 9}, {3, 7, 11}, {2, 6, 10}]


# (n, q, ell) -> (sorted centralizer orders, ell-power element count)
CENSUS_EXPECTED = {
    (2, 2, 3): ([3, 6], 3),
    (2, 4, 3): ([9, 9, 9, 180, 180, 180], 63),
    (3, 2, 7): ([7, 7, 168], 49),
    (2, 5, 3): ([24, 480], 21),
    (2, 9, 5): ([80, 80, 5760], 145),
    (2, 4, 5): ([15, 15, 180], 25),
    (2, 8, 3): ([63, 63, 63, 63, 3528], 225),
    (3, 3, 13): ([26, 26, 26, 26, 11232], 1729),
}


def test_census_values():
    for (n, q, ell), (orders, total) in CENSUS_EXPECTED.items():
        census = oracle.gl_ell_class_census(n, q, ell)
        assert census.group_order == oracle.gl_order(n, q)
        got = sorted(c.centralizer_order for c in census.classes)
        assert got == orders, (n, q, ell)
        assert census.ell_element_total == total, (n, q, ell)
        for datum in census.classes:
            assert census.group_order % datum.size == 0
            assert datum.centralizer_order * datum.size == census.group_order
        assert oracle.census_matches_weight_vectors(census), (n, q, ell)


def test_census_gl3_gf4():
    census = oracle.gl_ell_class_census(3, 4, 3)
    assert len(census.classes) == 12
    orders = sorted(c.centralizer_order for c in census.classes)
    assert orders == [27] + [63] * 2 + [540] * 6 + [181440] * 3
    assert census.ell_element_total == 14499
    assert oracle.census_matches_weight_vectors(census)


def test_census_gl3_gf5_random_seeded():
    census = oracle.gl_ell_class_census(3, 5, 3)
    orders = sorted(c.centralizer_order for c in census.classes)
    assert orders == [96, 1488000]
    assert census.ell_element_total == 15501
    assert oracle.census_matches_weight_vectors(census)


def test_census_rank_one():
    census = oracle.gl_ell_class_census(1, 4, 3)
    assert len(census.classes) == 3
    assert all(c.centralizer_order == 3 and c.size == 1 for c in census.classes)
    assert oracle.census_matches_weight_vectors(census)


def test_census_is_deterministic():
    # the Sylow search draws from rng_seed; the classes must not depend on it
    for case in ORACLE_GL_TOTALS:
        reference = oracle.gl_ell_class_census(*case, rng_seed=0)
        assert reference == oracle.gl_ell_class_census(*case, rng_seed=0), case
        for seed in range(1, 5):
            assert oracle.gl_ell_class_census(*case, rng_seed=seed) == reference, (case, seed)


def test_sylow_subgroup_at_every_seed():
    # GL_2(8) at ell = 3: two elements of order 3 from different Sylow
    # subgroups generate a group that is not a 3-group, and the search
    # must pass over them. At seeds 714 and 2016 the first 3-element has
    # order 3 and 500 draws miss its own Sylow subgroup; the search gets
    # out by restarting from a later element of order 9.
    field = oracle.SmallField(8)
    order = oracle.gl_order(2, 8)
    for seed in [*range(60), 714, 2016]:
        group = oracle._sylow_subgroup(field, 2, 8, 3, 2, order, seed)
        assert len(group) == 9, seed
        assert all(oracle.mat_mul(field, x, y) in group for x in group for y in group), seed


@pytest.mark.parametrize(
    "case", list(ORACLE_GL_TOTALS), ids=lambda c: "n{}-q{}-ell{}".format(*c)
)
def test_frobenius_count_catches_each_missing_class(case, monkeypatch):
    classes = len(oracle.gl_ell_class_census(*case).classes)
    orbits = oracle._orbits
    for skip in range(classes):
        monkeypatch.setattr(
            oracle,
            "_orbits",
            lambda *args: (o for i, o in enumerate(orbits(*args)) if i != skip),
        )
        with pytest.raises(RuntimeError, match="Frobenius"):
            oracle.gl_ell_class_census(*case)


def test_census_overruns_are_runtime_errors():
    # past argument validation a cap hit is an internal fault; _closure
    # itself still reports a bad cap as a ValueError
    maps = [lambda x: (x + 1) % 12]
    with pytest.raises(ValueError, match="cap 5 exceeded"):
        oracle._closure(0, maps, 5)
    with pytest.raises(RuntimeError, match="cap 5 exceeded"):
        list(oracle._orbits([0], maps, 5))
    field = oracle.SmallField(2)
    cycle = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    assert oracle._element_order(field, cycle, 3) == 3
    with pytest.raises(RuntimeError, match="order bound"):
        oracle._element_order(field, cycle, 2)


def test_census_caps_and_rejections():
    with pytest.raises(ValueError, match="n must be 1..3"):
        oracle.gl_ell_class_census(4, 5, 3)
    with pytest.raises(ValueError, match="census cap exceeded"):
        oracle.gl_ell_class_census(3, 7, 3)
    with pytest.raises(ValueError, match="odd prime"):
        oracle.gl_ell_class_census(2, 5, 2)
    with pytest.raises(ValueError, match="must not divide"):
        oracle.gl_ell_class_census(2, 9, 3)


GMPN_CLASS_COUNTS = {
    (2, 1, 2): 5,
    (2, 2, 2): 4,
    (4, 1, 2): 14,
    (6, 2, 2): 18,
    (3, 1, 1): 3,
    (4, 2, 1): 2,
    (2, 2, 3): 5,
}


def test_gmpn_class_counts():
    for (m, p, n), expected in GMPN_CLASS_COUNTS.items():
        assert oracle.gmpn_class_count(m, p, n) == expected, (m, p, n)


def test_gmpn_class_counts_match_formula():
    for m in (1, 2, 3, 4):
        for n in (1, 2, 3):
            assert oracle.gmpn_class_count(m, 1, n) == gmpn_irr_count(m, 1, n)
    for m in (2, 4, 6):
        for n in (1, 2, 3):
            assert oracle.gmpn_class_count(m, 2, n) == gmpn_irr_count(m, 2, n)


def test_gmpn_group_structure():
    m, p, n = 4, 2, 2
    elements = oracle.gmpn_elements(m, p, n)
    assert len(elements) == oracle.gmpn_order(m, p, n) == 16
    ident = oracle.gmpn_identity(n)
    for g in elements:
        assert oracle.gmpn_mul(m, g, oracle.gmpn_inv(m, g)) == ident
    closed = set(elements)
    for g in elements[:6]:
        for h in elements[:6]:
            assert oracle.gmpn_mul(m, g, h) in closed


def test_gmpn_cap():
    with pytest.raises(ValueError, match="enumeration cap exceeded"):
        oracle.gmpn_elements(10, 1, 6)


@pytest.mark.parametrize("m, p, n", [(0, 1, 1), (-2, 1, 2), (-2, 2, 1)])
def test_gmpn_elements_refuse_empty_colour_count(m, p, n):
    with pytest.raises(ValueError, match="need m >= 1"):
        oracle.gmpn_elements(m, p, n)


def test_sl2_gf4_census():
    classes = oracle.sl2_gf4_census()
    assert tuple(c.size for c in classes) == (1, 15, 20, 12, 12)
    assert tuple(c.element_order for c in classes) == (1, 2, 3, 5, 5)
    assert sum(c.size for c in classes) == 60


def test_a5_fixture():
    result = oracle.a5_fixture_check()
    assert result["group_order"] == 60
    assert result["principal_block_size"] == 3
    assert result["defect_zero_count"] == 2
    assert result["class_sizes"] == (1, 15, 20, 12, 12)


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 4), n=st.integers(1, 3))
def test_gmpn_identity_properties(m, n):
    ident = oracle.gmpn_identity(n)
    gens = oracle.gmpn_generators(m, 1, n)
    for g in gens:
        assert oracle.gmpn_mul(m, g, ident) == g
        assert oracle.gmpn_mul(m, ident, g) == g
        order = oracle.gmpn_order(m, 1, n)
        x, steps = g, 1
        while x != ident:
            x = oracle.gmpn_mul(m, x, g)
            steps += 1
            assert steps <= order


def test_oracle_answers_never_call_counting_or_slots(monkeypatch):
    # is_prime is exempt: the oracle uses it only to validate ell
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called the machinery it checks")

    for name, obj in vars(counting.CountCache).items():
        if inspect.isfunction(obj) and not name.startswith("_"):
            monkeypatch.setattr(counting.CountCache, name, refuse)
    banned = [
        getattr(counting, name)
        for name in (
            "partition_count", "multipartition_count", "p_ell", "p_ell_row", "composition_sum"
        )
    ] + [
        getattr(slots, name)
        for name in ("block_count_proof_path", "eL_series_total", "_slot_product")
    ]
    # replace every binding, so a future "from .counting import ..." is caught
    for modname, module in list(sys.modules.items()):
        if modname == "blockcensus" or modname.startswith("blockcensus."):
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in banned):
                    monkeypatch.setattr(module, attr, refuse)

    assert oracle.multipartition_enumerate(3, 4) == 51
    assert oracle.gmpn_class_count(4, 1, 2) == 14
    census = oracle.gl_ell_class_census(2, 4, 3)
    assert sorted(c.centralizer_order for c in census.classes) == [9, 9, 9, 180, 180, 180]
    assert census.ell_element_total == 63
