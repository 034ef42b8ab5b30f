import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockcensus import counting
from blockcensus.counting import (
    KRONECKER_MIN_LEN,
    PLAIN,
    CountCache,
    _kronecker,
    _mul_trunc,
    _slot_width,
    composition_sum,
    exact_div,
    gmpn_irr_count,
    is_prime,
    k_ell_a_w,
    multipartition_count,
    p_ell,
    p_ell_row,
    partition_count,
    val_factorial,
)


def test_exact_div():
    assert exact_div(12, 4) == 3
    with pytest.raises(ArithmeticError, match="division is not exact"):
        exact_div(13, 4)


def test_inexact_division_past_the_int_str_limit_is_an_arithmetic_error(int_str_limit):
    # a ValueError from formatting the operands would make a sweep row a
    # parameter ERROR, not an INTERNAL_MISMATCH
    int_str_limit(640)
    with pytest.raises(ArithmeticError) as info:
        exact_div(10**700 + 1, 10)
    int_str_limit(0)
    assert str(info.value) == f"division is not exact: {10**700 + 1} / 10"


def test_is_prime_small():
    primes = [n for n in range(2, 30) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)


PARTITION_VALUES = {
    0: 1,
    1: 1,
    2: 2,
    3: 3,
    4: 5,
    5: 7,
    6: 11,
    10: 42,
    50: 204226,
    100: 190569292,
    1000: 24061467864032622473692149727991,
}


def test_partition_count_values():
    for n, value in PARTITION_VALUES.items():
        assert partition_count(n) == value
        assert CountCache().partition_count(n) == value


def _reference_partitions(m):
    # p(0..m) by adding one part size at a time, as in counting coins
    parts = [1] + [0] * m
    for k in range(1, m + 1):
        for n in range(k, m + 1):
            parts[n] += parts[n - k]
    return parts


def _dot_schoolbook(a, b, m):
    # the literal truncated product of two series that hold at least m + 1
    # entries: coefficient n is the sum of a_i b_(n-i)
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(m + 1)]


POWER_EXPONENTS = (1, 2, 3, 7, 169)
POWER_LENGTHS = (0, 1, 2, 5, 24, 127, 128, 129, 300)


def test_partition_powers_are_the_schoolbook_powers():
    # P(x)**c as c - 1 literal products of the partition list, against the
    # row of a fresh cache at each truncation
    parts = _reference_partitions(max(POWER_LENGTHS))
    power, c = parts, 1
    for exponent in POWER_EXPONENTS:
        while c < exponent:
            power, c = _dot_schoolbook(power, parts, len(parts) - 1), c + 1
        for m in POWER_LENGTHS:
            assert CountCache()._power_row(exponent, m)[: m + 1] == power[: m + 1], (exponent, m)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(POWER_EXPONENTS), st.integers(0, 200)), max_size=8))
def test_partition_powers_grown_in_any_order_are_a_fresh_build(requests):
    # rows grow by appending, each on its own: any order of requests on one
    # cache reads what a fresh cache builds at once
    grown = CountCache()
    for c, m in requests:
        assert grown._power_row(c, m)[: m + 1] == CountCache()._power_row(c, m)[: m + 1]
    for c, row in grown._powers.items():
        assert row == CountCache()._power_row(c, len(row) - 1)


@settings(max_examples=40, deadline=None)
@given(a=st.integers(1, 60), b=st.integers(1, 60), m=st.integers(0, 200))
def test_partition_powers_multiply_by_adding_exponents(a, b, m):
    cache = CountCache()
    product = _dot_schoolbook(cache._power_row(a, m), cache._power_row(b, m), m)
    assert cache._power_row(a + b, m)[: m + 1] == product


MULTIPARTITION_VALUES = {
    (1, 4): 5,
    (2, 2): 5,
    (3, 2): 9,
    (4, 2): 14,
    (6, 2): 27,
    (2, 3): 10,
    (3, 3): 22,
    (4, 3): 40,
    (9, 3): 255,
    (2, 4): 20,
    (5, 5): 506,
    (2, 12): 1165,
    (4, 12): 35693,
    (8, 12): 2418710,
}


def test_multipartition_count_values():
    for (s, t), value in MULTIPARTITION_VALUES.items():
        assert multipartition_count(s, t) == value


def test_multipartition_zero_colours():
    assert multipartition_count(0, 0) == 1
    assert multipartition_count(0, 3) == 0


def test_multipartition_base_cases():
    for s in range(1, 9):
        assert multipartition_count(s, 0) == 1
        assert multipartition_count(s, 1) == s


def test_closed_forms_small_sizes():
    from math import comb

    for s in range(1, 12):
        assert multipartition_count(s, 2) == s * (s + 3) // 2
        assert multipartition_count(s, 3) == s + s * s + comb(s + 2, 3)


@settings(max_examples=60, deadline=None)
@given(s=st.integers(1, 6), s2=st.integers(1, 6), n=st.integers(0, 25))
def test_colour_convolution(s, s2, n):
    lhs = multipartition_count(s + s2, n)
    rhs = sum(
        multipartition_count(s, t) * multipartition_count(s2, n - t)
        for t in range(n + 1)
    )
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(s=st.integers(3, 9), n=st.integers(0, 20))
def test_multipartition_upper_bound(s, n):
    # for three or more colours the count never beats the crude s**n bound
    # (false at s = 2: 5 tuples of total size 2); the closed defect bounds
    # lean on this with s a power of an odd prime
    assert multipartition_count(s, n) <= s**n


def test_p_ell_rejects_composites_and_negatives():
    with pytest.raises(ValueError):
        p_ell(4, 3)
    with pytest.raises(ValueError):
        p_ell(3, -1)


def test_p_ell_values():
    assert p_ell(2, 3) == 2
    assert p_ell(2, 10) == 14
    assert [p_ell(3, w) for w in range(7)] == [1, 1, 1, 2, 2, 2, 3]
    for ell in (3, 5, 7):
        assert p_ell(ell, 2 * ell) == 3


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
@pytest.mark.parametrize("w", [0, 1, 6, 49, 250])
def test_p_ell_row_is_the_p_ell_values(ell, w):
    expected = [CountCache().p_ell(ell, v) for v in range(w + 1)]
    assert CountCache().p_ell_row(ell, w) == expected
    grown = CountCache()
    grown.p_ell(ell, 3 * w + 7)
    assert grown.p_ell_row(ell, w) == expected
    assert p_ell_row(ell, w, grown) == expected


def test_p_ell_row_is_a_copy():
    cache = CountCache()
    row = cache.p_ell_row(3, 30)
    before = [cache.p_ell(3, v) for v in range(41)]
    row[:] = [-1] * len(row)
    row.append(-1)
    assert [cache.p_ell(3, v) for v in range(41)] == before
    assert cache.p_ell_row(3, 30) == before[:31]


@pytest.mark.parametrize("ell, w", [(4, 3), (1, 3), (0, 0), (3, -1), (2, -5)])
def test_p_ell_row_rejects_what_p_ell_rejects(ell, w):
    cache = CountCache()
    with pytest.raises(ValueError):
        cache.p_ell(ell, w)
    with pytest.raises(ValueError):
        cache.p_ell_row(ell, w)
    with pytest.raises(ValueError):
        p_ell_row(ell, w)


@settings(max_examples=30, deadline=None)
@given(ell=st.sampled_from([2, 3, 5]), w=st.integers(1, 400))
def test_p_ell_power_bound(ell, w):
    u = 0
    power = ell
    while power <= w:
        u += 1
        power *= ell
    assert p_ell(ell, w) <= ell ** (u * (u + 1) // 2)


def _ell_compositions(ell, w):
    # the literal reference for composition_sum: all tuples (w0, w1, ...)
    # with sum w_i * ell**i = w, trailing entry nonzero, sorted
    # lexicographically; the weight 0 has exactly the empty composition
    if w == 0:
        return [()]
    return [
        (head,) + tail
        for head in range(w % ell, w + 1, ell)
        for tail in _ell_compositions(ell, (w - head) // ell)
    ]


def test_ell_compositions_allows_two():
    # the reference works at 2; only the block sums are odd-only
    assert _ell_compositions(2, 3) == [(1, 1), (3,)]
    assert _ell_compositions(3, 3) == [(0, 1), (3,)]
    assert _ell_compositions(3, 2) == [(2,)]


def test_ell_compositions_listing():
    assert _ell_compositions(3, 0) == [()]
    assert _ell_compositions(3, 4) == [(1, 1), (4,)]
    comps6 = _ell_compositions(3, 6)
    # trailing entries nonzero, head determined mod ell, lexicographic
    assert comps6 == [(0, 2), (3, 1), (6,)]
    for comp in comps6:
        assert comp[-1] != 0
        weight = comp[0] + sum(c * 3**i for i, c in enumerate(comp) if i >= 1)
        assert weight == 6


@settings(max_examples=40, deadline=None)
@given(ell=st.sampled_from([3, 5, 7]), w=st.integers(0, 30))
def test_ell_composition_count_is_p_ell(ell, w):
    assert len(_ell_compositions(ell, w)) == p_ell(ell, w)


def test_composition_sum_matches_direct_expansion():
    total = composition_sum(3, 3, 2, 6)
    by_hand = sum(
        multipartition_count(3, comp[0]) * _tail_product(comp)
        for comp in _ell_compositions(3, 6)
    )
    assert total == by_hand


def _tail_product(comp):
    prod = 1
    for c in comp[1:]:
        prod *= multipartition_count(2, c)
    return prod


def _composition_walk(ell, head_colours, tail_colours, w):
    # the defining sum, one term per ell-composition of w
    total = 0
    for comp in _ell_compositions(ell, w):
        term = multipartition_count(head_colours, comp[0] if comp else 0)
        for wi in comp[1:]:
            term *= multipartition_count(tail_colours, wi)
        total += term
    return total


@settings(max_examples=60, deadline=None)
@given(
    ell=st.sampled_from([2, 3, 5, 7, 11]),
    head=st.integers(0, 12),
    tail=st.integers(0, 12),
    w=st.integers(0, 80),
)
def test_composition_sum_is_the_composition_walk(ell, head, tail, w):
    expected = _composition_walk(ell, head, tail, w)
    assert composition_sum(ell, head, tail, w, CountCache()) == expected
    assert composition_sum(ell, head, tail, w) == expected


def test_composition_sum_is_prefix_stable():
    # the tail series and rows only grow; a later, shorter request must read
    # the same values a fresh cache computes
    grown = CountCache()
    for ell, head, tail in ((3, 3, 2), (5, 7, 4), (2, 1, 1)):
        for w in (300, 7, 150):
            fresh = composition_sum(ell, head, tail, w, CountCache())
            assert composition_sum(ell, head, tail, w, grown) == fresh
    assert composition_sum(3, 3, 2, 7, grown) == _composition_walk(3, 3, 2, 7)


def test_shared_cache_growth():
    # tables only grow and keep their prefixes: one cache grown in any
    # query order must read what one serial cache computes
    queries = [
        (ell, head, tail, w)
        for ell in (2, 3)
        for head, tail in ((3, 2), (2, 1))
        for w in range(0, 400, 9)
    ]
    serial = CountCache()
    expected = {q: composition_sum(*q, serial) for q in queries}
    for seed in range(6):
        grown = CountCache()
        for q in random.Random(seed).sample(queries, len(queries)):
            assert composition_sum(*q, grown) == expected[q], (seed, q)


def test_composition_sum_rejects_bad_parameters():
    with pytest.raises(ValueError):
        composition_sum(9, 3, 2, 4)
    with pytest.raises(ValueError):
        composition_sum(3, 3, 2, -1)
    with pytest.raises(ValueError):
        composition_sum(3, -1, 2, 4)


K_ELL_VALUES = {
    (3, 1, 2): 9,
    (3, 1, 3): 24,
    (3, 2, 3): 261,
    (3, 2, 1): 9,
    (5, 1, 5): 510,
    (5, 1, 1): 5,
}


def test_k_ell_a_w_values():
    for (ell, a, w), value in K_ELL_VALUES.items():
        assert k_ell_a_w(ell, a, w) == value


def test_k_ell_a_w_rejects_even_prime():
    with pytest.raises(ValueError, match="odd prime"):
        k_ell_a_w(2, 1, 3)


def test_val_factorial():
    assert val_factorial(3, 9) == 4
    assert val_factorial(2, 10) == 8
    assert val_factorial(5, 4) == 0
    assert val_factorial(3, 0) == 0


@settings(max_examples=40, deadline=None)
@given(ell=st.sampled_from([2, 3, 5]), w=st.integers(1, 60))
def test_val_factorial_is_legendre_sum(ell, w):
    total = 0
    power = ell
    while power <= w:
        total += w // power
        power *= ell
    assert val_factorial(ell, w) == total


def _schoolbook(a, b, m):
    # the literal truncated product, every pair of terms once
    out = [0] * (m + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= m:
                out[i + j] += x * y
    return out


@st.composite
def _series(draw, lengths):
    # zeros, small and wide coefficients, all-zero input, and a stride
    # spread b(x**u)
    length = draw(lengths)
    coeffs = st.sampled_from([0, 1, 9, 10, 99]) | st.integers(0, 10**3) | st.integers(0, 10**40)
    kind = draw(st.sampled_from(["plain", "zero", "spread"]))
    if kind == "zero":
        return [0] * length
    if kind == "plain":
        return draw(st.lists(coeffs, min_size=length, max_size=length))
    u = draw(st.integers(2, 5))
    spread = [0] * length
    spread[::u] = draw(st.lists(coeffs, min_size=len(spread[::u]), max_size=len(spread[::u])))
    return spread


_ANY_LENGTH = st.sampled_from([0, 1, 2, 3, KRONECKER_MIN_LEN - 1, KRONECKER_MIN_LEN]) | (
    st.integers(0, KRONECKER_MIN_LEN + 60)
)
_LONG = st.integers(KRONECKER_MIN_LEN, KRONECKER_MIN_LEN + 60)


@settings(max_examples=60, deadline=None)
@given(a=_series(_ANY_LENGTH), b=_series(_ANY_LENGTH), data=st.data())
def test_mul_trunc_is_the_schoolbook_product(a, b, data):
    # m runs from truncation below both operand lengths to past the product
    m = data.draw(st.integers(0, len(a) + len(b) + 3))
    assert _mul_trunc(a, b, m) == _schoolbook(a, b, m)
    assert _mul_trunc(a, a, m) == _schoolbook(a, a, m)


@settings(max_examples=40, deadline=None)
@given(a=_series(_LONG), b=_series(_LONG), data=st.data())
def test_mul_trunc_packed_is_the_schoolbook_product(a, b, data):
    # both operands past the crossover, truncated at or above it
    m = data.draw(st.integers(KRONECKER_MIN_LEN - 1, len(a) + len(b) + 3))
    assert _mul_trunc(a, b, m) == _schoolbook(a, b, m)
    assert _mul_trunc(b, b, m) == _schoolbook(b, b, m)


@st.composite
def _shaped(draw, lengths):
    # shapes where the running maximum differs most from the plain maximum:
    # nondecreasing (partition powers), zero-led, zero-tailed and
    # stride-spread series
    length = draw(lengths)
    coeffs = st.integers(0, 10**3) | st.integers(0, 10**40)
    kind = draw(st.sampled_from(["nondecreasing", "zero_led", "zero_tailed", "spread"]))
    if kind == "nondecreasing":
        return sorted(draw(st.lists(coeffs, min_size=length, max_size=length)))
    if kind in ("zero_led", "zero_tailed"):
        zeros = draw(st.integers(0, length))
        body = draw(st.lists(coeffs, min_size=length - zeros, max_size=length - zeros))
        return [0] * zeros + body if kind == "zero_led" else body + [0] * zeros
    u = draw(st.integers(2, 5))
    spread = [0] * length
    spread[::u] = sorted(draw(st.lists(coeffs, min_size=len(spread[::u]), max_size=len(spread[::u]))))
    return spread


@settings(max_examples=60, deadline=None)
@given(a=_shaped(_LONG), b=_shaped(_LONG), data=st.data())
def test_mul_trunc_prefix_maximum_width_is_the_schoolbook_product(a, b, data):
    # m below, at and above the operand lengths and their product's length
    short, long = sorted((len(a), len(b)))
    m = data.draw(
        st.sampled_from([KRONECKER_MIN_LEN - 1, short - 1, short, long - 1, long, short + long - 2])
        | st.integers(KRONECKER_MIN_LEN - 1, short + long + 3)
    )
    assert _mul_trunc(a, b, m) == _schoolbook(a, b, m)
    assert _mul_trunc(a, a, m) == _schoolbook(a, a, m)


@settings(max_examples=60, deadline=None)
@given(a=_series(_ANY_LENGTH), b=_series(_ANY_LENGTH), data=st.data())
def test_slot_width_is_never_wider_than_the_untruncated_bound(a, b, data):
    # the operands as _mul_trunc hands them over: nonempty, truncated at m,
    # the shorter first
    m = data.draw(st.integers(0, len(a) + len(b) + 3))
    a, b = sorted((a[: m + 1] or [0], b[: m + 1] or [0]), key=len)
    bound = max(a) * max(b) * len(a)
    assert _slot_width(a, b, m) <= len(str(bound))
    assert (_slot_width(a, b, m) == 0) == (_schoolbook(a, b, m) == [0] * (m + 1))


@pytest.mark.parametrize("la", [1, 2, 127])
def test_mul_trunc_schoolbook_windows_are_the_schoolbook_product(la):
    # below the packing length, coefficient n is a dot product of the
    # shorter operand with a window of the longer one, which stops at its
    # first entry for n < la; m runs across la - 1, la, lb - 1, lb and the
    # end of the product. la = 1 is the product [1] * g that starts a fresh
    # closed-form row
    assert la < KRONECKER_MIN_LEN
    a = [3 * i + 1 for i in range(la)]
    for lb in sorted({la, la + 1, 150, 300}):
        b = [(7 * j) % 11 + 10**20 * (j % 3) for j in range(lb)]
        for m in sorted({0, la - 1, la, lb - 1, lb, la + lb - 2, la + lb + 3}):
            assert _mul_trunc(a, b, m) == _schoolbook(a, b, m)
            assert _mul_trunc(b, a, m) == _schoolbook(a, b, m)


def test_mul_trunc_front_loaded_operand_meets_the_end_of_the_longer():
    # a_0 pairs with b's last coefficient: past the end of b, the bound takes
    # b's maximum, not zero
    a = [10**6] + [0] * (KRONECKER_MIN_LEN + 10)
    b = list(range(1, KRONECKER_MIN_LEN + 60))
    for m in (len(b) - 1, len(b), len(a) + len(b)):
        assert _mul_trunc(a, b, m) == _schoolbook(a, b, m)


def test_mul_trunc_slot_width_is_tight():
    # the coefficient at degree len - 1 equals the bound max(a) * max(b) * len
    # that sets the slot width, so a slot one digit narrower would carry
    # into the next one
    for length, x, y in ((KRONECKER_MIN_LEN, 5, 1), (200, 5, 1), (250, 4, 10**6), (400, 1, 25)):
        a, b = [x] * length, [y] * length
        m = 2 * length
        product = _mul_trunc(a, b, m)
        assert product[length - 1] == x * y * length
        assert product == _schoolbook(a, b, m)
        width = _slot_width(a, b, m)
        assert width == len(str(x * y * length))
        assert _kronecker(a, b, m, width - 1) != _schoolbook(a, b, m)
    assert _mul_trunc([1, 2], [3], 0) == [3]
    assert _mul_trunc([2], [3, 4], 3) == [6, 8, 0, 0]
    assert _mul_trunc([], [1, 2], 2) == [0, 0, 0]


def test_mul_trunc_wide_coefficients_take_the_schoolbook_loop(monkeypatch):
    # a bound past the int/str conversion limit (4,300 digits by default)
    # must neither pack nor raise the limit
    def refuse(*args):
        raise AssertionError("the kernel must not pack or change the limit")

    monkeypatch.setattr(counting, "_kronecker", refuse)
    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
    wide = 10**4400
    a = [wide + i for i in range(KRONECKER_MIN_LEN + 5)]
    b = [i % 3 for i in range(KRONECKER_MIN_LEN + 2)]
    m = KRONECKER_MIN_LEN + 50
    got, want = _mul_trunc(a, b, m), _schoolbook(a, b, m)
    # a failure report could not print coefficients past the limit, so it
    # names the lengths and the first index that differs
    first_difference = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), None)
    assert (len(got), first_difference) == (len(want), None)


def _recurrence_row(s, t):
    # the divisor-sum recurrence term by term, with trial-division sigma
    sigma = [0] + [sum(i for i in range(1, n + 1) if n % i == 0) for n in range(1, t + 1)]
    row = [1]
    for n in range(1, t + 1):
        acc = sum(sigma[j] * row[n - j] for j in range(1, n + 1))
        row.append(exact_div(s * acc, n))
    return row


def test_tuple_row_is_the_recurrence():
    for s in (1, 2, 3, 7):
        assert CountCache()._euler_row(PLAIN, s, 600)[:601] == _recurrence_row(s, 600)


def test_tuple_row_is_prefix_stable():
    # rows grow by the online convolution from wherever they stopped; one
    # cache grown step by step must hold what fresh caches compute
    grown = CountCache()
    for s in (2, 3):
        for t in (0, 233, 700, 1500):
            fresh = CountCache()._euler_row(PLAIN, s, t)
            assert grown._euler_row(PLAIN, s, t)[: t + 1] == fresh[: t + 1]
    assert grown._euler_row(PLAIN, 3, 1500)[:601] == _recurrence_row(3, 600)


def _stride_tail(ell, t, n):
    # the tail series by its stride recurrence, C_t(x) = K_t(x) C_t(x**ell):
    # c_t(0) = 1, c_t(m) = sum_{j <= m/ell} k(t, m - ell j) c_t(j)
    row = _recurrence_row(t, n)
    series = [1]
    for m in range(1, n + 1):
        series.append(sum(row[m - ell * j] * series[j] for j in range(m // ell + 1)))
    return series


@pytest.mark.parametrize("ell", [3, 5, 7])
@pytest.mark.parametrize("t", [0, 1, 2, 6])
def test_tail_series_is_the_stride_recurrence(ell, t):
    # lengths either side of KRONECKER_MIN_LEN, where the online convolution
    # first splits, past one doubling, where its cross product packs, and
    # at a power of ell, the last term of the twisted divisor sum
    expected = _stride_tail(ell, t, 343)
    for n in (127, 128, 129, 257, ell**3):
        assert CountCache()._euler_row(ell, t, n)[: n + 1] == expected[: n + 1]
        grown = CountCache()
        grown._euler_row(ell, t, n // 3)
        assert grown._euler_row(ell, t, n)[: n + 1] == expected[: n + 1]


def test_sigma_sieve_is_prefix_stable():
    grown = CountCache()
    for n in (0, 1, 2, 17, 18, 100, 257):
        grown._extend_sigma(n)
    expected = [0] + [sum(i for i in range(1, n + 1) if n % i == 0) for n in range(1, 258)]
    assert grown._sigma == expected


GMPN_VALUES = {
    (2, 2, 2): 4,
    (4, 2, 2): 10,
    (2, 2, 4): 13,
    (6, 2, 2): 18,
    (4, 1, 2): 14,
    (2, 1, 2): 5,
}


def test_gmpn_irr_count_values():
    for (m, p, n), value in GMPN_VALUES.items():
        assert gmpn_irr_count(m, p, n) == value
    for d in range(1, 7):
        assert gmpn_irr_count(2 * d, 2, 1) == d
    assert gmpn_irr_count(4, 2, 0) == 1


def test_gmpn_irr_count_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gmpn_irr_count(3, 2, 2)  # p = 2 needs even m
    with pytest.raises(ValueError):
        gmpn_irr_count(4, 3, 2)  # only p = 1 and p = 2 are implemented


def test_private_cache_matches_shared():
    cache = CountCache()
    assert cache.multipartition_count(8, 12) == 2418710
    assert cache.p_ell(3, 12) == p_ell(3, 12)
