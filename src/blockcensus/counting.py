"""Exact counting kernel: partitions, coloured partitions, prime-power
compositions and the composition sums that drive the block bookkeeping.

Everything is plain Python int arithmetic, so nothing overflows. The few
divisions performed along the way are provably exact for valid parameters
and are checked at runtime; an inexact division signals a transcription bug
upstream, not a rounding concern.

The closed form grows all its series by one recurrence: a coloured-partition
row K_s = P(x)**s and a tail series prod_j K_t(x**(ell**j)) are both Euler
products, built from their divisor-sum sequence g by one online convolution
(CountCache._euler_row). Both census paths take their long series products
from one kernel, _mul_trunc: the closed form inside that convolution, the
slot path for its partition powers and folds. The kernel is an input both
paths share, like slots.slot_denominator, so the two-path check cannot
cover it; tests/test_counting.py pins it against a literal schoolbook
product.
"""

from __future__ import annotations

import functools
import itertools
import operator

__all__ = [
    "CountCache",
    "shared_cache",
    "exact_div",
    "is_prime",
    "partition_count",
    "multipartition_count",
    "p_ell",
    "p_ell_row",
    "composition_sum",
    "k_ell_a_w",
    "val_factorial",
    "gmpn_irr_count",
]


def exact_div(num: int, den: int) -> int:
    """Integer division that insists on a zero remainder."""
    quot, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"division is not exact: {num} / {den}")
    return quot


# Operand length from which _mul_trunc packs instead of looping. On
# partition-number series (Python 3.11, x86_64) the decimal product passed
# the schoolbook loop between lengths 100 and 200.
KRONECKER_MIN_LEN = 128

# The ell at which CountCache._euler_row grows the plain row K_s = P(x)**s:
# its loop over the powers of ell stops at once (at 1 it would never stop).
PLAIN = 0


def _mul_trunc(a: list[int], b: list[int], m: int) -> list[int]:
    """Coefficients 0..m of the product of two series with nonnegative
    integer coefficients; a series is zero past its end.

    Short operands take the schoolbook loop. Long ones are multiplied by
    Kronecker substitution: each series is written as one decimal integer
    with a fixed-width slot per coefficient, so the slots of the integer
    product are the coefficients of the series product. libmpdec
    multiplies long operands by a number-theoretic transform. The slot
    width (_slot_width) bounds every coefficient that is read, 0..m, not
    those past m: a slot past m may overflow, but a carry only moves to
    higher slots, so the slots read from the low end stay exact. The
    width is checked against the int/str conversion limit
    (sys.get_int_max_str_digits), and wider coefficients take the
    schoolbook loop, so the limit is never changed.
    """
    square = a is b
    a = a[: m + 1]
    b = a if square else b[: m + 1]
    if len(a) > len(b):
        a, b = b, a
    la, lb = len(a), len(b)
    if la >= KRONECKER_MIN_LEN:
        try:
            width = _slot_width(a, b, m)
        except ValueError:  # wider than the int/str conversion limit
            pass
        else:
            if not width:
                return [0] * (m + 1)
            return _kronecker(a, b, m, width)
    rb = b[::-1]
    out = [sum(map(operator.mul, a, b[n::-1])) for n in range(min(m + 1, lb))]
    out += [
        sum(map(operator.mul, a[n - lb + 1 :], rb))
        for n in range(lb, min(m + 1, la + lb - 1))
    ]
    return out + [0] * (m + 1 - len(out))


def _slot_width(a: list[int], b: list[int], m: int) -> int:
    """Decimal digits of a bound on the coefficients 0..m of a * b, or 0 if
    they are all zero; a and b are nonempty, truncated at m and
    len(a) <= len(b). Raises ValueError past the int/str conversion limit.

    With B* the running maximum of b (B*_j = max(b) from the end of b on)
    and top = min(m, len(a) + len(b) - 2), the coefficient c_n with
    n <= top is a sum of at most min(len(a), top + 1) terms a_i b_(n-i),
    each at most a_i B*_(top-i) since B* never decreases. Never above
    max(a) * max(b) * len(a), and equal to it when the maxima come first."""
    la, lb = len(a), len(b)
    top = min(m, la + lb - 2)
    reach = min(la - 1, top)  # the largest i with a term a_i b_(n-i)
    prefix = b[: top + 1]
    # a nondecreasing series, such as a partition power, is its own running
    # maximum; the check stops at the first descent
    if not all(map(operator.le, prefix, prefix[1:])):
        prefix = list(itertools.accumulate(prefix, max))
    # B*_(top-reach), ..., B*_top, paired in reverse with a_0, ..., a_reach
    high = prefix[top - reach :] + [prefix[-1]] * (top + 1 - lb)
    peak = max(map(operator.mul, a, reversed(high)))  # stops after a_reach
    return len(str(min(la, top + 1) * peak)) if peak else 0


def _kronecker(a: list[int], b: list[int], m: int, width: int) -> list[int]:
    # imported here, so runs whose products stay short never load decimal
    import decimal

    context = decimal.Context(
        prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN
    )
    slot = f"%0{width}d".__mod__
    packed_a = decimal.Decimal("".join(map(slot, reversed(a))))
    packed_b = packed_a if b is a else decimal.Decimal("".join(map(slot, reversed(b))))
    count = min(m + 1, len(a) + len(b) - 1)
    digits = str(context.multiply(packed_a, packed_b)).rjust(count * width, "0")
    # the coefficient of x**n ends n * width digits from the right
    end = len(digits)
    out = [int(digits[i - width : i]) for i in range(end, end - count * width, -width)]
    return out + [0] * (m + 1 - count)


@functools.lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Trial division, memoised: a sweep asks about the same primes per row."""
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _require_prime(ell: int) -> None:
    if not is_prime(ell):
        raise ValueError(f"expected a prime, got {ell}")


def _require_odd_prime(ell: int) -> None:
    _require_prime(ell)
    if ell == 2:
        raise ValueError("parameter must be an odd prime, got 2")


class CountCache:
    """Memo tables shared by the counting functions.

    Tables: the partition numbers, the divisor sums sigma(n), the
    ell-power partition counts p_ell(ell, 0..) in _p_ell_tables, one table
    per prime, and one Euler-product series per (ell, s), which is the
    coloured-partition row k(s, 0..) at ell = PLAIN and the tail series
    c_s(0..) of composition_sum at a prime ell. The slot path owns two
    more: one series per (ell, a, denom), the slot product that
    slots.block_count_proof_path reads its counts from, and in _powers one
    partition power P(x)**c per exponent c, which only
    slots._partition_power reads, so slot keys that need the same power
    share it. Nothing in the closed-form path reads either, and the slot
    path reads neither the sigma table nor the coloured-partition rows.
    Every table only grows, and a fresh cache recomputes identical values,
    so a longer table never changes an entry already read. The slot series
    and the partition powers grow by replacement with a longer list, the
    others by appending.

    A cache is single-threaded: a table is extended in place with no lock.
    A program that counts from several threads gives each thread its own
    CountCache, since every cache=None call reads shared_cache.
    """

    def __init__(self) -> None:
        self._partitions: list[int] = [1]
        self._sigma: list[int] = [0]  # divisor sums, index 0 unused
        self._series: dict[tuple[int, int], list[int]] = {}
        self._p_ell_tables: dict[int, list[int]] = {}
        self._slots: dict[tuple[int, int, int], list[int]] = {}
        self._powers: dict[int, list[int]] = {}

    def partition_count(self, t: int) -> int:
        """Number of partitions of t, by the pentagonal-number recurrence."""
        if t < 0:
            raise ValueError("partition size must be >= 0")
        parts = self._partitions
        if t < len(parts):
            return parts[t]
        for n in range(len(parts), t + 1):
            acc = 0
            k = 1
            while True:
                g = k * (3 * k - 1) // 2
                if g > n:
                    break
                sign = 1 if k % 2 else -1
                acc += sign * parts[n - g]
                g += k
                if g <= n:
                    acc += sign * parts[n - g]
                k += 1
            parts.append(acc)
        return parts[t]

    def _extend_sigma(self, n: int) -> None:
        # a sieve adds each i to its multiples in the new range len(sig)..n
        sig = self._sigma
        start = len(sig)
        if n < start:
            return
        new = [0] * (n + 1 - start)
        for i in range(1, n + 1):
            for j in range(-(-start // i) * i - start, len(new), i):
                new[j] += i
        sig.extend(new)

    def _euler_row(self, ell: int, s: int, n: int) -> list[int]:
        """The series C(0..) = prod_{j>=0} K_s(x**(ell**j)) with
        K_s = P(x)**s, holding at least n + 1 entries; ell is a prime or
        PLAIN, for which the product is the row K_s alone.

        n C(n) = sum_{1 <= k <= n} g(k) C(n - k), with
        g(k) = s sum_{ell**j | k} ell**j sigma(k / ell**j) (the logarithmic
        derivative, since x P'/P = sum sigma(k) x**k). A series that is too
        short grows to at least twice its length, so a sweep of ascending n
        extends it O(log n) times. The part of each new n C(n) due to the
        entries already held is taken first, by one product; _online_row
        then appends the rest in order."""
        row = self._series.setdefault((ell, s), [1])
        start = len(row)
        if n < start:
            return row
        n = max(n, 2 * start)
        self._extend_sigma(n)
        sig = self._sigma
        g = [s * x for x in sig[: n + 1]]
        power = ell
        while 1 < power <= n:  # PLAIN adds no term
            for k in range(power, n + 1, power):
                g[k] += s * power * sig[k // power]
            power *= ell
        h = _mul_trunc(row, g, n)[start:]
        _online_row(row, g, h, start, start, n + 1)
        return row

    def multipartition_count(self, s: int, t: int) -> int:
        """Number of s-tuples of partitions whose sizes sum to t.

        The row for colour count s is the coefficient sequence of the s-th
        power of the partition generating function, extended through
        n * k(s, n) = s * sum_{j<=n} sigma(j) * k(s, n - j); the division by
        n is exact. The empty-tuple conventions k(0, 0) = 1 and k(0, t) = 0
        for t > 0 keep the convolution identities valid at the boundary.
        """
        if s < 0 or t < 0:
            raise ValueError("colour count and size must be >= 0")
        if s == 0:
            return 1 if t == 0 else 0
        return self._euler_row(PLAIN, s, t)[t]

    def _slot_series(self, key: tuple[int, int, int], n: int, build) -> list[int]:
        """The slot path's series for key, holding at least n + 1 entries.

        build(budget) returns the series truncated at budget. A missing or
        shorter entry is replaced by build(max(n, 2 * len)), so a sweep of
        ascending n rebuilds it O(log n) times; an entry is never changed
        after it is stored."""
        return _grown(self._slots, key, n, build)

    def _power_series(self, c: int, n: int, build) -> list[int]:
        """P(x)**c, holding at least n + 1 entries, for the slot path's
        slots._partition_power; grown as _slot_series grows its series."""
        return _grown(self._powers, c, n, build)

    def p_ell(self, ell: int, w: int) -> int:
        """Number of ways to write w as an ordered sum of ell-power levels.

        Counts the tuples (w0, w1, ...) with sum w_i * ell**i = w, equal to
        the number of partitions of w into ell-power parts.
        """
        return self._p_ell_table(ell, w)[w]

    def p_ell_row(self, ell: int, w: int) -> list[int]:
        """A new list holding p_ell(ell, 0..w), read from the same table."""
        return self._p_ell_table(ell, w)[: w + 1]

    def _p_ell_table(self, ell: int, w: int) -> list[int]:
        """The p_ell table for ell, holding at least w + 1 entries. Table
        recurrence: drop to w - 1 unless ell divides w, in which case one
        extra family arrives from w // ell."""
        _require_prime(ell)
        if w < 0:
            raise ValueError("weight must be >= 0")
        tab = self._p_ell_tables.setdefault(ell, [1])
        for n in range(len(tab), w + 1):
            val = tab[n - 1]
            if n % ell == 0:
                val += tab[n // ell]
            tab.append(val)
        return tab


def _grown(table: dict, key, n: int, build) -> list[int]:
    # replaces a missing or shorter entry by build(max(n, 2 * len))
    series = table.get(key)
    if series is None or n >= len(series):
        series = build(max(n, 2 * len(series)) if series else n)
        table[key] = series
    return series


def _online_row(
    row: list[int], g: list[int], h: list[int], base: int, lo: int, hi: int
) -> None:
    """Append C(lo..hi-1) to row, which holds C(0..lo-1), where
    n C(n) = sum_{1 <= k <= n} g(k) C(n - k) and g(0) is unused.

    h[n - base] holds the part of n C(n) due to C(i) for i < lo. Divide and
    conquer (an online convolution, after van der Hoeven, "Relax, but don't
    be too lazy", 2002): finish the left half, add its contribution to the
    right half with one product, then finish the right half. Every division
    by n is checked.
    """
    if hi - lo <= KRONECKER_MIN_LEN:
        for n in range(lo, hi):
            # g[n - lo:0:-1] is g(n - lo), ..., g(1), against C(lo..n-1)
            acc = h[n - base] + sum(map(operator.mul, g[n - lo : 0 : -1], row[lo:n]))
            row.append(exact_div(acc, n))
        return
    mid = (lo + hi) // 2
    _online_row(row, g, h, base, lo, mid)
    cross = _mul_trunc(row[lo:mid], g[: hi - lo], hi - lo - 1)
    for n in range(mid, hi):
        h[n - base] += cross[n - lo]
    _online_row(row, g, h, base, mid, hi)


shared_cache = CountCache()


def partition_count(t: int, cache: CountCache | None = None) -> int:
    return (cache or shared_cache).partition_count(t)


def multipartition_count(s: int, t: int, cache: CountCache | None = None) -> int:
    return (cache or shared_cache).multipartition_count(s, t)


def p_ell(ell: int, w: int, cache: CountCache | None = None) -> int:
    return (cache or shared_cache).p_ell(ell, w)


def p_ell_row(ell: int, w: int, cache: CountCache | None = None) -> list[int]:
    return (cache or shared_cache).p_ell_row(ell, w)


def composition_sum(
    ell: int,
    head_colours: int,
    tail_colours: int,
    w: int,
    cache: CountCache | None = None,
) -> int:
    """Sum over the ell-compositions (w0, w1, ...) of w of
    k(head_colours, w0) * prod_{i>=1} k(tail_colours, wi).

    This is the common shape of every closed-form block count in this
    package; only the two colour counts vary by family.

    The compositions are not enumerated. Grouping them by
    v = w1 + ell*w2 + ell**2*w3 + ... leaves a tail (w1, w2, ...) that is
    itself an ell-composition of v, so with h, t the two colour counts

        composition_sum(ell, h, t, w) = sum_{v=0}^{w // ell} k(h, w - ell v) c_t(v),

    where c_t(n) is the coefficient of x**n in C_t(x), the Euler product
    prod_{i>=0} K_t(x**(ell**i)) with K_t(x) = sum_n k(t, n) x**n = P(x)**t, so
    n c_t(n) = sum_{1 <= k <= n} g(k) c_t(n - k) with
    g(k) = t sum_{ell**j | k} ell**j sigma(k / ell**j); the row k(h, .) is
    the case with only j = 0. Neither series depends on w, so the cache
    keeps each as a grow-only table (CountCache._euler_row).
    """
    _require_prime(ell)
    if w < 0:
        raise ValueError("weight must be >= 0")
    if head_colours < 0 or tail_colours < 0:
        raise ValueError("colour counts must be >= 0")
    cache = cache or shared_cache
    head = cache._euler_row(PLAIN, head_colours, w)
    tails = cache._euler_row(ell, tail_colours, w // ell)
    # head[w::-ell] is k(h, w), k(h, w - ell), ...: w // ell + 1 terms
    return sum(map(operator.mul, head[w::-ell], tails))


def colour_counts(ell: int, a: int, denom: int) -> tuple[int, int]:
    """The head and tail colour counts of a weight-w unipotent block,
    denom + (ell**a - 1)/denom and (ell**a - ell**(a-1))/denom, with denom
    the slot denominator of its family (slots.slot_denominator)."""
    head = denom + exact_div(ell**a - 1, denom)
    tail = exact_div(ell**a - ell ** (a - 1), denom)
    return head, tail


def k_ell_a_w(ell: int, a: int, w: int, cache: CountCache | None = None) -> int:
    """Weighted composition sum with colour counts ell**a and
    ell**a - ell**(a-1), colour_counts at denom 1; the baseline count for
    weight-w blocks when the relevant cyclotomic parameter is 1."""
    _require_odd_prime(ell)
    if a < 1:
        raise ValueError("a must be >= 1")
    return composition_sum(ell, *colour_counts(ell, a, 1), w, cache)


def val_factorial(ell: int, w: int) -> int:
    """ell-adic valuation of w!, by the floor-sum formula."""
    _require_prime(ell)
    if w < 0:
        raise ValueError("w must be >= 0")
    total = 0
    power = ell
    while power <= w:
        total += w // power
        power *= ell
    return total


def gmpn_irr_count(m: int, p: int, n: int, cache: CountCache | None = None) -> int:
    """Number of irreducible characters of the monomial reflection group
    G(m, p, n), for p in {1, 2}.

    For p = 1 this is the coloured-partition count k(m, n). For p = 2 (m
    even) the index-two restriction splits exactly the self-paired labels:
    with s = k(m // 2, n // 2) for even n (0 for odd n), the count is
    (k(m, n) - s) / 2 + 2 s. The zero-rank group is trivial.
    """
    cache = cache or shared_cache
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    if p == 1:
        return cache.multipartition_count(m, n)
    if p != 2:
        raise ValueError("only p in {1, 2} is supported")
    if m % 2:
        raise ValueError("p = 2 requires m even")
    if n == 0:
        return 1
    full = cache.multipartition_count(m, n)
    selfpaired = cache.multipartition_count(m // 2, n // 2) if n % 2 == 0 else 0
    return exact_div(full - selfpaired, 2) + 2 * selfpaired
