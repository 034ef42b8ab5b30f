"""Slot calculus for classes of elements of odd prime-power order in
finite classical matrix groups.

Eigenvalues of such an element are roots of unity of ell-power order. The
Frobenius orbits of those roots fall into levels by the valuation of the
root's order, and every orbit at a given level consumes the same amount of
the available rank ("weight") per multiplicity step. An inventory records
how many interchangeable orbit slots exist per level and what centraliser
factor one unit of multiplicity produces. Distributing a weight budget over
the slots then reproduces, purely combinatorially, both the class counts
and the character counts that the closed block formulas predict, which
makes this module the independent second route used for cross-checking.

The counting routines never enumerate weight vectors. A class of c slots at
unit weight u contributes the factor P(x**u)**c, with P the partition
generating function, and the principal factor is P(x)**weyl_base. The
principal factor and the base classes all sit at u = 1, so together they
contribute one power of P, taken by repeated squaring of the truncated
partition series and kept in the cache per exponent, so slot series that
need the same power share it. The deep classes share one count c at the
unit weights ell, ell**2, ..., so together they contribute D(x**ell), where
D(y) = P(y)**c * D(y**ell) is self-similar: D is built at budget // ell by
one truncated product per level, each level ell times shorter than the
last, with no stride loop. One product joins the two.
The route is independent of the closed formulas in the blocks module: it
uses only partition numbers and truncated products, never the divisor-sum
(sigma) recurrence of the coloured-partition rows nor the composition tail
series. Its long products go through counting._mul_trunc, the kernel the
closed form also uses; like slot_denominator, that shared input is pinned
by its own test rather than by the two-path check.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .counting import (
    CountCache,
    _mul_trunc,
    exact_div,
    is_prime,
    shared_cache,
)

LINEAR = "linear"
UNITARY = "unitary"
SYMPLECTIC = "symplectic"
EVEN_ORTHOGONAL = "even_orthogonal"

INVENTORY_FAMILIES = (LINEAR, UNITARY, SYMPLECTIC, EVEN_ORTHOGONAL)

__all__ = [
    "LINEAR",
    "UNITARY",
    "SYMPLECTIC",
    "EVEN_ORTHOGONAL",
    "INVENTORY_FAMILIES",
    "SlotClass",
    "SlotInventory",
    "WeightVector",
    "dprime_of",
    "slot_denominator",
    "CentralizerShape",
    "build_inventory",
    "enumerate_weight_vectors",
    "centralizer_shape",
    "unipotent_block_count",
    "block_count_proof_path",
    "eL_series_total",
    "general_linear_order",
]


def general_linear_order(rank: int, size: int) -> int:
    """Order of the invertible rank x rank matrices over a field of the
    given size; the empty (rank 0) group has order 1."""
    if rank < 0 or size < 2:
        raise ValueError("need rank >= 0 and size >= 2")
    total = 1
    top = size**rank
    for i in range(rank):
        total *= top - size**i
    return total


class _SlotClassFields(NamedTuple):
    level: int
    slot_count: int
    unit_weight: int
    factor_kind: str
    degree_multiplier: int


class SlotClass(_SlotClassFields):
    """One batch of interchangeable slots.

    level is the valuation bucket of the root orders (levels 1..a sit at
    unit weight 1, level a+j costs ell**j per multiplicity). factor_kind and
    degree_multiplier describe the centraliser factor contributed by one
    slot of this class: a linear or unitary matrix group over the extension
    of the listed degree.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.slot_count < 1:
            raise ValueError("slot_count must be >= 1")
        if self.unit_weight < 1:
            raise ValueError("unit_weight must be >= 1")
        return self


class SlotInventory(NamedTuple):
    family: str
    ell: int
    d: int
    dprime: int
    a: int
    denom: int
    weyl_base: int

    def _factor_descriptor(self, level_scale: int) -> tuple[str, int]:
        if self.family in (LINEAR, UNITARY):
            return self.family, self.d * level_scale
        # symplectic and even orthogonal pair the slots; an odd order
        # parameter keeps linear factors of full degree, an even one
        # produces unitary factors over the half-degree extension.
        if self.d % 2:
            return LINEAR, self.d * level_scale
        return UNITARY, self.dprime * level_scale

    def _level_count(self, i: int) -> int:
        # slots at level i <= a; every deep level holds the level-a count
        return exact_div(self.ell**i - self.ell ** (i - 1), self.denom)

    def base_slots(self) -> tuple[SlotClass, ...]:
        """Slot classes at levels 1..a, all of unit weight 1."""
        out = []
        for i in range(1, self.a + 1):
            count = self._level_count(i)
            kind, degree = self._factor_descriptor(1)
            out.append(SlotClass(i, count, 1, kind, degree))
        return tuple(out)

    def deep_slots(self, budget: int) -> tuple[SlotClass, ...]:
        """Slot classes at levels a+j whose unit weight ell**j still fits
        into the budget; deeper levels cannot receive any multiplicity."""
        out = []
        ell = self.ell
        count = self._level_count(self.a)
        j = 1
        while ell**j <= budget:
            kind, degree = self._factor_descriptor(ell**j)
            out.append(SlotClass(self.a + j, count, ell**j, kind, degree))
            j += 1
        return tuple(out)

    def slot_classes(self, budget: int) -> tuple[SlotClass, ...]:
        return self.base_slots() + self.deep_slots(budget)


def dprime_of(d: int) -> int:
    """d' = d / gcd(d, 2): d for odd d, d / 2 for even d."""
    return d // math.gcd(d, 2)


def slot_denominator(family: str, d: int) -> int:
    """Divisor of the slot counts: d for the linear and unitary families,
    2d' otherwise. It divides ell - 1 for odd ell whenever d does."""
    if family not in INVENTORY_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return d if family in (LINEAR, UNITARY) else 2 * dprime_of(d)


@functools.lru_cache(maxsize=None)
def build_inventory(family: str, ell: int, d: int, a: int) -> SlotInventory:
    """Construct the slot inventory for one family and ell-adic profile.

    d is the relevant cyclotomic order parameter (for the unitary family it
    should already be the twisted one). Requires odd prime ell, a >= 1 and
    d | ell - 1 so that every slot-count division is exact. Memoised: the
    inventory is frozen and depends on the arguments alone, and a census
    asks for the same one at every weight.
    """
    denom = slot_denominator(family, d)  # rejects an unknown family
    if not is_prime(ell):
        raise ValueError(f"ell must be prime, got {ell}")
    if ell == 2:
        raise ValueError("ell = 2 is not supported: the slot formulas require odd ell")
    if a < 1:
        raise ValueError("a must be >= 1")
    if d < 1 or (ell - 1) % d:
        raise ValueError(f"order parameter d={d} must divide ell-1={ell - 1}")
    return SlotInventory(family, ell, d, dprime_of(d), a, denom, weyl_base=denom)


class WeightVector(NamedTuple):
    """One distribution of the weight budget: what stays on the principal
    slot plus a multiplicity tuple per slot class (one entry per slot)."""

    principal: int
    mults: tuple[tuple[int, ...], ...]


def _occupancy_vectors(count: int, unit_weight: int, budget: int):
    if count == 0:
        yield ()
        return
    for first in range(budget // unit_weight + 1):
        for rest in _occupancy_vectors(count - 1, unit_weight, budget - first * unit_weight):
            yield (first,) + rest


def _distributions(classes: tuple[SlotClass, ...], idx: int, remaining: int):
    if idx == len(classes):
        if remaining == 0:
            yield ()
        return
    cls = classes[idx]
    for occ in _occupancy_vectors(cls.slot_count, cls.unit_weight, remaining):
        used = sum(occ) * cls.unit_weight
        for tail in _distributions(classes, idx + 1, remaining - used):
            yield (occ,) + tail


def enumerate_weight_vectors(inv: SlotInventory, w: int):
    """Yield every weight vector of total weight w exactly once.

    Order is deterministic: principal weight descending, then slot
    multiplicities lexicographically (by level, then slot position). Meant
    for desk-scale budgets; the counting routines below never materialize
    this stream.
    """
    if w < 0:
        raise ValueError("weight must be >= 0")
    classes = inv.slot_classes(w)
    for principal in range(w, -1, -1):
        for mults in _distributions(classes, 0, w - principal):
            yield WeightVector(principal, mults)


class CentralizerShape(NamedTuple):
    """Factorized centraliser type attached to one weight vector: a list of
    (kind, rank, field degree multiplier) triples, principal factor first."""

    factors: tuple[tuple[str, int, int], ...]

    def linear_order(self, q: int) -> int:
        total = 1
        for kind, rank, degree in self.factors:
            if kind != LINEAR:
                raise ValueError("order computation is only wired up for linear factors")
            total *= general_linear_order(rank, q**degree)
        return total


def centralizer_shape(inv: SlotInventory, vec: WeightVector, w: int, r: int = 0) -> CentralizerShape:
    """Shape of the centraliser for one weight vector.

    The principal factor has rank d*principal + r where r is the leftover
    rank not divisible by d (nonzero only when the ambient rank is not a
    multiple of d). Slots with multiplicity zero contribute nothing.
    """
    classes = inv.slot_classes(w)
    factors = [(inv.family, inv.d * vec.principal + r, 1)]
    for cls, occ in zip(classes, vec.mults):
        for m in occ:
            if m:
                factors.append((cls.factor_kind, m, cls.degree_multiplier))
    return CentralizerShape(tuple(factors))


def unipotent_block_count(
    inv: SlotInventory, vec: WeightVector, cache: CountCache | None = None
) -> int:
    """Character contribution of one weight vector to the principal-slot
    block: the relative Weyl group count on the principal weight times one
    partition count per occupied slot."""
    cache = cache or shared_cache
    total = cache.multipartition_count(inv.weyl_base, vec.principal)
    for occ in vec.mults:
        for m in occ:
            total *= cache.partition_count(m)
    return total


def _partition_power(c: int, m: int, cache: CountCache) -> list[int]:
    """P(x)**c truncated at degree m, for c >= 1, where
    P(x) = sum_v p(v) x**v is the partition generating function.

    Read from the cache's table of partition powers, so slot keys that need
    the same power share one series; a missing or shorter power is built
    by repeated squaring. The copy stops at m: a slot series is read to its
    full length, and past its budget it lacks the deep factor."""
    return cache._power_series(c, m, lambda top: _squared_power(c, top, cache))[: m + 1]


def _squared_power(c: int, m: int, cache: CountCache) -> list[int]:
    base = [cache.partition_count(v) for v in range(m + 1)]
    power = None
    while True:
        if c & 1:
            power = base if power is None else _mul_trunc(power, base, m)
        c >>= 1
        if not c:
            return power
        base = _mul_trunc(base, base, m)


def _spread(series: list[int], u: int, m: int) -> list[int]:
    """Coefficients 0..m of series(x**u); series holds at least m // u + 1."""
    out = [0] * (m + 1)
    out[::u] = series[: m // u + 1]
    return out


def _deep_factor(power: list[int], ell: int, n: int) -> list[int]:
    """Coefficients 0..n of D(y) = prod_{j >= 0} P(y**(ell**j))**c, where
    power holds P(y)**c through at least degree n.

    D(y) = P(y)**c * D(y**ell), and D(y**ell) agrees with 1 below degree
    ell, so D at n is one product against D at n // ell, spread, down to
    n < ell, where D is P(y)**c itself."""
    if n < ell:
        return power[: n + 1]
    return _mul_trunc(power, _spread(_deep_factor(power, ell, n // ell), ell, n), n)


def _slot_product(
    inv: SlotInventory, principal: int, budget: int, cache: CountCache
) -> list[int]:
    """Coefficients 0..budget of P(x)**principal times the product over
    inv.slot_classes(budget) of P(x**u)**c, for c slots at unit weight u.

    The principal factor and the base classes all sit at u = 1, so together
    they contribute one partition power, to principal plus their total slot
    count. The deep class at level a + j holds the level-a count c at
    u = ell**j, so together the deep classes contribute D(x**ell) with
    D(y) = prod_{j >= 0} P(y**(ell**j))**c, a series that _deep_factor builds
    from its own self-similarity at budget // ell. One product folds it into
    the base power."""
    count = principal + sum(cls.slot_count for cls in inv.base_slots())
    series = _partition_power(count, budget, cache)
    deep = inv.deep_slots(budget)
    if deep:
        ell, n = inv.ell, budget // inv.ell
        power = _partition_power(deep[0].slot_count, n, cache)
        series = _mul_trunc(series, _spread(_deep_factor(power, ell, n), ell, budget), budget)
    return series


def block_count_proof_path(
    family: str, ell: int, d: int, a: int, w: int, cache: CountCache | None = None
) -> int:
    """Character count of the weight-w principal-slot block, computed by
    summing centraliser contributions over all weight vectors.

    Equivalent to enumerating enumerate_weight_vectors and adding up
    unipotent_block_count, but read at w off one series, _slot_product
    with the principal factor P(x)**weyl_base, so large budgets stay
    cheap. It is built from partition numbers by truncated products alone;
    no sigma row, coloured-partition row or composition tail series of
    the closed formulas is read, which keeps this an independent check
    against them in all but the inputs both share: slot_denominator and
    the product kernel counting._mul_trunc, each pinned by its own test.

    The series depends only on (ell, a, denom), since build_inventory sets
    weyl_base to denom, and a longer truncation only appends coefficients,
    so the cache keeps one grow-only series per key; a sweep asks for a
    run's largest w first, so the run builds it once.
    """
    if w < 0:
        raise ValueError("weight must be >= 0")
    cache = cache or shared_cache
    inv = build_inventory(family, ell, d, a)
    series = cache._slot_series(
        (inv.ell, inv.a, inv.denom),
        w,
        lambda top: _slot_product(inv, inv.weyl_base, top, cache),
    )
    return series[w]


def eL_series_total(
    kind: str, n: int, e: int, a: int, ell: int, cache: CountCache | None = None
) -> int:
    """Total number of irreducible characters lying over classes of
    ell-power order elements in the rank-n linear or unitary group with
    order parameter e and valuation a.

    Every weight vector contributes the full unipotent character count of
    its centraliser, principal factor included (contrast with the block
    count, where the principal factor is pinned to one block). When n < e
    no nontrivial ell-element fits and the result is just the partition
    count of n.
    """
    if kind not in (LINEAR, UNITARY):
        raise ValueError(f"kind must be {LINEAR!r} or {UNITARY!r}, got {kind!r}")
    if n < 1:
        raise ValueError("rank must be >= 1")
    cache = cache or shared_cache
    inv = build_inventory(kind, ell, e, a)
    w, r = divmod(n, e)
    # no principal factor here: it is summed below, at rank e * u + r
    slot_series = _slot_product(inv, 0, w, cache)
    return sum(
        cache.partition_count(e * u + r) * slot_series[w - u] for u in range(w + 1)
    )
