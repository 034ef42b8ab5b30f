"""Brute-force ground truth on objects small enough to enumerate: integer
partitions listed explicitly, tiny finite fields with exhaustively checked
axioms, conjugacy censuses of small matrix groups, and wreath-product
reflection groups built element by element. Every census closes its
groups and orbits through one breadth-first closure, _closure, and splits
a set into orbits through one splitter, _orbits.

Everything here is deliberately independent of the counting recurrences in
blockcensus.counting and the series machinery in blockcensus.slots; tests
compare the two routes, so nothing in this module may call them for its
own answers. The only imports from those modules sit in the comparison
helpers at the bottom, which exist precisely to confront the two sides.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import random
from typing import NamedTuple

from . import slots
from .blocks import ell_profile, valuation
from .counting import is_prime

__all__ = [
    "partitions_of",
    "multipartition_enumerate",
    "SmallField",
    "mat_identity",
    "mat_mul",
    "mat_det",
    "mat_inv",
    "mat_pow",
    "gl_order",
    "mulclose",
    "gl_generators",
    "ClassDatum",
    "MatrixGroupCensus",
    "check_gl_census",
    "gl_ell_class_census",
    "census_matches_weight_vectors",
    "gmpn_identity",
    "gmpn_mul",
    "gmpn_inv",
    "check_gmpn",
    "gmpn_elements",
    "gmpn_generators",
    "gmpn_class_count",
    "sl2_gf4_census",
    "a5_fixture_check",
]

# ---------------------------------------------------------------------------
# partitions, listed one by one

ENUM_MAX_COLOURS = 8
ENUM_MAX_SIZE = 12


def partitions_of(t: int, max_part: int | None = None):
    """Yield the partitions of t as weakly decreasing tuples, largest first."""
    if t < 0:
        raise ValueError("partition size must be >= 0")
    if max_part is None or max_part > t:
        max_part = t
    if t == 0:
        yield ()
        return
    for head in range(max_part, 0, -1):
        for rest in partitions_of(t - head, head):
            yield (head,) + rest


@functools.lru_cache(maxsize=None)
def _partition_list(t: int) -> tuple[tuple[int, ...], ...]:
    """The partitions of t, materialized once for multipartition_enumerate."""
    return tuple(partitions_of(t))


def multipartition_enumerate(s: int, t: int) -> int:
    """Count s-tuples of partitions of total size t from explicitly
    enumerated partition lists, never touching the divisor-sum recurrence.
    The tuple's sizes form a weak composition of t into s slots; the
    compositions with one multiset of sizes are the arrangements of a
    partition of t with at most s parts, padded with zeros to length s.
    So the sum runs over those partitions, each weighted by its
    s! / prod(mult!) arrangements times the product of the list lengths.
    Capped to keep runtimes sane."""
    if s < 1 or t < 0:
        raise ValueError("need s >= 1 and t >= 0")
    if s > ENUM_MAX_COLOURS or t > ENUM_MAX_SIZE:
        raise ValueError(
            f"enumeration cap exceeded: s <= {ENUM_MAX_COLOURS} and "
            f"t <= {ENUM_MAX_SIZE}, got s={s}, t={t}"
        )
    counts = [len(_partition_list(sz)) for sz in range(t + 1)]
    s_factorial = math.factorial(s)
    total = 0
    for lam in _partition_list(t):
        if len(lam) > s:
            continue
        sizes = lam + (0,) * (s - len(lam))
        arrangements = s_factorial
        for mult in collections.Counter(sizes).values():
            arrangements //= math.factorial(mult)
        total += arrangements * math.prod(map(counts.__getitem__, sizes))
    return total


# ---------------------------------------------------------------------------
# tiny finite fields with exhaustive axiom checks

_DEFAULT_MODULI = {
    # coefficients low to high, so (1, 1, 1) is 1 + x + x**2
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
}

_ALT_MODULI = {
    8: (1, 0, 1, 1),
}

_SUPPORTED_Q = (2, 3, 4, 5, 7, 8, 9)


def _prime_power(q: int) -> tuple[int, int]:
    for p in (2, 3, 5, 7):
        if q % p == 0:
            k = 0
            rest = q
            while rest % p == 0:
                rest //= p
                k += 1
            if rest != 1:
                raise ValueError(f"q = {q} is not a prime power")
            return p, k
    raise ValueError(f"q = {q} is out of the supported range {_SUPPORTED_Q}")


class SmallField:
    """GF(q) for q <= 9, elements encoded as ints 0..q-1 via base-p digits
    (low digit first). Construction verifies every field axiom by
    exhaustion, so a reducible modulus is rejected rather than silently
    producing a non-field."""

    def __init__(self, q: int, modulus: tuple[int, ...] | None = None) -> None:
        if q not in _SUPPORTED_Q:
            raise ValueError(f"q = {q} is out of the supported range {_SUPPORTED_Q}")
        p, k = _prime_power(q)
        self.q = q
        self.p = p
        self.deg = k
        if k == 1:
            if modulus is not None:
                raise ValueError("prime fields take no modulus")
            self.modulus = None
        else:
            if modulus is None:
                modulus = _DEFAULT_MODULI[q]
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError(
                    f"modulus must be monic of degree {k} over GF({p}), "
                    f"coefficients listed low to high"
                )
            self.modulus = modulus
        self._build_tables()
        self._verify_axioms()
        self._row_tables: dict[int, RowTables] = {}

    # -- element codecs -----------------------------------------------------

    def _digits(self, e: int) -> list[int]:
        out = []
        for _ in range(self.deg):
            out.append(e % self.p)
            e //= self.p
        return out

    def _encode(self, digits: list[int]) -> int:
        e = 0
        for c in reversed(digits):
            e = e * self.p + (c % self.p)
        return e

    # -- table construction ---------------------------------------------------

    def _poly_mul(self, a: int, b: int) -> int:
        p, k = self.p, self.deg
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * k - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        # reduce x**k = -(lower modulus coefficients), repeatedly
        for idx in range(len(prod) - 1, k - 1, -1):
            c = prod[idx]
            if c:
                prod[idx] = 0
                for j in range(k):
                    prod[idx - k + j] = (prod[idx - k + j] - c * self.modulus[j]) % p
        return self._encode(prod[:k])

    def _build_tables(self) -> None:
        q, p = self.q, self.p
        if self.deg == 1:
            self._add = [[(a + b) % p for b in range(q)] for a in range(q)]
            self._mul = [[(a * b) % p for b in range(q)] for a in range(q)]
        else:
            self._add = [
                [
                    self._encode([(x + y) % p for x, y in zip(self._digits(a), self._digits(b))])
                    for b in range(q)
                ]
                for a in range(q)
            ]
            self._mul = [[self._poly_mul(a, b) for b in range(q)] for a in range(q)]
        self._neg = [next(b for b in range(q) if self._add[a][b] == 0) for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            hits = [b for b in range(1, q) if self._mul[a][b] == 1]
            if len(hits) != 1:
                raise ValueError(
                    f"modulus {self.modulus} does not define a field: "
                    f"element {a} has {len(hits)} inverses"
                )
            inv[a] = hits[0]
        self._inv = inv

    def _verify_axioms(self) -> None:
        q = self.q
        rng = range(q)
        for a in rng:
            if self._add[a][0] != a or self._mul[a][1] != a:
                raise ValueError("identity axiom failed")
            for b in rng:
                if self._add[a][b] != self._add[b][a] or self._mul[a][b] != self._mul[b][a]:
                    raise ValueError("commutativity axiom failed")
                for c in rng:
                    if self._add[self._add[a][b]][c] != self._add[a][self._add[b][c]]:
                        raise ValueError("additive associativity failed")
                    if self._mul[self._mul[a][b]][c] != self._mul[a][self._mul[b][c]]:
                        raise ValueError("multiplicative associativity failed")
                    lhs = self._mul[a][self._add[b][c]]
                    rhs = self._add[self._mul[a][b]][self._mul[a][c]]
                    if lhs != rhs:
                        raise ValueError("distributivity failed")
        for a in range(1, q):
            if self._mul[a][self._inv[a]] != 1:
                raise ValueError("multiplicative inverse failed")

    # -- arithmetic -----------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._inv[a]

    def generator(self) -> int:
        """An element of multiplicative order q - 1."""
        for a in range(2, self.q):
            x, order = a, 1
            while x != 1:
                x = self._mul[x][a]
                order += 1
            if order == self.q - 1:
                return a
        return 1  # q = 2

    def row_tables(self, n: int) -> RowTables:
        """Arithmetic on the rows of length n, coded as ints in [0, q**n)
        with the first entry most significant; built on first use for each
        n and kept. Each table of length q**n extends the one of length
        q**(n-1) by a new leading entry, whose code weight is q**(n-1)."""
        if n not in self._row_tables:
            add, scale, low = [[0]], [[0]] * self.q, 1
            for _ in range(n):
                add = [
                    [c * low + r for c in row for r in tail] for row in self._add for tail in add
                ]
                scale = [
                    [m * low + r for m in mul_row for r in tail]
                    for mul_row, tail in zip(self._mul, scale)
                ]
                low *= self.q
            rows = list(itertools.product(range(self.q), repeat=n))
            index = {row: code for code, row in enumerate(rows)}
            self._row_tables[n] = RowTables(rows, index, add, scale)
        return self._row_tables[n]


class RowTables(NamedTuple):
    """Row-coded vector arithmetic of one SmallField: `rows[code]` is the
    row a code stands for, `index` the inverse map, `add[u][v]` the code of
    the sum of rows u and v, and `scale[c][u]` that of the row u times the
    field element c."""

    rows: list[tuple[int, ...]]
    index: dict[tuple[int, ...], int]
    add: list[list[int]]
    scale: list[list[int]]


# ---------------------------------------------------------------------------
# dense matrices over a SmallField, as tuples of row tuples


@functools.lru_cache(maxsize=None)
def mat_identity(n: int) -> tuple[tuple[int, ...], ...]:
    """The n x n identity, built once per n; the result is immutable."""
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(field: SmallField, a, b):
    """The product a b by the plain triple loop, read from the field's
    addition and multiplication tables."""
    A, M = field._add, field._mul
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = 0
            for t in range(n):
                acc = A[acc][M[a[i][t]][b[t][j]]]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_det(field: SmallField, a) -> int:
    """Determinant by cofactor expansion along the first row, read from
    the field's tables; the empty matrix has determinant 1."""
    if not a:
        return 1
    A, M, N = field._add, field._mul, field._neg
    det = 0
    for j, entry in enumerate(a[0]):
        minor = tuple(row[:j] + row[j + 1 :] for row in a[1:])
        term = M[entry][mat_det(field, minor)]
        det = A[det][N[term] if j % 2 else term]
    return det


def mat_inv(field: SmallField, a):
    n = len(a)
    work = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        scale = field.inv(work[col][col])
        work[col] = [field.mul(scale, x) for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [
                    field.sub(x, field.mul(factor, y)) for x, y in zip(work[r], work[col])
                ]
    return tuple(tuple(row[n:]) for row in work)


def mat_pow(field: SmallField, a, e: int):
    """a**e by square-and-multiply from the lowest set bit; e < 0 inverts a first."""
    if e < 0:
        return mat_pow(field, mat_inv(field, a), -e)
    if e == 0:
        return mat_identity(len(a))
    while not e & 1:
        a = mat_mul(field, a, a)
        e >>= 1
    result = a
    e >>= 1
    while e:
        a = mat_mul(field, a, a)
        if e & 1:
            result = mat_mul(field, result, a)
        e >>= 1
    return result


def gl_order(n: int, q: int) -> int:
    order = 1
    for i in range(n):
        order *= q**n - q**i
    return order


def _closure(start, maps, cap: int) -> set:
    """The least set holding `start` and closed under every map, found by
    breadth-first search; error once it would pass `cap` elements."""
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for x in frontier:
            for f in maps:
                y = f(x)
                if y not in seen:
                    if len(seen) >= cap:
                        raise ValueError(f"closure cap {cap} exceeded")
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def _orbits(starts, maps, cap: int):
    """Yield the closure of each start that no earlier orbit holds. The
    censuses pass their group order as `cap`, which no orbit of a correct
    action outgrows, so an overrun is a RuntimeError, not a bad argument."""
    seen: set = set()
    for x in starts:
        if x not in seen:
            try:
                orbit = _closure(x, maps, cap)
            except ValueError as exc:
                raise RuntimeError(str(exc)) from None
            seen |= orbit
            yield orbit


def mulclose(field: SmallField, gens, cap: int):
    """Close a generator list under multiplication; error past `cap`."""
    maps = [lambda x, g=g: mat_mul(field, x, g) for g in gens]
    return _closure(mat_identity(len(gens[0])), maps, cap)


def gl_generators(field: SmallField, n: int):
    """A standard generating set: a diagonal torus generator, an n-cycle
    permutation matrix, and one transvection."""
    alpha = field.generator()
    diag = tuple(
        tuple((alpha if i == 0 else 1) if i == j else 0 for j in range(n)) for i in range(n)
    )
    if n == 1:
        return [diag]
    cycle = tuple(tuple(1 if j == (i - 1) % n else 0 for j in range(n)) for i in range(n))
    transvection = tuple(
        tuple(1 if i == j or (i, j) == (0, 1) else 0 for j in range(n)) for i in range(n)
    )
    return [diag, cycle, transvection]


# ---------------------------------------------------------------------------
# conjugacy census of ell-power-order elements in GL_n(q)

GROUP_ORDER_CAP = 10_000_000
MAX_N = 3


class ClassDatum(NamedTuple):
    representative: tuple
    size: int
    centralizer_order: int
    element_order: int


class MatrixGroupCensus(NamedTuple):
    group: str
    n: int
    q: int
    ell: int
    group_order: int
    classes: tuple[ClassDatum, ...]

    @property
    def ell_element_total(self) -> int:
        return sum(c.size for c in self.classes)


def _element_order(field: SmallField, x, bound: int) -> int:
    identity = mat_identity(len(x))
    y = x
    order = 1
    while y != identity:
        y = mat_mul(field, y, x)
        order += 1
        if order > bound:
            raise RuntimeError("element order exceeds the group order bound")
    return order


def _conjugation(tables: RowTables, g, ginv):
    """The map z -> g**-1 z g on row-coded matrices. The rows of z g are
    image[z_j], image being the table of right multiplication by g; row i
    of the result sums them scaled by the entries of row i of g**-1, read
    from their scale tables. Written out for n = 2 and n = 3, a plain loop
    for any other n."""
    A, S = tables.add, tables.scale
    g_codes = [tables.index[row] for row in g]
    image = []
    for row in tables.rows:
        acc = 0
        for c, code in zip(row, g_codes):
            acc = A[acc][S[c][code]]
        image.append(acc)
    scalars = [S[c] for row in ginv for c in row]
    n = len(g)
    if n == 3:
        s00, s01, s02, s10, s11, s12, s20, s21, s22 = scalars

        def conjugate(z):
            z0, z1, z2 = z
            w0, w1, w2 = image[z0], image[z1], image[z2]
            return (
                A[A[s00[w0]][s01[w1]]][s02[w2]],
                A[A[s10[w0]][s11[w1]]][s12[w2]],
                A[A[s20[w0]][s21[w1]]][s22[w2]],
            )

    elif n == 2:
        s00, s01, s10, s11 = scalars

        def conjugate(z):
            z0, z1 = z
            w0, w1 = image[z0], image[z1]
            return (A[s00[w0]][s01[w1]], A[s10[w0]][s11[w1]])

    else:
        rows = [scalars[i * n : (i + 1) * n] for i in range(n)]

        def conjugate(z):
            w = [image[code] for code in z]
            out = []
            for row in rows:
                acc = 0
                for scale, code in zip(row, w):
                    acc = A[acc][scale[code]]
                out.append(acc)
            return tuple(out)

    return conjugate


def _class_data(field: SmallField, n: int, elements, conjugators, order: int):
    """Close each element of `elements`, in sorted order, to its class
    under the conjugators, skipping those an earlier class holds. Returns the
    ClassDatum list, each with its least member as representative, and the
    number of elements the classes cover. Codes sort like the matrices
    they stand for, so the least code is the least matrix."""
    tables = field.row_tables(n)
    starts = (tuple(map(tables.index.__getitem__, x)) for x in sorted(elements))
    conjugations = [_conjugation(tables, g, ginv) for g, ginv in conjugators]
    classes = []
    covered = 0
    for orbit in _orbits(starts, conjugations, order):
        size = len(orbit)
        covered += size
        if order % size:
            raise RuntimeError("class size does not divide the group order")
        rep = tuple(map(tables.rows.__getitem__, min(orbit)))
        classes.append(ClassDatum(rep, size, order // size, _element_order(field, rep, order)))
    return classes, covered


def _sylow_subgroup(field, n, q, ell, nu, order, rng_seed):
    """Build one Sylow ell-subgroup, of order ell**nu. When ell divides
    q - 1 the ell-part of the diagonal torus plus an ell-cycle generate an
    ell-group to start from. Then take the ell-part y of seeded-random
    elements, and keep y only when it and the generators so far close to a
    group of ell-power order at most ell**nu: two ell-elements of different
    Sylow subgroups can generate a group that is not an ell-group. Failing
    that, y and the starting generators alone replace the group so far when
    they close to a larger ell-group, so an early y from the wrong Sylow
    subgroup cannot trap the search. Any failure to reach order ell**nu is
    a RuntimeError."""
    target = ell**nu
    gens = []
    if (q - 1) % ell == 0:
        # beta generates the ell-part of the unit group
        alpha = field.generator()
        cofactor = (q - 1) // ell ** valuation(ell, q - 1)
        beta = 1
        for _ in range(cofactor):
            beta = field.mul(beta, alpha)
        for i in range(n):
            gens.append(
                tuple(
                    tuple((beta if i == j2 else 1) if j1 == j2 else 0 for j2 in range(n))
                    for j1 in range(n)
                )
            )
        if ell <= n:
            cyc = list(range(n))
            cyc[:ell] = [(i + 1) % ell for i in range(ell)]
            gens.append(
                tuple(tuple(1 if j == cyc[i] else 0 for j in range(n)) for i in range(n))
            )
    base = gens = [g for g in gens if g != mat_identity(n)]
    try:
        group = mulclose(field, base, target) if base else {mat_identity(n)}
    except ValueError as exc:
        raise RuntimeError(f"starting generators overrun the Sylow order: {exc}") from None
    rng = random.Random(rng_seed)
    tries = 0
    while len(group) < target:
        tries += 1
        if tries > 500:
            raise RuntimeError("failed to assemble the Sylow subgroup")
        entries = [rng.randrange(q) for _ in range(n * n)]
        g = tuple(tuple(entries[i * n : (i + 1) * n]) for i in range(n))
        if mat_det(field, g) == 0:
            continue
        y = mat_pow(field, g, order // target)
        if y in group:
            continue
        for trial in (gens + [y], base + [y]):
            try:
                larger = mulclose(field, trial, target)
            except ValueError:
                continue
            if target % len(larger) == 0 and len(larger) > len(group):
                gens, group = trial, larger
                break
    return group


def check_gl_census(n: int, q: int, ell: int) -> int:
    """Refuse, with a ValueError, a (n, q, ell) that gl_ell_class_census
    cannot run: n past MAX_N, ell not an odd prime or dividing q, a group
    order past GROUP_ORDER_CAP, or a field size outside the supported
    range. Returns the order of GL_n(q)."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"census cap exceeded: n must be 1..{MAX_N}, got {n}")
    if not is_prime(ell) or ell == 2:
        raise ValueError(f"ell must be an odd prime, got {ell}")
    if q % ell == 0:
        raise ValueError("ell must not divide q")
    order = gl_order(n, q)
    if order > GROUP_ORDER_CAP:
        raise ValueError(
            f"census cap exceeded: |GL_{n}({q})| = {order} > {GROUP_ORDER_CAP}"
        )
    if q not in _SUPPORTED_Q:
        raise ValueError(f"q = {q} is out of the supported range {_SUPPORTED_Q}")
    return order


def gl_ell_class_census(
    n: int,
    q: int,
    ell: int,
    modulus: tuple[int, ...] | None = None,
    rng_seed: int = 0,
) -> MatrixGroupCensus:
    """Conjugacy classes of ell-power-order elements of GL_n(q), computed
    by explicit matrix arithmetic. The classes are seeded from one Sylow
    ell-subgroup, which meets every ell-class by Sylow's theorem, and
    closed under conjugation. By Frobenius's theorem the number of
    solutions of x**(ell**nu) = 1 is a multiple of ell**nu, so classes
    that cover any other number are a RuntimeError."""
    order = check_gl_census(n, q, ell)
    field = SmallField(q, modulus)
    nu = valuation(ell, order)
    gens = gl_generators(field, n)
    conjugators = [(g, mat_inv(field, g)) for g in gens]

    seeds = _sylow_subgroup(field, n, q, ell, nu, order, rng_seed)
    classes, covered = _class_data(field, n, seeds, conjugators, order)
    if covered % ell**nu:
        raise RuntimeError(
            f"{covered} elements of ell-power order, not a multiple of "
            f"ell**nu = {ell**nu} (Frobenius)"
        )
    classes.sort(key=lambda c: (c.size, c.representative))
    return MatrixGroupCensus("GL", n, q, ell, order, tuple(classes))


def census_matches_weight_vectors(census: MatrixGroupCensus) -> bool:
    """Confront a brute-force census with the weight-vector calculus: the
    class count and the multiset of centralizer orders must both match the
    predictions read off the slot inventory for the same (n, q, ell)."""
    profile = ell_profile(census.q, census.ell)
    inventory = slots.build_inventory(slots.LINEAR, census.ell, profile.d, profile.a)
    w, r = divmod(census.n, profile.d)
    vectors = list(slots.enumerate_weight_vectors(inventory, w))
    if len(vectors) != len(census.classes):
        return False
    predicted = sorted(
        slots.centralizer_shape(inventory, vec, w, r).linear_order(census.q)
        for vec in vectors
    )
    actual = sorted(c.centralizer_order for c in census.classes)
    return predicted == actual


# ---------------------------------------------------------------------------
# wreath-product reflection groups G(m, p, n), element by element

GMPN_CAP = 1_000_000


def gmpn_identity(n: int):
    return (tuple(range(n)), (0,) * n)


def gmpn_mul(m: int, g, h):
    """Compose g then h: permutations act first-to-second, exponents add
    along the first permutation."""
    sg, eg = g
    sh, eh = h
    n = len(sg)
    perm = tuple(sh[sg[i]] for i in range(n))
    exps = tuple((eg[i] + eh[sg[i]]) % m for i in range(n))
    return (perm, exps)


def gmpn_inv(m: int, g):
    sg, eg = g
    n = len(sg)
    si = [0] * n
    for i, img in enumerate(sg):
        si[img] = i
    exps = tuple((-eg[si[j]]) % m for j in range(n))
    return (tuple(si), exps)


def gmpn_order(m: int, p: int, n: int) -> int:
    return m**n * math.factorial(n) // p


def check_gmpn(m: int, p: int, n: int) -> int:
    """Refuse, with a ValueError, a (m, p, n) that gmpn_elements cannot
    list: m < 1, p not dividing m, n < 1, or an order past GMPN_CAP.
    Returns the order of G(m, p, n)."""
    if m < 1:
        raise ValueError("need m >= 1")
    if p < 1 or m % p != 0:
        raise ValueError("need p >= 1 dividing m")
    if n < 1:
        raise ValueError("need n >= 1")
    size = gmpn_order(m, p, n)
    if size > GMPN_CAP:
        raise ValueError(f"enumeration cap exceeded: |G({m},{p},{n})| = {size} > {GMPN_CAP}")
    return size


def gmpn_elements(m: int, p: int, n: int):
    """List the full group: pairs (permutation, exponent vector) with
    exponent sum divisible by p."""
    size = check_gmpn(m, p, n)
    elements = []
    for perm in itertools.permutations(range(n)):
        for exps in itertools.product(range(m), repeat=n):
            if sum(exps) % p == 0:
                elements.append((perm, exps))
    if len(elements) != size:
        raise RuntimeError("element listing does not match the order formula")
    return elements


def gmpn_generators(m: int, p: int, n: int):
    gens = []
    ident = gmpn_identity(n)
    if n >= 2:
        swap = list(range(n))
        swap[0], swap[1] = swap[1], swap[0]
        gens.append((tuple(swap), (0,) * n))
        gens.append((tuple(range(1, n)) + (0,), (0,) * n))
        gens.append((tuple(range(n)), (1 % m, (m - 1) % m) + (0,) * (n - 2)))
    if p < m:
        gens.append((tuple(range(n)), (p % m,) + (0,) * (n - 1)))
    return [g for g in gens if g != ident]


def gmpn_class_count(m: int, p: int, n: int) -> int:
    """Number of conjugacy classes of G(m, p, n), found by partitioning an
    explicit element list under conjugation by generators."""
    elements = gmpn_elements(m, p, n)
    conjugations = [
        lambda z, g=g, ginv=gmpn_inv(m, g): gmpn_mul(m, ginv, gmpn_mul(m, z, g))
        for g in gmpn_generators(m, p, n)
    ]
    sizes = [len(orbit) for orbit in _orbits(elements, conjugations, len(elements))]
    if sum(sizes) != len(elements):
        raise RuntimeError("conjugacy classes do not cover the group")
    return len(sizes)


# ---------------------------------------------------------------------------
# one completely explicit block fixture: SL_2(4), which is the alternating
# group on five letters

def sl2_gf4_census() -> tuple[ClassDatum, ...]:
    """Conjugacy classes of SL_2(4) via a full 256-matrix scan, conjugating
    only within the group itself."""
    field = SmallField(4)
    elements = [
        mat
        for mat in itertools.product(field.row_tables(2).rows, repeat=2)
        if mat_det(field, mat) == 1
    ]
    if len(elements) != 60:
        raise RuntimeError("SL_2(4) scan found the wrong number of matrices")
    conjugators = [(g, mat_inv(field, g)) for g in elements]
    classes, _ = _class_data(field, 2, elements, conjugators, 60)
    classes.sort(key=lambda c: (c.element_order, c.size, c.representative))
    return tuple(classes)


def a5_fixture_check() -> dict:
    """Work the 60-element fixture end to end with rational character data:
    integrality and mod-3 agreement of central character values pins down
    the principal 3-block as {trivial, degree 4, degree 5}, and the two
    degree-3 characters have defect zero. Returns the headline numbers."""
    classes = sl2_gf4_census()
    sizes = tuple(c.size for c in classes)
    orders = tuple(c.element_order for c in classes)
    if sizes != (1, 15, 20, 12, 12) or orders != (1, 2, 3, 5, 5):
        raise RuntimeError(f"unexpected class data: sizes={sizes}, orders={orders}")
    degrees = (1, 3, 3, 4, 5)
    if sum(d * d for d in degrees) != 60:
        raise RuntimeError("degree sum check failed")
    # character values on the classes above, in the same order; the two
    # degree-3 characters are irrational on the order-5 classes and are
    # not needed: they have 3-defect zero and sit in singleton blocks.
    rational_rows = {
        1: (1, 1, 1, 1, 1),
        4: (4, 0, 1, -1, -1),
        5: (5, 1, -1, 0, 0),
    }
    central_rows = {}
    for degree, values in rational_rows.items():
        row = []
        for size, value in zip(sizes, values):
            num = size * value
            if num % degree:
                raise RuntimeError(
                    f"central character of the degree-{degree} row is not integral"
                )
            row.append(num // degree)
        central_rows[degree] = tuple(row)
    base = tuple(v % 3 for v in central_rows[1])
    for degree, row in central_rows.items():
        if tuple(v % 3 for v in row) != base:
            raise RuntimeError(
                f"degree-{degree} row leaves the principal 3-block unexpectedly"
            )
    # defect zero for the degree-3 pair: 3 divides the degree exactly as
    # often as it divides the group order
    if valuation(3, 60) != 1 or valuation(3, 3) != 1:
        raise RuntimeError("defect-zero check failed")
    return {
        "group_order": 60,
        "class_sizes": sizes,
        "element_orders": orders,
        "principal_block_size": len(rational_rows),
        "defect_zero_count": 2,
    }
