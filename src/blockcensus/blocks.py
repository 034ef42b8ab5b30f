"""Block invariants of finite classical groups at odd primes: exact
character counts per block, defect group orders, abelianness, and the
verdict of the strong conjecture check k(B) <= |D| (strict unless the
defect group is abelian). Includes the sweep engine that turns parameter
ranges into a deterministic report.
"""

from __future__ import annotations

import json
import math
import sys
from typing import NamedTuple

from . import slots
from ._version import __version__
from .counting import (
    CountCache,
    colour_counts,
    composition_sum,
    decimal_text,
    exact_div,
    is_prime,
    k_ell_a_w,
    p_ell,
    shared_cache,
    val_factorial,
)

GL = "GL"
GU = "GU"
SLRANGE = "SLrange"
SURANGE = "SUrange"
PSLELL = "PSLell"
SP = "Sp"
SOODD = "SOodd"
SOEVEN_PLUS = "SOevenPlus"
SOEVEN_MINUS = "SOevenMinus"
GOEVEN_PLUS = "GOevenPlus"
GOEVEN_MINUS = "GOevenMinus"

FAMILIES = (
    GL,
    GU,
    SLRANGE,
    SURANGE,
    PSLELL,
    SP,
    SOODD,
    SOEVEN_PLUS,
    SOEVEN_MINUS,
    GOEVEN_PLUS,
    GOEVEN_MINUS,
)

# Weight-addressed families and the slot-calculus family each one maps to
# for the independent proof-path cross-check.
WEIGHT_FAMILIES = {
    GL: slots.LINEAR,
    GU: slots.UNITARY,
    SP: slots.SYMPLECTIC,
    SOODD: slots.SYMPLECTIC,
    GOEVEN_PLUS: slots.EVEN_ORTHOGONAL,
    GOEVEN_MINUS: slots.EVEN_ORTHOGONAL,
    SOEVEN_PLUS: slots.EVEN_ORTHOGONAL,
    SOEVEN_MINUS: slots.EVEN_ORTHOGONAL,
}

# For the even special orthogonal groups the block sum only bounds the true
# count from above (one such block may split in two there).
UPPER_BOUND_FAMILIES = frozenset({SOEVEN_PLUS, SOEVEN_MINUS})

PRINCIPAL_FAMILIES = (SLRANGE, SURANGE, PSLELL)

EXACT = "exact"
UPPER_BOUND = "upper_bound"

HOLDS_STRICT = "HOLDS_STRICT"
HOLDS_EQUALITY_ABELIAN = "HOLDS_EQUALITY_ABELIAN"
HOLDS_NONSTRICT = "HOLDS_NONSTRICT"
VIOLATION = "VIOLATION"
INCONCLUSIVE_UPPER_BOUND = "INCONCLUSIVE_UPPER_BOUND"

# Row outcomes of a sweep that are not verdicts on the block.
# INTERNAL_MISMATCH is an ArithmeticError: the two count paths disagree or a
# provably exact division left a remainder, a fault in the program. ERROR is
# any other exception, normally a ValueError for parameters that do not
# combine, or an OverflowError for a parameter too large to index a table.
ERROR = "ERROR"
INTERNAL_MISMATCH = "INTERNAL_MISMATCH"

VERDICTS = (
    HOLDS_STRICT,
    HOLDS_EQUALITY_ABELIAN,
    HOLDS_NONSTRICT,
    VIOLATION,
    INCONCLUSIVE_UPPER_BOUND,
)

__all__ = [
    "FAMILIES",
    "WEIGHT_FAMILIES",
    "UPPER_BOUND_FAMILIES",
    "PRINCIPAL_FAMILIES",
    "VERDICTS",
    "EXACT",
    "UPPER_BOUND",
    "HOLDS_STRICT",
    "HOLDS_EQUALITY_ABELIAN",
    "HOLDS_NONSTRICT",
    "VIOLATION",
    "INCONCLUSIVE_UPPER_BOUND",
    "ERROR",
    "INTERNAL_MISMATCH",
    "EllProfile",
    "BlockQuery",
    "BlockInvariants",
    "valuation",
    "ell_profile",
    "ennola_profile",
    "principal_query",
    "k_principal_slrange",
    "k_principal_pslell",
    "defect_exponent",
    "is_abelian_defect",
    "verdict",
    "bound_thm_slnproof",
    "block_invariants",
    "SweepSpec",
    "Row",
    "CensusReport",
    "REPORT_COLUMNS",
    "sweep",
]


def valuation(ell: int, n: int) -> int:
    """Exponent of the largest power of ell dividing n (ell >= 2, n nonzero)."""
    if ell < 2:
        raise ValueError(f"valuation needs ell >= 2, got {ell}")
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    n = abs(n)
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v


class _EllProfileFields(NamedTuple):
    ell: int
    d: int
    a: int
    q: int | None = None


class EllProfile(_EllProfileFields):
    """The (d, a) shape of an odd prime ell relative to a field size q: d is
    the order parameter and a the valuation of q**d - 1 at ell. Profiles may
    be synthetic (q omitted) so sweeps need not hunt for witness field
    sizes. ell = 2 is refused: the block formulas hold for odd primes only."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not is_prime(self.ell):
            raise ValueError(f"ell must be prime, got {self.ell}")
        if self.ell == 2:
            raise ValueError("ell = 2 unsupported: the block formulas here require odd ell")
        if self.a < 1:
            raise ValueError("a must be >= 1")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if (self.ell - 1) % self.d:
            raise ValueError(f"d={self.d} must divide ell-1={self.ell - 1} for odd ell")
        return self


def _profile(x: int, ell: int, q: int) -> EllProfile:
    """Profile of a prime ell not dividing a field size q >= 2 relative to
    x = q or -q: d is the order of x mod ell and a the valuation of
    x**d - 1, by modular powers alone."""
    if not is_prime(ell):
        raise ValueError(f"ell must be prime, got {ell}")
    if q < 2:
        raise ValueError("q must be >= 2")
    if q % ell == 0:
        raise ValueError(f"ell={ell} divides q={q}; profile undefined")
    d = next(t for t in _divisors(ell - 1) if pow(x, t, ell) == 1)
    a = 1
    while pow(x, d, ell ** (a + 1)) == 1:
        a += 1
    return EllProfile(ell, d, a, q)


def ell_profile(q: int, ell: int) -> EllProfile:
    """Profile of an odd prime ell relative to a field size q: the order d
    of q mod ell and the exact valuation a of q**d - 1."""
    return _profile(q, ell, q)


def ennola_profile(q: int, ell: int) -> EllProfile:
    """Profile with q replaced by -q, the standard transfer to the unitary
    groups, under the same rules as ell_profile."""
    return _profile(-q, ell, q)


class _BlockQueryFields(NamedTuple):
    family: str
    profile: EllProfile
    w: int | None = None
    n: int | None = None
    g: int = 0
    m: int = 0


class BlockQuery(_BlockQueryFields):
    """Addresses one block: a family tag, an ell-adic profile, and exactly
    one address, a weight w (weight-addressed families) or a rank n with
    the index data (g, m), which principal_query builds, for SLrange,
    SUrange and PSLell. The index valuation g is at most the profile's a."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.g < 0 or self.m < 0:
            raise ValueError("g and m must be >= 0")
        if self.w is not None:
            _require_weight(self.w)
        if self.n is not None:
            if self.n < 1:
                raise ValueError("n must be >= 1")
            _require_indexable("n", self.n)
        address = "w" if self.family in WEIGHT_FAMILIES else "n"
        if (self.w is not None, self.n is not None) != (address == "w", address == "n"):
            raise ValueError(f"{self.family} blocks are addressed by {address} alone")
        # ell**g is the part of the index that the closing division of
        # k_principal_slrange removes, and a bounds its valuation
        if self.g > self.profile.a:
            raise ValueError("g must be <= a")
        return self


def _require_weight(w: int) -> None:
    if w < 0:
        raise ValueError("w must be >= 0")
    _require_indexable("w", w)


def _require_indexable(name: str, value: int) -> None:
    # the tables a weight or rank reaches hold value + 1 entries, and no
    # list holds more than sys.maxsize
    if value >= sys.maxsize:
        raise ValueError(f"{name} = {decimal_text(value)} is too large to index a table")


def exactness_for(family: str) -> str:
    return UPPER_BOUND if family in UPPER_BOUND_FAMILIES else EXACT


def k_principal_slrange(query: BlockQuery, cache: CountCache | None = None) -> int:
    """Character count of the principal block for a group between the
    special linear (or unitary) group and its general cousin, with index
    valuation g and centre valuation m, in the fully split case d = 1.

    Terms at i >= 1 exist only when ell**i divides n; the closing division
    by ell**g must be exact and failure signals a transcription bug
    (BlockQuery refuses g > a, which made it inexact).
    """
    if query.family not in (SLRANGE, SURANGE):
        raise ValueError(f"family {query.family!r} is not in the special linear range")
    ell, a = query.profile.ell, query.profile.a
    n, g, m = query.n, query.g, query.m
    u = min(m, g)
    total = k_ell_a_w(ell, a, n, cache)
    for i in range(1, u + 1):
        step = ell**i
        if n % step:
            continue
        total += ell ** (2 * i - 2) * (ell**2 - 1) * k_ell_a_w(ell, a, n // step, cache)
    return exact_div(total, ell**g)


def principal_query(
    family: str, profile: EllProfile, n: int | None = None, g: int | None = None
) -> BlockQuery:
    """The BlockQuery of the principal block of an SLrange, SUrange or
    PSLell group at rank n (default ell) and index valuation g (default
    a), with centre valuation m = min(v_ell(n), a), or 0 for an n < 1,
    which BlockQuery refuses. A PSLell block is the simple quotient of
    SLrange's at n = ell and g = a, so a PSLell query has that n and g
    whatever n and g are given."""
    if family == PSLELL:
        n = g = None
    a = profile.a
    n = profile.ell if n is None else n
    g = a if g is None else g
    m = min(valuation(profile.ell, n), a) if n >= 1 else 0
    return BlockQuery(family, profile, n=n, g=g, m=m)


def k_principal_pslell(ell: int, a: int, cache: CountCache | None = None) -> int:
    """Character count of the principal block of the simple quotient in the
    boundary case n = ell, folded down from the special linear count; the
    division by ell is exact."""
    query = principal_query(SLRANGE, EllProfile(ell, 1, a))
    return exact_div(k_principal_slrange(query, cache) + ell - 1, ell)


def defect_exponent(
    family: str,
    ell: int,
    a: int,
    w: int | None = None,
    n: int | None = None,
    g: int = 0,
) -> int:
    """Exponent e with |D| = ell**e for the addressed block.

    Weight-addressed families carry a wreath-shaped defect group of order
    ell**(a*w) * (w!)-part; the special linear range subtracts the index
    valuation g, and the simple quotient at n = ell additionally loses the
    centre."""
    if family in WEIGHT_FAMILIES:
        if w is None:
            raise ValueError("weight-addressed families need w")
        return a * w + val_factorial(ell, w)
    if family in (SLRANGE, SURANGE):
        if n is None:
            raise ValueError("special linear range needs n")
        return a * n + val_factorial(ell, n) - g
    if family == PSLELL:
        return defect_exponent(SLRANGE, ell, a, n=ell, g=a) - 1
    raise ValueError(f"unknown family {family!r}")


def is_abelian_defect(w: int, ell: int) -> bool:
    """Whether the weight-w wreath-shaped defect group is abelian: true
    exactly when w < ell, the same condition as val_factorial(ell, w) = 0.
    The special linear range at d = 1 asks it of its rank n."""
    return w < ell


def verdict(k_B: int, exactness: str, defect_exp: int, abelian: bool, ell: int) -> str:
    """Classify one block against the strong conjecture form.

    For exact counts: strict inequality, equality with abelian defect,
    equality with non-abelian defect (the strong form fails there, reported
    distinctly), or violation. An upper bound that exceeds the allowed
    threshold proves nothing and is reported inconclusive."""
    if exactness not in (EXACT, UPPER_BOUND):
        raise ValueError(f"unknown exactness {exactness!r}")
    order = ell**defect_exp
    threshold = order if abelian else order - 1
    if exactness == UPPER_BOUND and k_B > threshold:
        return INCONCLUSIVE_UPPER_BOUND
    if k_B > order:
        return VIOLATION
    if k_B == order:
        return HOLDS_EQUALITY_ABELIAN if abelian else HOLDS_NONSTRICT
    return HOLDS_STRICT


def bound_thm_slnproof(
    n: int, ell: int, a: int, m: int, cache: CountCache | None = None
) -> int:
    """Closed upper estimate dominating k_principal_slrange at g = a:
    (p_ell(n) * ell**(a n) + sum over i <= m with ell**i | n of
    p_ell(n / ell**i) * ell**(a n / ell**i + 2 i)) / ell**a."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not is_prime(ell) or ell == 2:
        raise ValueError("ell must be an odd prime")
    total = p_ell(ell, n, cache) * ell ** (a * n)
    for i in range(1, m + 1):
        step = ell**i
        if n % step:
            continue
        total += p_ell(ell, n // step, cache) * ell ** (a * (n // step) + 2 * i)
    return exact_div(total, ell**a)


class BlockInvariants(NamedTuple):
    k_B: int
    exactness: str
    defect_exponent: int
    abelian_defect: bool
    verdict: str
    two_path_checked: bool = False


def _check_profile_consistency(family: str, profile: EllProfile) -> None:
    if profile.q is None:
        return
    derive = ennola_profile if family in (GU, SURANGE) else ell_profile
    derived = derive(profile.q, profile.ell)
    if (derived.d, derived.a) != (profile.d, profile.a):
        raise ValueError(
            f"profile (d={profile.d}, a={profile.a}) does not match q={profile.q}: "
            f"derived (d={derived.d}, a={derived.a})"
        )


def _weight_group(family: str, profile: EllProfile) -> tuple[int, int, int]:
    """The per-group step of block_invariants for a weight family: the
    profile check, which does not depend on w, then the slot denominator
    and the head and tail colour counts (denom, head, tail). A sweep runs
    it once per q of a run, and keeps a failure for every row that reaches
    it (_weight_run).

    Head colour count is denom + (ell**a - 1)/denom and tail colour count
    (ell**a - ell**(a-1))/denom, denom = slots.slot_denominator. The slot
    path shares denom, so the two-path check cannot test it (test_slots pins
    it)."""
    _check_profile_consistency(family, profile)
    denom = slots.slot_denominator(WEIGHT_FAMILIES[family], profile.d)
    return (denom, *colour_counts(profile.ell, profile.a, denom))


def _weight_values(
    family: str,
    profile: EllProfile,
    group: tuple[int, int, int],
    w: int,
    cache: CountCache,
    check_two_path: bool,
) -> tuple[int, str, int, bool, str, bool]:
    """The BlockInvariants fields of a weight-w block given its
    _weight_group values: (k_B, exactness, defect exponent, abelian,
    verdict, two_path_checked). With the two-path check the slot calculus
    recounts the block, and two counts that differ raise the mismatch,
    which names the family and profile asked for. The fields depend only
    on (ell, a, denom, exactness, w)."""
    ell, a = profile.ell, profile.a
    _, head, tail = group
    k = composition_sum(ell, head, tail, w, cache)
    if check_two_path:
        other = slots.block_count_proof_path(
            WEIGHT_FAMILIES[family], ell, profile.d, a, w, cache
        )
        if other != k:
            raise ArithmeticError(
                f"two-path mismatch for {family} "
                f"(ell={ell}, d={profile.d}, a={a}, w={w}): "
                f"closed form {decimal_text(k)}, slot calculus {decimal_text(other)}"
            )
    exactness = exactness_for(family)
    exp = defect_exponent(family, ell, a, w=w)
    abelian = is_abelian_defect(w, ell)
    result = verdict(k, exactness, exp, abelian, ell)
    return k, exactness, exp, abelian, result, check_two_path


def block_invariants(
    query: BlockQuery,
    cache: CountCache | None = None,
    check_two_path: bool = True,
) -> BlockInvariants:
    """Full invariant bundle for one block query, whose family, address and
    odd prime BlockQuery has checked; a profile that does not match its q
    is refused here.

    For weight-addressed families the closed-form count is recomputed along
    the slot-calculus path and the two values must agree exactly; a
    mismatch raises instead of producing a row, because it would mean the
    two formula transcriptions disagree."""
    cache = cache or shared_cache
    family = query.family
    profile = query.profile
    if family in WEIGHT_FAMILIES:
        group = _weight_group(family, profile)
        return BlockInvariants(
            *_weight_values(family, profile, group, query.w, cache, check_two_path)
        )
    _check_profile_consistency(family, profile)
    if family == PSLELL:
        k = k_principal_pslell(profile.ell, profile.a, cache)
        exp = defect_exponent(family, profile.ell, profile.a)
        # Simple quotient at n = ell: the quotient of the wreath-point defect
        # group by the centre is abelian only in the very smallest case.
        abelian = (profile.ell, profile.a) == (3, 1)
    else:
        k = k_principal_slrange(query, cache)
        exp = defect_exponent(family, profile.ell, profile.a, n=query.n, g=query.g)
        abelian = is_abelian_defect(query.n, profile.ell)
    exactness = exactness_for(family)
    return BlockInvariants(
        k_B=k,
        exactness=exactness,
        defect_exponent=exp,
        abelian_defect=abelian,
        verdict=verdict(k, exactness, exp, abelian, profile.ell),
    )


def _divisors(n: int) -> tuple[int, ...]:
    """The divisors of n >= 1 in ascending order, by trial division up to
    the square root of n."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return tuple(small + [n // d for d in reversed(small) if d * d != n])


class SweepSpec(NamedTuple):
    """Parameter ranges for a census sweep. d_values = None expands to all
    divisors of ell - 1 per ell. Weight families consume w_values, the
    special linear range consumes n_values and g_values (default (a,)),
    and the simple-quotient family is keyed by (ell, a) alone."""

    families: tuple[str, ...] = ()
    ell_values: tuple[int, ...] = ()
    d_values: tuple[int, ...] | None = None
    a_values: tuple[int, ...] = (1,)
    w_values: tuple[int, ...] = ()
    n_values: tuple[int, ...] = ()
    g_values: tuple[int, ...] | None = None
    q_values: tuple[int, ...] = ()

    def canonical(self) -> dict:
        return {
            "families": list(self.families),
            "ell_values": list(self.ell_values),
            "d_values": "divisors" if self.d_values is None else list(self.d_values),
            "a_values": list(self.a_values),
            "w_values": list(self.w_values),
            "n_values": list(self.n_values),
            "g_values": "per-a" if self.g_values is None else list(self.g_values),
            "q_values": list(self.q_values),
        }

    def validate(self) -> None:
        """Reject specs that cannot produce a meaningful sweep. Individual
        bad parameter combinations inside valid ranges become error rows
        instead."""
        if not self.families:
            raise ValueError("families list is empty")
        unknown = [f for f in self.families if f not in FAMILIES]
        if unknown:
            raise ValueError(f"unknown families: {', '.join(unknown)}")
        if not self.ell_values:
            raise ValueError("ell list is empty")
        for ell in self.ell_values:
            if ell == 2:
                raise ValueError(
                    "ell = 2 is not supported; the implemented block formulas "
                    "require odd primes"
                )
            if not is_prime(ell):
                raise ValueError(f"ell values must be prime, got {ell}")
        if not self.a_values:
            raise ValueError("a list is empty")
        needs_w = [f for f in self.families if f in WEIGHT_FAMILIES]
        if needs_w and not self.w_values:
            raise ValueError(f"families {needs_w} need w values")
        needs_n = [f for f in self.families if f in (SLRANGE, SURANGE)]
        if needs_n and not self.n_values:
            raise ValueError(f"families {needs_n} need n values")

    def _q_axis(self) -> tuple[int | None, ...]:
        return self.q_values or (None,)

    def _weight_runs(self):
        """The (ell, d, a) of each run of a weight family, in row order; a
        run's rows are its w values, each over the q axis."""
        for ell in self.ell_values:
            ds = self.d_values if self.d_values is not None else _divisors(ell - 1)
            for d in ds:
                for a in self.a_values:
                    yield ell, d, a


class Row(NamedTuple):
    """One census row, a record whose fields are the report columns in
    order. A column that does not apply to the row's family is None, and so
    is every count of an ERROR or INTERNAL_MISMATCH row."""

    family: str | None = None
    n: int | None = None
    ell: int | None = None
    d: int | None = None
    a: int | None = None
    w: int | None = None
    g: int | None = None
    m: int | None = None
    k_B: int | None = None
    exactness: str | None = None
    defect_exponent: int | None = None
    abelian: bool | None = None
    verdict: str | None = None
    two_path_checked: bool | None = None

    def get(self, column: str, default=None):
        """The value in a report column, or default for a name that is not
        one, as a dict row reads."""
        return getattr(self, column) if column in self._fields else default


REPORT_COLUMNS = Row._fields

# A run's head is the first report columns of its rows, which they share:
# those before w for a weight run, the family alone for the one run of an
# SLrange, SUrange or PSLell family. A head has 1 to _HEAD columns, so the
# verdict is in the tail, the rest of a row, at _VERDICT from its end
_HEAD = REPORT_COLUMNS.index("w")
_VERDICT = REPORT_COLUMNS.index("verdict") - len(REPORT_COLUMNS)

# One row of CensusReport.to_json, at the depth and in the layout of an
# indent=2 json.dumps, with a %s for each escaped cell, split into a head
# and a tail: _JSON_HEADS[i] is the part of a head of i columns, and
# _JSON_TAILS[j] that of a tail of j columns
_json_string = json.encoder.encode_basestring_ascii
_JSON_FIELDS = [f"      {_json_string(column)}: %s" for column in REPORT_COLUMNS]
_JSON_HEADS = {
    i: "    {\n" + "".join(field + ",\n" for field in _JSON_FIELDS[:i])
    for i in range(1, _HEAD + 1)
}
_JSON_TAILS = {
    len(REPORT_COLUMNS) - i: ",\n".join(_JSON_FIELDS[i:]) + "\n    }"
    for i in range(1, _HEAD + 1)
}


def _row_cells(values) -> tuple[str, ...]:
    """The text of a sequence of column values, such as a Row: None is
    empty, a bool is lowercase, anything else is its str. A bool is tested
    by identity, since 1 == True. str refuses an int past the int/str
    conversion limit; then the ints are written with decimal_text first,
    so the common path makes no extra call per cell."""
    try:
        return tuple([
            "" if value is None
            else "true" if value is True
            else "false" if value is False
            else str(value)
            for value in values
        ])
    except ValueError:
        return _row_cells([decimal_text(v) if type(v) is int else v for v in values])


class _CensusReportFields(NamedTuple):
    runs: tuple[tuple, ...]
    metadata: dict
    errors: tuple[str, ...] = ()


class CensusReport(_CensusReportFields):
    """A census, immutable. runs holds its rows in row order, run by run.
    A run is (head, head_cells, entries): the values and the text of the
    first columns of its rows, which they share, from the family to at most
    the columns before w, and one entry per row. An entry is (tail,
    tail_cells), the values and the text of the row's other columns. A
    sweep's weight run shares the columns before w, and its rows refer to
    the entries of the sweep's block table, so rows of one block share one
    entry; a failed row has an entry of its own. The rows of an SLrange,
    SUrange or PSLell family form one run that shares the family, each row
    with an entry of its own. errors holds the message of each ERROR or
    INTERNAL_MISMATCH row, in row order.

    rows and cells are built on each read. The writers and verdicts read
    the runs only, so a census written by the CLI builds no Row."""

    __slots__ = ()

    def __new__(cls, runs, metadata, errors=()):
        runs = tuple(runs)
        for head, head_cells, _ in runs:
            if len(head) != len(head_cells) or not 1 <= len(head) <= _HEAD:
                raise ValueError(
                    f"a run head needs as many cells as values, 1 to {_HEAD}, "
                    f"got {len(head)} and {len(head_cells)}"
                )
        return super().__new__(cls, runs, metadata, tuple(errors))

    @classmethod
    def from_rows(cls, rows, metadata, errors=(), cells=()) -> CensusReport:
        """A report of rows given one by one, such as Row records, with the
        REPORT_COLUMNS text of each row: every row is a run of its own. Rows
        and cell rows that differ in number are refused."""
        rows, cells = tuple(rows), tuple(cells)
        if len(cells) != len(rows):
            raise ValueError(f"a report of {len(rows)} rows has {len(cells)} cell rows")
        runs = [
            (
                tuple(row[:_HEAD]),
                tuple(text[:_HEAD]),
                ((tuple(row[_HEAD:]), tuple(text[_HEAD:])),),
            )
            for row, text in zip(rows, cells)
        ]
        return cls(runs, metadata, errors)

    @property
    def rows(self) -> tuple[Row, ...]:
        """One Row per row, in row order."""
        return tuple([
            Row._make(head + tail)
            for head, _, entries in self.runs
            for tail, _ in entries
        ])

    @property
    def cells(self) -> tuple[tuple[str, ...], ...]:
        """The REPORT_COLUMNS text of each row, in row order."""
        return tuple([
            head_cells + tail_cells
            for _, head_cells, entries in self.runs
            for _, tail_cells in entries
        ])

    @property
    def verdicts(self) -> frozenset:
        """The set of the rows' verdicts, read from the entries; the CLI
        takes its exit code from it."""
        return frozenset(
            tail[_VERDICT] for _, _, entries in self.runs for tail, _ in entries
        )

    def _run_texts(self, head_text, tail_text, sep: str) -> list[str]:
        """The text of each run that has rows: its rows joined by sep, each
        the head_text of the run's head cells and the tail_text of its
        entry's cells. A writer joins these texts once, so it never holds a
        string per row."""
        texts = []
        for _, head_cells, entries in self.runs:
            if entries:
                head = head_text(head_cells)
                tails = [tail_text(tail_cells) for _, tail_cells in entries]
                texts.append(head + (sep + head).join(tails))
        return texts

    def to_csv(self) -> str:
        lines = [f"# {key}: {value}" for key, value in self.metadata.items()]
        lines.append(",".join(REPORT_COLUMNS))
        lines += self._run_texts(lambda head: ",".join(head) + ",", ",".join, "\n")
        lines.append("")
        return "\n".join(lines)

    def to_json(self) -> str:
        """The bytes of json.dumps({"metadata": ..., "rows": [...]}, indent=2)
        plus a newline, each row the dict of REPORT_COLUMNS to its cells. An
        indented dumps runs the pure-Python encoder, so only the metadata
        goes through it, nested one level by indenting its lines (JSON
        escapes every newline inside a string); each row fills the
        _JSON_HEADS and _JSON_TAILS parts of its run's split with its cells
        escaped by the C string encoder."""
        metadata = json.dumps(dict(self.metadata), indent=2).replace("\n", "\n  ")
        opening = '{\n  "metadata": ' + metadata + ',\n  "rows": '
        texts = self._run_texts(
            lambda head: _JSON_HEADS[len(head)] % tuple(map(_json_string, head)),
            lambda tail: _JSON_TAILS[len(tail)] % tuple(map(_json_string, tail)),
            ",\n",
        )
        if not texts:
            return opening + "[]\n}\n"
        texts[0] = opening + "[\n" + texts[0]
        texts[-1] += "\n  ]\n}\n"
        return ",\n".join(texts)

    def to_markdown(self) -> str:
        lines = [f"- {key}: {value}" for key, value in self.metadata.items()]
        lines.append("")
        lines.append("| " + " | ".join(REPORT_COLUMNS) + " |")
        lines.append("|" + "|".join(" --- " for _ in REPORT_COLUMNS) + "|")
        lines += self._run_texts(
            lambda head: "| " + " | ".join(head) + " | ",
            lambda tail: " | ".join(tail) + " |",
            "\n",
        )
        lines.append("")
        return "\n".join(lines)

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        if fmt == "md":
            return self.to_markdown()
        raise ValueError(f"unknown format {fmt!r}")


def spec_hash(spec: SweepSpec) -> str:
    """The spec a report was swept from, as written in its metadata: the
    first 16 hex digits of SHA-256 over the compact, key-sorted JSON of
    spec.canonical(). A listed value past the int/str conversion limit,
    which json cannot write, makes it hash that JSON with every listed
    value written as its decimal_text string instead.

    SHA-256 comes from the interpreter's builtin module (_sha2 from Python
    3.12 on, _sha256 before), as random.py takes its sha512: the general
    hash module maps OpenSSL, which costs the process more peak memory
    than a whole small census. The import sits here, so a run that hashes
    no spec loads no hash module at all."""
    try:
        # by version, since a failed import searches the whole path
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:  # an interpreter built without the builtin module
        from hashlib import sha256
    canon = spec.canonical()
    try:
        text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    except ValueError:
        # an int past the int/str conversion limit, which json writes by
        # str: hash every listed value as its decimal_text string instead
        texts = {k: [decimal_text(v) for v in vs] if type(vs) is list else vs for k, vs in canon.items()}
        text = json.dumps(texts, sort_keys=True, separators=(",", ":"))
    return sha256(text.encode()).hexdigest()[:16]


def _row_failure(exc: Exception) -> tuple[str, str]:
    """Verdict and error text of a row whose evaluation raised exc: an
    ArithmeticError is a fault in the program, anything else a parameter
    combination that does not make a block. An OverflowError is the one
    ArithmeticError that is not: a parameter too large to index a table."""
    if isinstance(exc, ArithmeticError) and not isinstance(exc, OverflowError):
        return INTERNAL_MISMATCH, f"internal mismatch: {exc}"
    return ERROR, str(exc)


def _param_text(**param) -> str:
    """The repr of the dict param, with each int written by decimal_text, so
    a w or n past the int/str conversion limit still makes a message."""
    items = (f"{k!r}: {decimal_text(v) if type(v) is int else repr(v)}" for k, v in param.items())
    return "{" + ", ".join(items) + "}"


def _weight_axis(ws: tuple[int, ...]) -> tuple[dict, dict, list[int]]:
    """What a sweep checks once about its w values, for all its runs: the
    w, g and m cells of each distinct w; the _row_failure of each w that
    _require_weight refuses; and the distinct accepted w, largest first."""
    distinct = dict.fromkeys(ws)
    failures = {}
    for w in distinct:
        try:
            _require_weight(w)
        except Exception as exc:
            failures[w] = _row_failure(exc)
    accepted = sorted((w for w in distinct if w not in failures), reverse=True)
    return {w: _row_cells((w, None, None)) for w in distinct}, failures, accepted


def _weight_run(
    family: str,
    ell: int,
    d: int,
    a: int,
    spec: SweepSpec,
    axis: tuple[dict, dict, list[int]],
    table: dict,
    cache: CountCache,
    check_two_path: bool,
) -> tuple[tuple, list[str]]:
    """The CensusReport run of the rows that share (family, ell, d, a), and
    their error messages, in row order: over the spec's w values, each over
    its q axis. axis is the sweep's _weight_axis.

    Each row fails at the first check that refuses it, in the order
    block_invariants checks: the profile, then the row's own w, then the
    _weight_group checks. The profile and group checks run once per q and
    the w check once per sweep, and each failure is kept for every row
    that reaches it. All q that pass share one block key, since the run
    fixes (d, a).

    table is the sweep's block table: table[ell, a, denom, exactness] maps
    each w to the block's entry, its tail (w, g, m and the _weight_values)
    as values and as cells, each formatted once. The run evaluates its
    missing blocks largest w first, so the first grows every grow-only
    CountCache table it reads to the length the run needs, and the others
    read prefixes. The table stores no failure: a mismatch is kept for
    this run only, so every run names its own family.

    Then the run's entries are listed in row order: a row that passes
    every check refers to its w's block entry, and a failed row gets an
    entry of its own."""
    w_cells, w_failures, accepted = axis
    qs = spec._q_axis()
    # per q, the failure of the profile check and of the group check, each
    # None where it passes; no row reaches the group check without a w
    checks = []
    block = None
    for q in qs:
        try:
            profile = EllProfile(ell, d, a, q)
        except Exception as exc:
            checks.append((_row_failure(exc), None))
            continue
        group_failure = None
        if accepted:
            try:
                block = profile, _weight_group(family, profile)
            except Exception as exc:
                group_failure = _row_failure(exc)
        checks.append((None, group_failure))
    known, block_failures = {}, {}
    if block is not None:
        profile, group = block
        known = table.setdefault((ell, a, group[0], exactness_for(family)), {})
        for w in accepted:
            if w in known:
                continue
            try:
                values = _weight_values(family, profile, group, w, cache, check_two_path)
            except Exception as exc:
                block_failures[w] = _row_failure(exc)
            else:
                known[w] = (w, None, None) + values, w_cells[w] + _row_cells(values)
    entries, errors = [], []
    for w in spec.w_values:
        w_failure = w_failures.get(w)
        block_failure = block_failures.get(w)
        for q, (profile_failure, group_failure) in zip(qs, checks):
            failure = profile_failure or w_failure or group_failure or block_failure
            # a row that passes every check has its w's block entry
            if failure is None:
                entries.append(known[w])
                continue
            result, text = failure
            failed = (None, None, None, None, result, None)
            entries.append(((w, None, None) + failed, w_cells[w] + _row_cells(failed)))
            param = _param_text(family=family, ell=ell, d=d, a=a, w=w, q=q)
            errors.append(f"{family} row {param}: {text}")
    head = (family, None, ell, d, a)
    return (head, _row_cells(head), tuple(entries)), errors


def _principal_run(
    family: str, spec: SweepSpec, cache: CountCache, check_two_path: bool
) -> tuple[tuple, list[str]]:
    """The CensusReport run of an SLrange, SUrange or PSLell family, which
    shares the family, and its error messages, in row order: over ell, a,
    then n and g (the spec's g values, or a alone) for the special linear
    range, each over the q axis. Each row has an entry of its own from one
    principal_query and one block_invariants call, and shows the query's g
    and m once the query is built."""
    entries, errors = [], []
    for ell in spec.ell_values:
        for a in spec.a_values:
            if family == PSLELL:
                keys = [(ell, None)]
            else:
                gs = spec.g_values if spec.g_values is not None else (a,)
                keys = [(n, g) for n in spec.n_values for g in gs]
            for n, g in keys:
                for q in spec._q_axis():
                    shown_g, m = g, None
                    try:
                        query = principal_query(family, EllProfile(ell, 1, a, q), n, g)
                        shown_g, m = query.g, query.m
                        values = block_invariants(query, cache, check_two_path)
                    except Exception as exc:
                        result, text = _row_failure(exc)
                        values = (None, None, None, None, result, None)
                        param = dict(family=family, ell=ell, d=1, a=a, n=n, g=g, q=q)
                        if family == PSLELL:
                            del param["g"]
                        errors.append(f"{family} row {_param_text(**param)}: {text}")
                    tail = (n, ell, 1, a, None, shown_g, m) + values
                    entries.append((tail, _row_cells(tail)))
    head = (family,)
    return (head, _row_cells(head), tuple(entries)), errors


def sweep(
    spec: SweepSpec,
    cache: CountCache | None = None,
    check_two_path: bool = True,
    timestamp: str | None = None,
) -> CensusReport:
    """Evaluate every row of the sweep and assemble the report: its runs
    and errors in row order: families outermost, then ell, d (the divisors
    of ell - 1 where the spec gives none), a, then w and q for a weight
    family; SLrange and SUrange rows run over ell, a, n, g and q, PSLell
    rows over ell, a and q.

    The rows of a weight family come in runs that share (family, ell, d, a)
    and differ in w and q (_weight_run). The w values are checked once per
    call, the profile and group checks once per q of a run, and each
    distinct block (ell, a, slot denominator, exactness, w) is evaluated and
    formatted once per call, in one block table: GL and GU share a block at
    equal d, as do Sp, SOodd and the GO even orthogonal families at equal
    2d', and GL at d = 2 with them at d' = 1; the SO even orthogonal
    families share theirs, which give upper bounds. The census-wide grid's
    7,600 rows are 1,500 such evaluations. The counts depend on the block
    alone, since the colour counts and the cached slot series are functions
    of (ell, a, denom), so sharing them weakens no check. Every row still
    gets the verdict, error text and report bytes of a block_invariants call
    of its own.

    The report keeps one reference per row of a weight run to its block's
    entry, and no Row: a weight family's memory grows with the block table
    and by one reference per row. The table itself lives for this call
    only. The rows of an SLrange, SUrange or PSLell family form one run,
    which shares the family; each row has an entry of its own, the values
    and text of its other columns.

    The cache tables are prefix-stable, so the order in which a run is
    evaluated changes no value: the report bytes are those of an evaluation
    in row order."""
    cache = cache or shared_cache
    table = {}
    axis = _weight_axis(spec.w_values)
    runs, errors = [], []
    for family in spec.families:
        if family in WEIGHT_FAMILIES:
            for ell, d, a in spec._weight_runs():
                run, run_errors = _weight_run(
                    family, ell, d, a, spec, axis, table, cache, check_two_path
                )
                runs.append(run)
                errors += run_errors
        else:
            run, run_errors = _principal_run(family, spec, cache, check_two_path)
            runs.append(run)
            errors += run_errors
    metadata = {
        "tool": "blockcensus",
        "version": __version__,
        "spec_hash": spec_hash(spec),
    }
    if timestamp is not None:
        metadata["timestamp"] = timestamp
    return CensusReport(runs, metadata, errors)
