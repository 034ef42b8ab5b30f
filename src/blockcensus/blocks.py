"""Block invariants of finite classical groups at odd primes: exact
character counts per block, defect group orders, abelianness, and the
verdict of the strong conjecture check k(B) <= |D| (strict unless the
defect group is abelian). Includes the sweep engine that turns parameter
ranges into a deterministic report.
"""

from __future__ import annotations

import hashlib
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
    """The (d, a) shape of a prime ell relative to a field size q: d is the
    order parameter and a the valuation of q**d - 1 at ell. Profiles may be
    synthetic (q omitted) so sweeps need not hunt for witness field sizes."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not is_prime(self.ell):
            raise ValueError(f"ell must be prime, got {self.ell}")
        if self.a < 1:
            raise ValueError("a must be >= 1")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.ell == 2:
            if self.d not in (1, 2):
                raise ValueError("for ell = 2 the order parameter is taken mod 4")
        elif (self.ell - 1) % self.d:
            raise ValueError(
                f"d={self.d} must divide ell-1={self.ell - 1} for odd ell"
            )
        return self

    @property
    def dprime(self) -> int:
        return slots.dprime_of(self.d)


def _profile(x: int, ell: int, q: int, d: int | None = None) -> EllProfile:
    """Profile of ell relative to x = q or -q: d is the order of x mod ell
    (unless given) and a the valuation of x**d - 1, by modular powers alone."""
    if d is None:
        d = next(t for t in _divisors(ell - 1) if pow(x, t, ell) == 1)
    a = 1
    while pow(x, d, ell ** (a + 1)) == 1:
        a += 1
    return EllProfile(ell, d, a, q)


def ell_profile(q: int, ell: int) -> EllProfile:
    """Profile of ell relative to q: multiplicative order of q mod ell for
    odd ell (mod 4 for ell = 2, where the block formulas then refuse to
    run), and the exact valuation a of q**d - 1."""
    if not is_prime(ell):
        raise ValueError(f"ell must be prime, got {ell}")
    if q < 2:
        raise ValueError("q must be >= 2")
    if q % ell == 0:
        raise ValueError(f"ell={ell} divides q={q}; profile undefined")
    if ell == 2:
        return _profile(q, ell, q, 1 if q % 4 == 1 else 2)
    return _profile(q, ell, q)


def ennola_profile(q: int, ell: int) -> EllProfile:
    """Profile with q replaced by -q, the standard transfer to the unitary
    groups. Odd ell only."""
    if not is_prime(ell) or ell == 2:
        raise ValueError("ennola profiles are defined for odd primes only")
    if q < 2:
        raise ValueError("q must be >= 2")
    if q % ell == 0:
        raise ValueError(f"ell={ell} divides q={q}; profile undefined")
    return _profile(-q, ell, q)


class _BlockQueryFields(NamedTuple):
    family: str
    profile: EllProfile
    w: int | None = None
    n: int | None = None
    g: int = 0
    m: int = 0


class BlockQuery(_BlockQueryFields):
    """Addresses one block: a family tag, an ell-adic profile, and either a
    weight w (weight-addressed families) or a rank n with the index data
    (g, m) for the principal blocks of the special linear range. The index
    valuation g is at most the profile's a."""

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
        if self.w is not None and self.n is not None:
            # GL and GU spend d*w of the rank on a weight-w block, as
            # oracle.census_matches_weight_vectors splits n; the other
            # families spend d'*w
            if self.family in (GL, GU):
                step, size = "d", self.profile.d
            else:
                step, size = "d'", self.profile.dprime
            if self.w * size > self.n:
                raise ValueError(
                    f"weight {self.w} does not fit into rank {self.n} "
                    f"(w * {step} = {self.w * size})"
                )
        if self.family in (SOEVEN_PLUS, SOEVEN_MINUS, GOEVEN_PLUS, GOEVEN_MINUS):
            if self.n is not None and self.n < 4:
                raise ValueError("even orthogonal families need n >= 4")
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
        raise ValueError(f"{name} = {value} is too large to index a table")


def _require_odd(profile: EllProfile) -> None:
    if profile.ell == 2:
        raise ValueError(
            "ell = 2 unsupported: the block formulas here require odd ell"
        )


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
    if query.n is None:
        raise ValueError("principal-block query needs n")
    profile = query.profile
    _require_odd(profile)
    ell, a = profile.ell, profile.a
    n, g, m = query.n, query.g, query.m
    u = min(m, g)
    total = k_ell_a_w(ell, a, n, cache)
    for i in range(1, u + 1):
        step = ell**i
        if n % step:
            continue
        total += ell ** (2 * i - 2) * (ell**2 - 1) * k_ell_a_w(ell, a, n // step, cache)
    return exact_div(total, ell**g)


def k_principal_pslell(ell: int, a: int, cache: CountCache | None = None) -> int:
    """Character count of the principal block of the simple quotient in the
    boundary case n = ell, folded down from the special linear count; the
    division by ell is exact."""
    profile = EllProfile(ell, 1, a)
    _require_odd(profile)
    query = BlockQuery(SLRANGE, profile, n=ell, g=a, m=1)
    k_sl = k_principal_slrange(query, cache)
    return exact_div(k_sl + ell - 1, ell)


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
        return a * ell + val_factorial(ell, ell) - a - 1
    raise ValueError(f"unknown family {family!r}")


def is_abelian_defect(w: int, ell: int) -> bool:
    """Whether the weight-w wreath-shaped defect group is abelian: true
    exactly when w < ell, the same condition as val_factorial(ell, w) = 0."""
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
    checks that do not depend on w, then the slot denominator and the head
    and tail colour counts (denom, head, tail). A sweep runs it once per q
    of a run, and keeps a failure for every row that reaches it
    (_weight_run).

    Head colour count is denom + (ell**a - 1)/denom and tail colour count
    (ell**a - ell**(a-1))/denom, denom = slots.slot_denominator. The slot
    path shares denom, so the two-path check cannot test it (test_slots pins
    it)."""
    _require_odd(profile)
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
                f"closed form {k}, slot calculus {other}"
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
    """Full invariant bundle for one block query.

    For weight-addressed families the closed-form count is recomputed along
    the slot-calculus path and the two values must agree exactly; a
    mismatch raises instead of producing a row, because it would mean the
    two formula transcriptions disagree."""
    cache = cache or shared_cache
    family = query.family
    profile = query.profile
    if family in WEIGHT_FAMILIES:
        group = _weight_group(family, profile)
        if query.w is None:
            raise ValueError("weight-addressed query needs w")
        return BlockInvariants(
            *_weight_values(family, profile, group, query.w, cache, check_two_path)
        )
    _require_odd(profile)
    _check_profile_consistency(family, profile)
    if family in (SLRANGE, SURANGE):
        k = k_principal_slrange(query, cache)
        exp = defect_exponent(family, profile.ell, profile.a, n=query.n, g=query.g)
        abelian = query.n < profile.ell
    elif family == PSLELL:
        k = k_principal_pslell(profile.ell, profile.a, cache)
        exp = defect_exponent(family, profile.ell, profile.a)
        # Simple quotient at n = ell: the quotient of the wreath-point defect
        # group by the centre is abelian only in the very smallest case.
        abelian = (profile.ell, profile.a) == (3, 1)
    else:
        raise ValueError(f"unknown family {family!r}")
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

    def row_params(self) -> list[dict]:
        """Flatten the ranges into per-row parameter dicts, in the fixed
        deterministic order (families outermost, then ell, d, a, then the
        weight or rank axis)."""
        rows = []
        qs = self._q_axis()
        for family in self.families:
            if family in WEIGHT_FAMILIES:
                for ell, d, a in self._weight_runs():
                    rows += [
                        _weight_param(family, ell, d, a, w, q)
                        for w in self.w_values
                        for q in qs
                    ]
            else:
                rows += self._principal_params(family)
        return rows

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

    def _principal_params(self, family: str) -> list[dict]:
        """The row_params dicts of a special-linear-range or PSLell family."""
        rows = []
        qs = self._q_axis()
        if family in (SLRANGE, SURANGE):
            for ell in self.ell_values:
                for a in self.a_values:
                    gs = self.g_values if self.g_values is not None else (a,)
                    for n in self.n_values:
                        for g in gs:
                            for q in qs:
                                rows.append(
                                    dict(family=family, ell=ell, d=1, a=a, n=n, g=g, q=q)
                                )
        elif family == PSLELL:
            for ell in self.ell_values:
                for a in self.a_values:
                    for q in qs:
                        rows.append(dict(family=family, ell=ell, d=1, a=a, n=ell, q=q))
        return rows


def _weight_param(family: str, ell: int, d: int, a: int, w: int, q: int | None) -> dict:
    """The row_params dict of a weight-family row."""
    return {"family": family, "ell": ell, "d": d, "a": a, "w": w, "q": q}


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

# One row of CensusReport.to_json, at the depth and in the layout of an
# indent=2 json.dumps, with a %s for each escaped cell
_json_string = json.encoder.encode_basestring_ascii
_JSON_ROW = "    {\n" + ",\n".join(
    f"      {_json_string(column)}: %s" for column in REPORT_COLUMNS
) + "\n    }"


def _row_cells(values) -> tuple[str, ...]:
    """The text of a sequence of column values, such as a Row: None is
    empty, a bool is lowercase, anything else is its str. A bool is tested
    by identity, since 1 == True."""
    return tuple([
        "" if value is None
        else "true" if value is True
        else "false" if value is False
        else str(value)
        for value in values
    ])


class _CensusReportFields(NamedTuple):
    rows: tuple[Row, ...]
    metadata: dict
    errors: tuple[str, ...] = ()
    cells: tuple[tuple[str, ...], ...] | None = None


class CensusReport(_CensusReportFields):
    """A census, immutable: rows holds one Row per row, in
    SweepSpec.row_params order, and cells the REPORT_COLUMNS text of each
    row, built together with the rows; errors holds the message of each
    ERROR or INTERNAL_MISMATCH row, in row order. A report built without
    cells derives them from its rows, one _row_cells call per row. The
    writers read cells only."""

    __slots__ = ()

    def __new__(cls, rows, metadata, errors=(), cells=None):
        rows = tuple(rows)
        if cells is None:
            cells = tuple(map(_row_cells, rows))
        else:
            cells = tuple(cells)
        if len(cells) != len(rows):
            raise ValueError(f"a report of {len(rows)} rows has {len(cells)} cell rows")
        return super().__new__(cls, rows, metadata, tuple(errors), cells)

    def to_csv(self) -> str:
        lines = [f"# {key}: {value}" for key, value in self.metadata.items()]
        lines.append(",".join(REPORT_COLUMNS))
        lines += map(",".join, self.cells)
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """The bytes of json.dumps({"metadata": ..., "rows": [...]}, indent=2)
        plus a newline, each row the dict of REPORT_COLUMNS to its cells. An
        indented dumps runs the pure-Python encoder, so only the metadata
        goes through it, nested one level by indenting its lines (JSON
        escapes every newline inside a string); each row fills _JSON_ROW
        with its cells escaped by the C string encoder."""
        metadata = json.dumps(dict(self.metadata), indent=2).replace("\n", "\n  ")
        if self.cells:
            rows = "[\n" + ",\n".join(
                [_JSON_ROW % tuple(map(_json_string, row)) for row in self.cells]
            ) + "\n  ]"
        else:
            rows = "[]"
        return '{\n  "metadata": ' + metadata + ',\n  "rows": ' + rows + "\n}\n"

    def to_markdown(self) -> str:
        lines = [f"- {key}: {value}" for key, value in self.metadata.items()]
        lines.append("")
        lines.append("| " + " | ".join(REPORT_COLUMNS) + " |")
        lines.append("|" + "|".join(" --- " for _ in REPORT_COLUMNS) + "|")
        lines += ["| " + " | ".join(row) + " |" for row in self.cells]
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        if fmt == "md":
            return self.to_markdown()
        raise ValueError(f"unknown format {fmt!r}")


def spec_hash(spec: SweepSpec) -> str:
    canon = json.dumps(spec.canonical(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _row_failure(exc: Exception) -> tuple[str, str]:
    """Verdict and error text of a row whose evaluation raised exc: an
    ArithmeticError is a fault in the program, anything else a parameter
    combination that does not make a block. An OverflowError is the one
    ArithmeticError that is not: a parameter too large to index a table."""
    if isinstance(exc, ArithmeticError) and not isinstance(exc, OverflowError):
        return INTERNAL_MISMATCH, f"internal mismatch: {exc}"
    return ERROR, str(exc)


def _weight_axis(ws: tuple[int, ...]) -> tuple[tuple, dict, list[int]]:
    """What a sweep checks once about its w values, for all its runs: the
    w, g and m cells of each w in spec order; the _row_failure of each w
    that _require_weight refuses; and the distinct accepted w, largest
    first."""
    distinct = dict.fromkeys(ws)
    failures = {}
    for w in distinct:
        try:
            _require_weight(w)
        except Exception as exc:
            failures[w] = _row_failure(exc)
    accepted = sorted((w for w in distinct if w not in failures), reverse=True)
    return tuple(_row_cells((w, None, None)) for w in ws), failures, accepted


def _weight_run(
    family: str,
    ell: int,
    d: int,
    a: int,
    spec: SweepSpec,
    axis: tuple[tuple, dict, list[int]],
    table: dict,
    cache: CountCache,
    check_two_path: bool,
) -> tuple[list[Row], list[tuple[str, ...]], list[str]]:
    """The rows of one run, which share (family, ell, d, a), their cells and
    their error messages, in row_params order: over the spec's w values,
    each over its q axis. axis is the sweep's _weight_axis.

    Each row fails at the first check that refuses it, in the order
    block_invariants checks: the profile, then the row's own w, then the
    _weight_group checks. The profile and group checks run once per q and
    the w check once per sweep, and each failure is kept for every row
    that reaches it. All q that pass share one block key, since the run
    fixes (d, a).

    table is the sweep's block table: table[ell, a, denom, exactness] maps
    each w to the block's _weight_values and their six cells. The run
    evaluates its missing blocks largest w first, so the first grows every
    grow-only CountCache table it reads to the length the run needs, and
    the others read prefixes. The table stores no failure: a mismatch is
    kept for this run only, so every run names its own family.

    Then the rows are assembled in row order from table reads and tuples: a
    row's cells are the run's head cells, the w cells and the block's
    cells, each formatted once."""
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
                known[w] = values, _row_cells(values)
    head = (family, None, ell, d, a)
    head_cells = _row_cells(head)
    rows, cells, errors = [], [], []
    for w, w_cell in zip(spec.w_values, w_cells):
        row_head = head + (w, None, None)
        row_head_cells = head_cells + w_cell
        w_failure = w_failures.get(w)
        block_failure = block_failures.get(w)
        entry = known.get(w)
        if entry is not None:
            # Row._make without its Python-level call, which cost about
            # 3 ms of census-wide's sweep; the parts have fixed lengths
            row = tuple.__new__(Row, row_head + entry[0])
            row_cells = row_head_cells + entry[1]
        for q, (profile_failure, group_failure) in zip(qs, checks):
            failure = profile_failure or w_failure or group_failure or block_failure
            # a row that passes every check has its w's block entry
            if failure is None:
                rows.append(row)
                cells.append(row_cells)
                continue
            result, text = failure
            failed = (None, None, None, None, result, None)
            rows.append(Row._make(row_head + failed))
            cells.append(row_head_cells + _row_cells(failed))
            errors.append(f"{family} row {_weight_param(family, ell, d, a, w, q)}: {text}")
    return rows, cells, errors


def _principal_row(
    param: dict, cache: CountCache, check_two_path: bool
) -> tuple[Row, str | None]:
    """One special-linear-range or PSLell sweep row and its error message,
    if any, from one BlockQuery and one block_invariants call. The row
    shows the query's g and m once the query is built."""
    family, ell, d, a, n = (param[key] for key in ("family", "ell", "d", "a", "n"))
    g, m = param.get("g"), None
    try:
        profile = EllProfile(ell, d, a, param["q"])
        if family == PSLELL:
            query = BlockQuery(family, profile, n=n, g=profile.a, m=1)
        else:
            # BlockQuery refuses n < 1; valuation(ell, 0) is undefined
            query = BlockQuery(
                family, profile, n=n, g=g,
                m=min(valuation(profile.ell, n), profile.a) if n >= 1 else 0,
            )
        g, m = query.g, query.m
        inv = block_invariants(query, cache, check_two_path)
    except Exception as exc:
        result, text = _row_failure(exc)
        values = (None, None, None, None, result, None)
        message = f"{family} row {param}: {text}"
    else:
        values = (
            inv.k_B, inv.exactness, inv.defect_exponent, inv.abelian_defect,
            inv.verdict, inv.two_path_checked,
        )
        message = None
    return Row._make((family, n, ell, d, a, None, g, m) + values), message


def sweep(
    spec: SweepSpec,
    cache: CountCache | None = None,
    check_two_path: bool = True,
    timestamp: str | None = None,
) -> CensusReport:
    """Evaluate every row of the sweep and assemble the report: its rows,
    their cells and errors in SweepSpec.row_params order.

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
    of (ell, a, denom), so sharing them weakens no check. The block table
    lives for this call only. Every row still gets the verdict, error text
    and report bytes of a block_invariants call of its own.

    The cache tables are prefix-stable, so the order in which a run is
    evaluated changes no value: the report bytes are those of an evaluation
    in row order."""
    cache = cache or shared_cache
    table = {}
    axis = _weight_axis(spec.w_values)
    rows, cells, errors = [], [], []
    for family in spec.families:
        if family in WEIGHT_FAMILIES:
            for ell, d, a in spec._weight_runs():
                run_rows, run_cells, run_errors = _weight_run(
                    family, ell, d, a, spec, axis, table, cache, check_two_path
                )
                rows += run_rows
                cells += run_cells
                errors += run_errors
        else:
            for param in spec._principal_params(family):
                row, message = _principal_row(param, cache, check_two_path)
                rows.append(row)
                cells.append(_row_cells(row))
                if message:
                    errors.append(message)
    metadata = {
        "tool": "blockcensus",
        "version": __version__,
        "spec_hash": spec_hash(spec),
    }
    if timestamp is not None:
        metadata["timestamp"] = timestamp
    return CensusReport(rows=rows, metadata=metadata, errors=errors, cells=cells)
