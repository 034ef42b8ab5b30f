"""Command line front end.

Subcommands:
  census             sweep block parameters and report k(B) vs defect order
  verify-exceptional run the static-table checks (class data, isolated
                     5-blocks, series bounds, defining-characteristic margins)
  oracle             confront brute-force censuses with the calculus
  bounds             numeric property sweeps for the auxiliary inequalities

Exit codes: 0 all checks pass, 1 usage or parameter error, 2 a verification
check failed (a VIOLATION or INTERNAL_MISMATCH row, a mismatched table, a
failed bound, an oracle census that finds itself inconsistent).
"""

from __future__ import annotations

import argparse
import functools
import operator
import sys
import time
from pathlib import Path

from . import blocks, oracle, tables
from ._version import __version__
from .counting import gmpn_irr_count, multipartition_count, p_ell, p_ell_row

__all__ = ["main"]


class CliError(Exception):
    """Usage or parameter problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would SystemExit(2); we want 1
        raise CliError(message)


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Parse '3,5,7' or '1..8' or a mix like '1,4..6'."""
    out: list[int] = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            raise CliError(f"empty entry in list {text!r}")
        if ".." in piece:
            lo_text, hi_text = piece.split("..", 1)
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise CliError(f"bad range {piece!r}") from None
            if hi < lo:
                raise CliError(f"descending range {piece!r}")
            out.extend(range(lo, hi + 1))
        else:
            try:
                out.append(int(piece))
            except ValueError:
                raise CliError(f"bad integer {piece!r}") from None
    return tuple(out)


def _read_config(path: str) -> dict[str, list[str]]:
    """Flat key = value lines; '#' starts a comment; repeated keys stack."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from None
    data: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        data.setdefault(key.strip(), []).append(value.strip())
    return data


def _gather(flag_values, config: dict[str, list[str]], key: str) -> list[str]:
    """Command line values win over config values for the same key."""
    if flag_values:
        return list(flag_values)
    return config.get(key, [])


def _int_values(flag_values, config, key) -> tuple[int, ...]:
    out: list[int] = []
    for text in _gather(flag_values, config, key):
        out.extend(_parse_int_list(text))
    return tuple(out)


# Built once per process: parse_args reads the tree and changes nothing in
# it, so every main call can share it.
@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    parser = _Parser(prog="blockcensus", description=__doc__)
    parser.add_argument("--version", action="version", version=f"blockcensus {__version__}")
    sub = parser.add_subparsers(dest="command")

    census = sub.add_parser("census", help="sweep block parameters")
    census.add_argument("--family", action="append", default=[], metavar="NAME[,NAME..]")
    census.add_argument("--ell", action="append", default=[], metavar="LIST")
    census.add_argument("--d", action="append", default=[], metavar="LIST|divisors")
    census.add_argument("--a", action="append", default=[], metavar="LIST")
    census.add_argument("--w", action="append", default=[], metavar="LIST")
    census.add_argument("--n", action="append", default=[], metavar="LIST")
    census.add_argument("--g", action="append", default=[], metavar="LIST")
    census.add_argument("--q", action="append", default=[], metavar="LIST")
    census.add_argument("--config", metavar="PATH")
    census.add_argument("--format", choices=("csv", "json", "md"), default=None)
    census.add_argument("--out", metavar="PATH")
    census.add_argument("--strip-timestamp", action="store_true")
    census.add_argument(
        "--no-two-path",
        action="store_true",
        help="skip the independent slot-calculus recomputation of each row",
    )

    verify = sub.add_parser("verify-exceptional", help="check the static tables")
    verify.add_argument("--table", choices=tuple(VERIFY_SECTIONS), default=None)
    verify.add_argument("--data-dir", metavar="DIR")

    orc = sub.add_parser("oracle", help="brute-force cross-checks")
    orc.add_argument("--gl", action="append", default=[], metavar="N,Q,ELL")
    orc.add_argument("--gmpn", action="append", default=[], metavar="M,P,N")
    orc.add_argument("--multi", action="append", default=[], metavar="S,T")

    bounds = sub.add_parser("bounds", help="auxiliary inequality sweeps")
    bounds.add_argument("--wmax", type=int, default=5000)
    bounds.add_argument("--nmax", type=int, default=40)
    return parser


# ---------------------------------------------------------------------------
# census


def _census_spec(args, config) -> blocks.SweepSpec:
    families: list[str] = []
    for text in _gather(args.family, config, "family"):
        families.extend(p.strip() for p in text.split(",") if p.strip())
    d_texts = _gather(args.d, config, "d")
    if any(t == "divisors" for t in d_texts):
        if len(d_texts) > 1:
            raise CliError("d = divisors cannot be mixed with explicit d values")
        d_values = None
    elif d_texts:
        d_values = tuple(v for t in d_texts for v in _parse_int_list(t))
    else:
        d_values = None
    a_values = _int_values(args.a, config, "a") or (1,)
    g_texts = _gather(args.g, config, "g")
    g_values = (
        tuple(v for t in g_texts for v in _parse_int_list(t)) if g_texts else None
    )
    return blocks.SweepSpec(
        families=tuple(families),
        ell_values=_int_values(args.ell, config, "ell"),
        d_values=d_values,
        a_values=a_values,
        w_values=_int_values(args.w, config, "w"),
        n_values=_int_values(args.n, config, "n"),
        g_values=g_values,
        q_values=_int_values(args.q, config, "q"),
    )


def _cmd_census(args) -> int:
    config = _read_config(args.config) if args.config else {}
    unknown = set(config) - {"family", "ell", "d", "a", "w", "n", "g", "q", "format"}
    if unknown:
        raise CliError(f"unknown config keys: {', '.join(sorted(unknown))}")
    spec = _census_spec(args, config)
    try:
        spec.validate()
    except ValueError as exc:
        raise CliError(str(exc)) from None
    fmt = args.format or config.get("format", ["csv"])[-1]
    if fmt not in ("csv", "json", "md"):
        raise CliError(f"unknown format {fmt!r}")
    timestamp = None
    if not args.strip_timestamp:
        # imported here, so a census without a timestamp never loads it
        from datetime import datetime, timezone

        timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    report = blocks.sweep(spec, check_two_path=not args.no_two_path, timestamp=timestamp)
    text = report.render(fmt)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(text)
    for message in report.errors:
        print(f"error: {message}", file=sys.stderr)
    verdicts = {row.verdict for row in report.rows}
    return 2 if {blocks.VIOLATION, blocks.INTERNAL_MISMATCH} & verdicts else 0


# ---------------------------------------------------------------------------
# verify-exceptional


def _class_table_checks(name: str, data_dir) -> list[tuple[str, bool, str]]:
    results = []
    try:
        table = tables.class_table(name, data_dir=data_dir)
    except Exception as exc:
        return [(f"{name} load", False, str(exc))]
    identity = table.identity_row()
    expected_identity = tables.unipotent_count(table.group_label, data_dir=None)
    results.append(
        (
            f"{name} identity row",
            identity.e_count == expected_identity,
            f"row {identity.centralizer_label}: counts {identity.e_count}, "
            f"full-group unipotent count {expected_identity}",
        )
    )
    for row in table.rows:
        predicted = tables.label_product_count(row.centralizer_label)
        if predicted is None:
            continue
        results.append(
            (
                f"{name} row {row.centralizer_label}",
                row.e_count == predicted,
                f"stored {row.e_count}, product of factors {predicted}",
            )
        )
    sum_e, sum_sizes, holds = tables.average_check(table)
    expected = tables.EXPECTED_CLASS_SUMS[name]
    results.append(
        (
            f"{name} sums",
            (sum_e, sum_sizes) == expected,
            f"got ({sum_e}, {sum_sizes}), expected {expected}",
        )
    )
    results.append(
        (
            f"{name} average below one",
            holds,
            f"character sum {sum_e} vs torsion count {sum_sizes}",
        )
    )
    torsion = sum_sizes
    ell_power = torsion > 0
    while ell_power and torsion % table.ell == 0:
        torsion //= table.ell
    results.append(
        (
            f"{name} torsion count is a power of {table.ell}",
            ell_power and torsion == 1,
            f"sum of class sizes {sum_sizes}",
        )
    )
    return results


def _e8_checks(data_dir) -> list[tuple[str, bool, str]]:
    results = []
    try:
        rows = tables.e8_isolated_rows(data_dir=data_dir)
    except Exception as exc:
        return [("E8-5blocks load", False, str(exc))]
    results.append(("E8-5blocks row count", len(rows) == 15, f"{len(rows)} rows"))
    coeff_census = {8: 0, 5: 0, 4: 0}
    shape_ok = True
    bad = ""
    for row in rows:
        coeff_census[row.defect_coeff] += 1
        wants_const = 1 if row.defect_coeff == 8 else 0
        if row.defect_const != wants_const:
            shape_ok = False
            bad = f"row {row.centralizer_label} / {row.levi_label}"
    results.append(
        (
            "E8-5blocks defect shapes",
            shape_ok and coeff_census == {8: 4, 5: 3, 4: 8},
            bad or f"coefficient census {coeff_census}",
        )
    )
    spot = {8: 5**9, 5: 5**5, 4: 5**4}
    spot_ok = all(
        tables.e8_defect_order(row, 1) == spot[row.defect_coeff] for row in rows
    )
    results.append(
        ("E8-5blocks defect orders at a=1", spot_ok, "orders 5^9 / 5^5 / 5^4")
    )
    for a in (1, 2):
        ok = tables.e8_series_bound_check(a, rows)
        results.append(
            (f"E8-5blocks series bound a={a}", ok, "product bound vs defect order")
        )
    return results


def _defining_char_checks(data_dir) -> list[tuple[str, bool, str]]:
    results = []
    try:
        data = tables.root_systems(data_dir=data_dir)
    except Exception as exc:
        return [("defining-char load", False, str(exc))]
    big = [d for d in data if d.positive_roots - d.rank >= 5]
    ok = all(tables.fg_margin(d, 2) for d in big)
    results.append(
        (
            "defining-char margin at q=2",
            ok and len(big) > 0,
            f"{len(big)} systems with at least 5 excess positive roots",
        )
    )
    # the B2 and A1 rows come from the table already read; a data_dir file
    # that lacks one fails its check
    b2 = next((d for d in data if d.label == "B2"), None)
    if b2 is None:
        results.append(("defining-char B2 crossover", False, "no B2 row"))
    else:
        b2_ok = all(not tables.fg_margin(b2, q) for q in (2, 3, 4, 5)) and all(
            tables.fg_margin(b2, q) for q in (6, 7, 8, 9)
        )
        results.append(
            ("defining-char B2 crossover", b2_ok, "margin false through q=5, true from q=6")
        )
    a1 = next((d for d in data if d.label == "A1"), None)
    if a1 is None:
        results.append(("defining-char A1 never clears", False, "no A1 row"))
    else:
        a1_ok = all(not tables.fg_margin(a1, q) for q in (2, 3, 5, 9, 101))
        results.append(("defining-char A1 never clears", a1_ok, "rank-one margin"))
    return results


# each verify-exceptional section, in report order, with its checks
VERIFY_SECTIONS = {
    **{
        name: functools.partial(_class_table_checks, name)
        for name in tables.list_class_tables()
    },
    "E8-5blocks": _e8_checks,
    "defining-char": _defining_char_checks,
}


def _cmd_verify(args) -> int:
    if args.data_dir is not None and not Path(args.data_dir).is_dir():
        raise CliError(f"--data-dir {args.data_dir} is not a directory")
    sections = (args.table,) if args.table else VERIFY_SECTIONS
    failures = []
    for section in sections:
        for name, ok, detail in VERIFY_SECTIONS[section](args.data_dir):
            print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
            if not ok:
                failures.append(name)
    if failures:
        print(f"failed: {', '.join(failures)}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# oracle


def _parse_tuple(text: str, flag: str, arity: int) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != arity:
        raise CliError(f"--{flag} wants {arity} comma-separated integers, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise CliError(f"--{flag} wants integers, got {text!r}") from None


def _cmd_oracle(args) -> int:
    if not (args.gl or args.gmpn or args.multi):
        raise CliError("nothing to do: pass --gl, --gmpn, or --multi")
    # every tuple is parsed and checked before the first census runs, so a
    # usage error exits with no result printed
    gl = [(text, _parse_tuple(text, "gl", 3)) for text in args.gl]
    gmpn = [(text, _parse_tuple(text, "gmpn", 3)) for text in args.gmpn]
    multi = [(text, _parse_tuple(text, "multi", 2)) for text in args.multi]
    for option, tuples, check in (
        ("gl", gl, oracle.check_gl_census),
        ("gmpn", gmpn, oracle.check_gmpn),
    ):
        for text, values in tuples:
            try:
                check(*values)
            except ValueError as exc:
                raise CliError(f"--{option} {text}: {exc}") from None
    for text, (s_max, t_max) in multi:
        if s_max < 1 or t_max < 0:
            raise CliError(f"--multi {text}: need S >= 1 and T >= 0")
        if s_max > oracle.ENUM_MAX_COLOURS or t_max > oracle.ENUM_MAX_SIZE:
            raise CliError(
                f"--multi {text}: enumeration cap exceeded: need "
                f"S <= {oracle.ENUM_MAX_COLOURS} and T <= {oracle.ENUM_MAX_SIZE}"
            )
    all_ok = True
    for text, (n, q, ell) in gl:
        start = time.perf_counter()
        try:
            census = oracle.gl_ell_class_census(n, q, ell)
        except ValueError as exc:
            raise CliError(f"--gl {text}: {exc}") from None
        except RuntimeError as exc:
            print(f"gl n={n} q={q} ell={ell}: census FAIL ({exc})")
            all_ok = False
            continue
        ok = oracle.census_matches_weight_vectors(census)
        all_ok = all_ok and ok
        elapsed = time.perf_counter() - start
        print(
            f"gl n={n} q={q} ell={ell}: {len(census.classes)} classes, "
            f"{census.ell_element_total} elements of ell-power order, "
            f"calculus match {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)"
        )
    for text, (m, p, n) in gmpn:
        start = time.perf_counter()
        try:
            count = oracle.gmpn_class_count(m, p, n)
        except ValueError as exc:
            raise CliError(f"--gmpn {text}: {exc}") from None
        except RuntimeError as exc:
            print(f"gmpn m={m} p={p} n={n}: census FAIL ({exc})")
            all_ok = False
            continue
        elapsed = time.perf_counter() - start
        if p in (1, 2):
            formula = gmpn_irr_count(m, p, n)
            ok = count == formula
            all_ok = all_ok and ok
            print(
                f"gmpn m={m} p={p} n={n}: {count} classes, formula {formula}, "
                f"{'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)"
            )
        else:
            print(f"gmpn m={m} p={p} n={n}: {count} classes ({elapsed:.2f}s)")
    for _, (s_max, t_max) in multi:
        start = time.perf_counter()
        ok = True
        first_bad = ""
        for s in range(1, s_max + 1):
            for t in range(t_max + 1):
                if oracle.multipartition_enumerate(s, t) != multipartition_count(s, t):
                    if ok:
                        first_bad = f" first mismatch at s={s}, t={t}"
                    ok = False
        all_ok = all_ok and ok
        elapsed = time.perf_counter() - start
        print(
            f"multi grid s<={s_max} t<={t_max}: enumeration vs recurrence "
            f"{'PASS' if ok else 'FAIL'}{first_bad} ({elapsed:.2f}s)"
        )
    return 0 if all_ok else 2


# ---------------------------------------------------------------------------
# bounds


def _check_p_ell_bound(wmax: int) -> tuple[bool, str]:
    # the cap ell**(u(u+1)/2) holds on ell**u <= w < ell**(u+1), with u = 0
    # covering 1 <= w < ell; each prime's row is read once and each cap
    # checked against its whole interval
    for ell in (2, 3, 5):
        values = p_ell_row(ell, wmax)
        u, lo = 0, 1
        while lo <= wmax:
            hi = min(ell ** (u + 1), wmax + 1)
            cap = ell ** (u * (u + 1) // 2)
            if max(values[lo:hi]) > cap:
                w = next(w for w in range(lo, hi) if values[w] > cap)
                return False, f"fails at ell={ell}, w={w}"
            u, lo = u + 1, hi
    return True, f"ell in (2, 3, 5), w <= {wmax}"


def _check_two_ell() -> tuple[bool, str]:
    for ell in (3, 5, 7):
        if p_ell(ell, 2 * ell) != 3:
            return False, f"fails at ell={ell}"
    return True, "value 3 at twice the prime, ell in (3, 5, 7)"


def _check_convolution(nmax: int) -> tuple[bool, str]:
    # k(s + s', n) against a schoolbook convolution of the rows k(s, .) and
    # k(s', .); _mul_trunc, which builds the rows, stays out of the check
    rows = {s: [multipartition_count(s, n) for n in range(nmax + 1)] for s in range(1, 13)}
    for s in range(1, 7):
        left = rows[s]
        for s2 in range(1, 7):
            right, total = rows[s2], rows[s + s2]
            for n in range(nmax + 1):
                if total[n] != sum(map(operator.mul, left[: n + 1], right[n::-1])):
                    return False, f"fails at s={s}, s'={s2}, n={n}"
    return True, f"colour splits up to 6+6, sizes up to {nmax}"


def _check_pair_growth() -> tuple[bool, str]:
    exceptions = {(1, 1), (1, 2), (2, 1)}
    for d in range(1, 7):
        for half in range(1, 16):
            if (d, half) in exceptions:
                continue  # the inequality is not claimed at these points
            n = 2 * half
            lhs = multipartition_count(2 * d, n)
            rhs = 3 * multipartition_count(d, half)
            if lhs < rhs:
                return False, f"fails at d={d}, n={n}"
    for d in range(1, 5):
        for n in range(0, 13):
            if gmpn_irr_count(2 * d, 2, n) > multipartition_count(2 * d, n):
                return False, f"index-2 count exceeds full count at d={d}, n={n}"
    return True, "doubling inequality with its three small exceptions"


def _check_dominance() -> tuple[bool, str]:
    for ell in (3, 5):
        for a in (1, 2):
            for n in range(1, 21):
                profile = blocks.EllProfile(ell, 1, a)
                m = min(blocks.valuation(ell, n), a)
                query = blocks.BlockQuery("SLrange", profile, n=n, g=a, m=m)
                exact = blocks.k_principal_slrange(query)
                bound = blocks.bound_thm_slnproof(n, ell, a, m)
                if bound < exact:
                    return False, f"fails at ell={ell}, a={a}, n={n}"
    return True, "closed bound dominates the exact count, n <= 20"


def _check_boundary_chain() -> tuple[bool, str]:
    rows = []
    for ell in (3, 5):
        for a in (1, 2):
            profile = blocks.EllProfile(ell, 1, a)
            query = blocks.BlockQuery("SLrange", profile, n=ell, g=a, m=1)
            exact = blocks.k_principal_slrange(query)
            middle = ell ** (a * (ell - 1)) + ell**2
            top = ell ** (a * (ell - 1) + 1)
            if not exact <= middle < top:
                return False, f"fails at ell={ell}, a={a}: {exact}, {middle}, {top}"
            rows.append((ell, a))
    return True, f"{len(rows)} boundary cases"


def _cmd_bounds(args) -> int:
    if args.wmax < 1 or args.nmax < 0:
        raise CliError("need --wmax >= 1 and --nmax >= 0")
    battery = [
        ("ell-power partition bound", lambda: _check_p_ell_bound(args.wmax)),
        ("value at twice the prime", _check_two_ell),
        ("colour convolution", lambda: _check_convolution(args.nmax)),
        ("pair-count growth", _check_pair_growth),
        ("principal bound dominance", _check_dominance),
        ("boundary chain", _check_boundary_chain),
    ]
    all_ok = True
    for name, runner in battery:
        start = time.perf_counter()
        ok, detail = runner()
        elapsed = time.perf_counter() - start
        all_ok = all_ok and ok
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail}, {elapsed:.2f}s)")
    return 0 if all_ok else 2


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version paths inside argparse
        return 0 if exc.code in (0, None) else 1
    if args.command is None:
        print("error: a subcommand is required", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    handlers = {
        "census": _cmd_census,
        "verify-exceptional": _cmd_verify,
        "oracle": _cmd_oracle,
        "bounds": _cmd_bounds,
    }
    try:
        return handlers[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
