import ast
import importlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import blockcensus
from blockcensus import blocks, cli, oracle, tables

DATA_DIR = Path(tables.__file__).parent / "data"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "subcommand is required" in err


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "census", "--frobenius", "1")
    assert code == 1


def test_census_rejects_ell_two(capsys):
    code, _, err = run_cli(
        capsys, "census", "--family", "GL", "--ell", "2", "--w", "1"
    )
    assert code == 1
    assert "ell = 2 is not supported" in err
    assert "odd primes" in err


def test_census_rejects_empty_families(capsys):
    code, _, err = run_cli(capsys, "census", "--ell", "3", "--w", "1")
    assert code == 1
    assert "families" in err


def test_census_rejects_bad_lists(capsys):
    code, _, err = run_cli(
        capsys, "census", "--family", "GL", "--ell", "3", "--w", "5..2"
    )
    assert code == 1
    assert "descending range" in err


def test_census_csv_happy_path(capsys):
    code, out, err = run_cli(
        capsys,
        "census",
        "--family", "GL",
        "--ell", "3",
        "--w", "0..2",
        "--strip-timestamp",
    )
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "# tool: blockcensus"
    assert not any(line.startswith("# timestamp") for line in lines)
    data = [l for l in lines if not l.startswith("#")]
    assert data[0].split(",") == list(blocks.REPORT_COLUMNS)
    assert len(data) == 1 + 6  # header plus d in {1, 2} times w in 0..2


def test_census_timestamp_present_by_default(capsys):
    code, out, _ = run_cli(
        capsys, "census", "--family", "GL", "--ell", "3", "--w", "0"
    )
    assert code == 0
    assert any(line.startswith("# timestamp: ") for line in out.splitlines())


def test_census_json_and_csv_agree(capsys):
    args = ("census", "--family", "Sp", "--ell", "5", "--w", "0..3",
            "--strip-timestamp")
    code, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    code, json_out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    payload = json.loads(json_out)
    csv_rows = [
        line.split(",")
        for line in csv_out.splitlines()
        if not line.startswith("#")
    ][1:]
    json_rows = [
        [row[col] for col in blocks.REPORT_COLUMNS] for row in payload["rows"]
    ]
    assert csv_rows == json_rows
    assert payload["metadata"]["spec_hash"]


def test_census_markdown_format(capsys):
    code, out, _ = run_cli(
        capsys, "census", "--family", "GL", "--ell", "3", "--w", "1",
        "--strip-timestamp", "--format", "md",
    )
    assert code == 0
    assert "| family |" in out or "| " + " | ".join(blocks.REPORT_COLUMNS) + " |" in out


def test_census_out_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys, "census", "--family", "GL", "--ell", "3", "--w", "1",
        "--strip-timestamp", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("# tool: blockcensus")


@pytest.mark.parametrize("where", ["missing-parent", "directory"])
def test_census_out_unwritable_is_a_parameter_error(tmp_path, capsys, where):
    target = tmp_path / "absent" / "report.csv" if where == "missing-parent" else tmp_path
    code, out, err = run_cli(
        capsys, "census", "--family", "GL", "--ell", "3", "--w", "1",
        "--strip-timestamp", "--out", str(target),
    )
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert len(err.splitlines()) == 1


def test_census_jobs_flag_and_config_key_are_refused(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "census", "--family", "GL", "--ell", "3", "--w", "1", "--jobs", "1"
    )
    assert (code, out, err) == (1, "", "error: unrecognized arguments: --jobs 1\n")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("family = GL\nell = 3\nw = 1\njobs = 1\n")
    code, out, err = run_cli(capsys, "census", "--config", str(cfg))
    assert (code, out, err) == (1, "", "error: unknown config keys: jobs\n")


def test_census_profile_mismatch_at_a_large_prime(capsys):
    # q = 2 has order ell - 1 modulo this prime, so the witnessed profile
    # disagrees with d = 1; deriving it must not walk the order or form q**d
    code, out, err = run_cli(
        capsys, "census", "--family", "GL", "--ell", "10000000019", "--d", "1",
        "--w", "1", "--q", "2", "--strip-timestamp",
    )
    assert code == 0
    assert out.splitlines()[-1].endswith(",ERROR,")
    assert "derived (d=10000000018, a=1)" in err


def test_census_refuses_negative_q_for_unitary_and_linear_rows(capsys):
    code, out, err = run_cli(
        capsys, "census", "--family", "GU,GL", "--ell", "5", "--q", "-3",
        "--d", "2", "--w", "1", "--strip-timestamp",
    )
    assert code == 0
    error_rows = [line for line in out.splitlines() if line.endswith(",ERROR,")]
    assert [row.split(",")[0] for row in error_rows] == ["GU", "GL"]
    errors = err.splitlines()
    assert len(errors) == 2
    for family, line in zip(("GU", "GL"), errors):
        assert line.startswith(f"error: {family} row")
        assert line.endswith("q must be >= 2")


def test_census_refuses_rank_zero_like_a_negative_rank(capsys):
    code, out, err = run_cli(
        capsys, "census", "--family", "SLrange", "--ell", "3", "--n=-3,0",
        "--strip-timestamp",
    )
    assert code == 0
    assert [line.split(",")[1] for line in out.splitlines() if line.endswith(",ERROR,")] == [
        "-3",
        "0",
    ]
    errors = err.splitlines()
    assert len(errors) == 2
    assert all(line.endswith(": n must be >= 1") for line in errors)


@pytest.mark.parametrize(
    "family, flag", [("GL", "--w"), ("SLrange", "--n")], ids=["GL-w", "SLrange-n"]
)
def test_census_weight_too_large_to_index_is_an_error_row(capsys, family, flag):
    # a weight or rank past the index range is a parameter the program
    # cannot take, not a fault in it, and the message names it
    code, out, err = run_cli(
        capsys, "census", "--family", family, "--ell", "3", "--d", "1",
        flag, str(10**20), "--strip-timestamp",
    )
    assert code == 0
    column = blocks.REPORT_COLUMNS.index("verdict")
    rows = [line for line in out.splitlines() if line.startswith(family + ",")]
    assert [row.split(",")[column] for row in rows] == [blocks.ERROR]
    errors = err.splitlines()
    assert len(errors) == 1
    assert errors[0].startswith(f"error: {family} row")
    assert errors[0].endswith(f": {flag[2:]} = {10**20} is too large to index a table")
    assert "internal mismatch" not in err


@pytest.mark.parametrize("family", ["SLrange", "SUrange"])
def test_census_refuses_g_above_a_as_an_error_row(capsys, family):
    # g bounds the ell-part of the index, at most ell**a: a larger g is a
    # parameter error, not an inexact division inside the program
    code, out, err = run_cli(
        capsys, "census", "--family", family, "--ell", "3", "--n", "1,3", "--g", "2",
        "--strip-timestamp",
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines() if line.startswith(family + ",")]
    assert [(row[1], row[6], row[12]) for row in rows] == [
        ("1", "2", "ERROR"),
        ("3", "2", "ERROR"),
    ]
    errors = err.splitlines()
    assert len(errors) == 2
    assert all(line.endswith(": g must be <= a") for line in errors)
    assert "internal mismatch" not in err


def test_census_error_rows_go_to_stderr(capsys):
    # ell divides q, so every row fails to derive a profile; that is a
    # reporting problem, not a conjecture violation
    code, out, err = run_cli(
        capsys, "census", "--family", "GL", "--ell", "3", "--w", "1",
        "--q", "3", "--strip-timestamp",
    )
    assert code == 0
    assert "ERROR" in out
    assert "error:" in err


def test_census_violation_row_exit_code(monkeypatch, capsys):
    # no honest parameter combination violates the bound, so splice a
    # violating row into the report to pin the exit-code contract
    real_sweep = blocks.sweep

    def doctored(spec, **kwargs):
        report = real_sweep(spec, **kwargs)
        bad = report.rows[0]._replace(verdict=blocks.VIOLATION)
        return blocks.CensusReport(
            rows=report.rows + (bad,), metadata=report.metadata, errors=report.errors
        )

    monkeypatch.setattr(cli.blocks, "sweep", doctored)
    code, out, _ = run_cli(
        capsys, "census", "--family", "GL", "--ell", "3", "--w", "1",
        "--strip-timestamp",
    )
    assert code == 2
    assert "VIOLATION" in out


def test_census_two_path_mismatch_exit_code(monkeypatch, capsys):
    # a slot path that is off by one must fail the run, not pass as an
    # ordinary parameter ERROR row
    from blockcensus import slots

    real = slots.block_count_proof_path

    def off_by_one(*args, **kwargs):
        return real(*args, **kwargs) + 1

    monkeypatch.setattr(slots, "block_count_proof_path", off_by_one)
    code, out, err = run_cli(
        capsys, "census", "--family", "GL", "--ell", "3", "--d", "1",
        "--w", "0..2", "--strip-timestamp",
    )
    assert code == 2
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    column = blocks.REPORT_COLUMNS.index("verdict")
    verdicts = [line.split(",")[column] for line in lines[1:]]
    assert verdicts == [blocks.INTERNAL_MISMATCH] * 3
    assert "two-path mismatch" in err


def test_census_config_file(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# weight sweep over two primes\n"
        "family = GL\n"
        "family = Sp   # repeated keys stack\n"
        "ell = 3\n"
        "ell = 5\n"
        "w = 0..2\n"
        "format = json\n"
    )
    code, out, _ = run_cli(capsys, "census", "--config", str(cfg),
                           "--strip-timestamp")
    assert code == 0
    payload = json.loads(out)
    families = {row["family"] for row in payload["rows"]}
    assert families == {"GL", "Sp"}
    ells = {row["ell"] for row in payload["rows"]}
    assert ells == {"3", "5"}


def test_census_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("family = GL\nell = 3\nell = 5\nw = 0..2\nformat = json\n")
    code, out, _ = run_cli(
        capsys, "census", "--config", str(cfg), "--ell", "7",
        "--strip-timestamp",
    )
    assert code == 0
    payload = json.loads(out)
    assert {row["ell"] for row in payload["rows"]} == {"7"}
    # keys not overridden keep their config values
    assert {row["family"] for row in payload["rows"]} == {"GL"}


def test_census_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("family = GL\nell = 3\nw = 1\nfrobenius = 4\n")
    code, _, err = run_cli(capsys, "census", "--config", str(cfg))
    assert code == 1
    assert "unknown config keys: frobenius" in err


def test_census_config_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("family GL\n")
    code, _, err = run_cli(capsys, "census", "--config", str(cfg))
    assert code == 1
    assert "expected key = value" in err


def test_census_missing_config(capsys):
    code, _, err = run_cli(capsys, "census", "--config", "/nonexistent/x.cfg")
    assert code == 1
    assert "cannot read config" in err


def test_census_d_divisors_keyword(capsys):
    code, out, _ = run_cli(
        capsys, "census", "--family", "GL", "--ell", "5", "--w", "1",
        "--d", "divisors", "--strip-timestamp",
    )
    assert code == 0
    data = [l for l in out.splitlines() if not l.startswith("#")][1:]
    d_col = blocks.REPORT_COLUMNS.index("d")
    assert [row.split(",")[d_col] for row in data] == ["1", "2", "4"]
    code, _, err = run_cli(
        capsys, "census", "--family", "GL", "--ell", "5", "--w", "1",
        "--d", "divisors", "--d", "2",
    )
    assert code == 1
    assert "cannot be mixed" in err


def test_verify_all_sections_pass(capsys):
    code, out, err = run_cli(capsys, "verify-exceptional")
    assert code == 0
    assert err == ""
    lines = [l for l in out.splitlines() if l]
    assert lines and all(": PASS (" in l for l in lines)
    assert any(l.startswith("F4-l2 sums") for l in lines)
    assert any(l.startswith("E8-5blocks series bound a=2") for l in lines)
    assert any(l.startswith("defining-char B2 crossover") for l in lines)


def test_verify_single_table(capsys):
    code, out, _ = run_cli(capsys, "verify-exceptional", "--table", "F4-l3")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert all(l.startswith("F4-l3") for l in lines)


def test_verify_detects_corruption(tmp_path, capsys):
    dest = tmp_path / "data"
    shutil.copytree(DATA_DIR, dest)
    path = dest / "class_e6_l3.tsv"
    path.write_text(path.read_text().replace("D5(q).(q-1)\t3\t20", "D5(q).(q-1)\t3\t21"))
    code, out, err = run_cli(
        capsys, "verify-exceptional", "--table", "E6-l3", "--data-dir", str(dest)
    )
    assert code == 2
    assert "E6-l3 row D5(q).(q-1): FAIL" in out
    assert "E6-l3 sums: FAIL" in out
    assert "failed:" in err


@pytest.mark.parametrize(
    "filename, column, value, section, failed",
    [
        ("root_systems.tsv", 0, "B2", "defining-char", "defining-char B2 crossover: FAIL (no B2 row)"),
        ("root_systems.tsv", 0, "A1", "defining-char", "defining-char A1 never clears: FAIL (no A1 row)"),
        ("isolated_5blocks_e8.tsv", 4, "5", "E8-5blocks", "E8-5blocks series bound a=1: FAIL"),
    ],
    ids=["no-B2", "no-A1", "no-coefficient-5"],
)
def test_verify_missing_data_rows_fail_their_checks(
    tmp_path, capsys, filename, column, value, section, failed
):
    # a data file without the rows a check looks up fails that check
    # (exit 2) instead of raising out of the command
    dest = tmp_path / "data"
    shutil.copytree(DATA_DIR, dest)
    path = dest / filename
    lines = path.read_text().splitlines()
    kept = [l for l in lines if l.startswith("#") or l.split("\t")[column] != value]
    assert len(kept) < len(lines)
    path.write_text("\n".join(kept) + "\n")
    code, out, err = run_cli(
        capsys, "verify-exceptional", "--table", section, "--data-dir", str(dest)
    )
    assert code == 2
    assert failed in out
    assert err.startswith("failed: ")


@pytest.mark.parametrize("where", ["missing", "regular-file"])
def test_verify_data_dir_not_a_directory(tmp_path, capsys, where):
    path = tmp_path / "data"
    if where == "regular-file":
        path.write_text("")
    code, out, err = run_cli(capsys, "verify-exceptional", "--data-dir", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: --data-dir {path} is not a directory\n"


def test_oracle_gl_pass(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--gl", "2,4,3")
    assert code == 0
    assert "calculus match PASS" in out


def test_oracle_gl_cap(capsys):
    code, _, err = run_cli(capsys, "oracle", "--gl", "4,5,3")
    assert code == 1
    assert "census cap exceeded" in err


def test_oracle_gmpn(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--gmpn", "2,2,2")
    assert code == 0
    assert "gmpn m=2 p=2 n=2: 4 classes, formula 4, PASS" in out


def test_oracle_gmpn_no_formula_branch(capsys):
    # p = 3 has no closed comparison; the count is still reported
    code, out, _ = run_cli(capsys, "oracle", "--gmpn", "3,3,2")
    assert code == 0
    assert "gmpn m=3 p=3 n=2:" in out
    assert "formula" not in out


@pytest.mark.parametrize("group", ["0,1,1", "-2,1,2"])
def test_oracle_gmpn_refuses_empty_colour_count(capsys, group):
    code, out, err = run_cli(capsys, "oracle", f"--gmpn={group}")
    assert code == 1
    assert out == ""
    assert f"error: --gmpn {group}: need m >= 1" in err


def test_oracle_census_inconsistency_is_a_failed_check(capsys, monkeypatch):
    # an internal inconsistency inside a census is a failed verification,
    # reported per case, not a usage error
    def broken(*args):
        raise RuntimeError("class size does not divide the group order")

    monkeypatch.setattr(oracle, "_class_data", broken)
    code, out, err = run_cli(capsys, "oracle", "--gl", "2,4,3", "--gmpn", "2,2,2")
    assert code == 2
    assert (
        "gl n=2 q=4 ell=3: census FAIL (class size does not divide the group order)"
        in out
    )
    assert "gmpn m=2 p=2 n=2: 4 classes, formula 4, PASS" in out
    assert err == ""


def test_oracle_gmpn_coverage_failure_is_a_failed_check(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "_orbits", lambda starts, maps, cap: iter(()))
    code, out, _ = run_cli(capsys, "oracle", "--gmpn", "2,2,2")
    assert code == 2
    assert "gmpn m=2 p=2 n=2: census FAIL (conjugacy classes do not cover the group)" in out


def test_oracle_frobenius_count_failure_is_a_failed_check(capsys, monkeypatch):
    # dropping one class leaves a count that is not a multiple of ell**nu
    orbits = oracle._orbits
    monkeypatch.setattr(oracle, "_orbits", lambda *args: list(orbits(*args))[:-1])
    code, out, _ = run_cli(capsys, "oracle", "--gl", "3,3,13")
    assert code == 2
    assert out.startswith("gl n=3 q=3 ell=13: census FAIL (")
    assert "not a multiple of ell**nu = 13 (Frobenius)" in out


def test_oracle_gl_class_overrun_is_a_failed_check(capsys, monkeypatch):
    # a conjugation that leaves its class: an odometer on the two row codes
    def leaking(tables, g, ginv):
        top = len(tables.rows)
        return lambda z: ((z[0] + 1) % top, (z[1] + (z[0] == top - 1)) % top)

    monkeypatch.setattr(oracle, "_conjugation", leaking)
    code, out, err = run_cli(capsys, "oracle", "--gl", "2,4,3")
    assert code == 2
    assert out == "gl n=2 q=4 ell=3: census FAIL (closure cap 180 exceeded)\n"
    assert err == ""


def test_oracle_gmpn_class_overrun_is_a_failed_check(capsys, monkeypatch):
    # a product that forgets to reduce its exponents mod m
    def unreduced(m, g, h):
        return (g[0], tuple(a + b + 1 for a, b in zip(g[1], h[1])))

    monkeypatch.setattr(oracle, "gmpn_mul", unreduced)
    code, out, err = run_cli(capsys, "oracle", "--gmpn", "2,2,2")
    assert code == 2
    assert out == "gmpn m=2 p=2 n=2: census FAIL (closure cap 4 exceeded)\n"
    assert err == ""


def test_oracle_multi(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--multi", "4,8")
    assert code == 0
    assert "enumeration vs recurrence PASS" in out


@pytest.mark.parametrize("grid", ["0,5", "3,-1"])
def test_oracle_multi_refuses_empty_grid(capsys, grid):
    code, out, err = run_cli(capsys, "oracle", "--multi", grid)
    assert code == 1
    assert out == ""
    assert f"--multi {grid}: need S >= 1 and T >= 0" in err


def test_oracle_multi_names_first_mismatch(capsys, monkeypatch):
    real = cli.multipartition_count
    bad = {(2, 3), (4, 1)}
    monkeypatch.setattr(
        cli, "multipartition_count", lambda s, t: real(s, t) + ((s, t) in bad)
    )
    code, out, _ = run_cli(capsys, "oracle", "--multi", "4,4")
    assert code == 2
    assert "enumeration vs recurrence FAIL first mismatch at s=2, t=3 (" in out


def test_oracle_requires_work(capsys):
    code, _, err = run_cli(capsys, "oracle")
    assert code == 1
    assert "nothing to do" in err


def test_oracle_bad_tuple(capsys):
    code, _, err = run_cli(capsys, "oracle", "--gl", "2,4")
    assert code == 1
    assert "wants 3 comma-separated integers" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--gl", "2,4,3", "--multi", "9,12"), "--multi 9,12: enumeration cap exceeded"),
        (("--gl", "2,4,3", "--multi", "3,13"), "--multi 3,13: enumeration cap exceeded"),
        (("--gl", "2,4,3", "--gl", "2,4"), "--gl wants 3 comma-separated integers, got '2,4'"),
        (("--multi", "2,2", "--gmpn", "2,x,2"), "--gmpn wants integers, got '2,x,2'"),
        (("--gl", "2,4,3", "--gl", "4,5,3"), "--gl 4,5,3: census cap exceeded: n must be 1..3, got 4"),
        (("--gl", "2,4,3", "--gl", "1,6,5"), "--gl 1,6,5: q = 6 is out of the supported range"),
        (("--gl", "2,4,3", "--gmpn", "0,1,1"), "--gmpn 0,1,1: need m >= 1"),
        (("--gmpn", "2,1,2", "--gmpn", "4,3,1"), "--gmpn 4,3,1: need p >= 1 dividing m"),
        (
            ("--gmpn", "2,1,2", "--gmpn", "10,1,6"),
            "--gmpn 10,1,6: enumeration cap exceeded: |G(10,1,6)| = 720000000 > 1000000",
        ),
    ],
)
def test_oracle_usage_error_comes_before_any_census(capsys, argv, message):
    # every tuple is checked before the first census, its values by the
    # function that its census calls, so no result line precedes the error
    code, out, err = run_cli(capsys, "oracle", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {message}")


def test_bounds_battery(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--wmax", "200", "--nmax", "12")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 6
    assert all(": PASS (" in l for l in lines)
    assert any(l.startswith("pair-count growth") for l in lines)
    assert any(l.startswith("boundary chain") for l in lines)


# The per-value loops that the bounds battery ran before it read whole rows,
# kept as references: the row-based checks must report what these report.


def _reference_p_ell_bound(wmax, p_ell):
    for ell in (2, 3, 5):
        for w in range(1, wmax + 1):
            u = 0
            power = ell
            while power <= w:
                u += 1
                power *= ell
            cap = ell ** (u * (u + 1) // 2)
            if p_ell(ell, w) > cap:
                return False, f"fails at ell={ell}, w={w}"
    return True, f"ell in (2, 3, 5), w <= {wmax}"


def _reference_convolution(nmax, multipartition_count):
    for s in range(1, 7):
        for s2 in range(1, 7):
            for n in range(nmax + 1):
                lhs = multipartition_count(s + s2, n)
                rhs = sum(
                    multipartition_count(s, t) * multipartition_count(s2, n - t)
                    for t in range(n + 1)
                )
                if lhs != rhs:
                    return False, f"fails at s={s}, s'={s2}, n={n}"
    return True, f"colour splits up to 6+6, sizes up to {nmax}"


def _p_ell_cap(ell, w):
    u = 0
    while ell ** (u + 1) <= w:
        u += 1
    return ell ** (u * (u + 1) // 2)


BOUND_WMAX = 700


def _p_ell_points():
    # w = 1, both sides of each interval start ell**u, mid-interval, w = wmax
    points = set()
    for ell in (2, 3, 5):
        points |= {(ell, 1), (ell, BOUND_WMAX), (ell, BOUND_WMAX // 2 + 1)}
        u = 1
        while ell**u <= BOUND_WMAX:
            start = ell**u
            mid = (start + min(ell * start, BOUND_WMAX + 1)) // 2
            points |= {(ell, start - 1), (ell, start), (ell, start + 1), (ell, mid)}
            u += 1
    return sorted((ell, w) for ell, w in points if 1 <= w <= BOUND_WMAX)


@pytest.mark.parametrize("excess", [0, 1], ids=["at-cap", "over-cap"])
@pytest.mark.parametrize("ell, w", _p_ell_points())
def test_p_ell_bound_rows_report_what_the_value_loop_reported(monkeypatch, ell, w, excess):
    # one entry set to its interval's cap (no violation) or one above it
    rows = {e: cli.p_ell_row(e, BOUND_WMAX) for e in (2, 3, 5)}
    rows[ell][w] = _p_ell_cap(ell, w) + excess
    expected = _reference_p_ell_bound(BOUND_WMAX, lambda e, v: rows[e][v])
    monkeypatch.setattr(cli, "p_ell_row", lambda e, v: rows[e][: v + 1])
    assert cli._check_p_ell_bound(BOUND_WMAX) == expected
    assert expected == (
        (False, f"fails at ell={ell}, w={w}") if excess else (True, f"ell in (2, 3, 5), w <= {BOUND_WMAX}")
    )


@pytest.mark.parametrize("wmax", [1, 2, 4, 5, 24, 25, 26, 700])
def test_p_ell_bound_rows_match_the_value_loop_on_the_true_values(wmax):
    assert cli._check_p_ell_bound(wmax) == _reference_p_ell_bound(wmax, cli.p_ell) == (
        True,
        f"ell in (2, 3, 5), w <= {wmax}",
    )


def test_p_ell_bound_names_the_first_of_several_violations(monkeypatch):
    # the first violation of an interval need not be its largest value
    rows = {e: cli.p_ell_row(e, BOUND_WMAX) for e in (2, 3, 5)}
    for ell, w in [(3, 400), (3, 200), (5, 2)]:
        rows[ell][w] += 10**9
    rows[3][100] = _p_ell_cap(3, 100) + 1
    expected = _reference_p_ell_bound(BOUND_WMAX, lambda e, v: rows[e][v])
    monkeypatch.setattr(cli, "p_ell_row", lambda e, v: rows[e][: v + 1])
    assert cli._check_p_ell_bound(BOUND_WMAX) == expected == (False, "fails at ell=3, w=100")


CONVOLUTION_NMAX = 16


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("s0", [1, 2, 5, 6, 7, 12])
@pytest.mark.parametrize("n0", [0, 1, 9, CONVOLUTION_NMAX])
def test_convolution_rows_report_what_the_value_loop_reported(monkeypatch, s0, n0, delta):
    true_count = cli.multipartition_count

    def perturbed(s, n):
        return true_count(s, n) + (delta if (s, n) == (s0, n0) else 0)

    expected = _reference_convolution(CONVOLUTION_NMAX, perturbed)
    monkeypatch.setattr(cli, "multipartition_count", perturbed)
    assert cli._check_convolution(CONVOLUTION_NMAX) == expected
    assert expected[0] is False


@pytest.mark.parametrize("nmax", [0, 1, 2, 30])
def test_convolution_rows_match_the_value_loop_on_the_true_values(nmax):
    assert cli._check_convolution(nmax) == _reference_convolution(
        nmax, cli.multipartition_count
    ) == (True, f"colour splits up to 6+6, sizes up to {nmax}")


@pytest.mark.parametrize(
    "ranges", [("--wmax", "-5", "--nmax", "-1"), ("--wmax", "0"), ("--nmax", "-1")]
)
def test_bounds_refuses_empty_ranges(capsys, ranges):
    code, out, err = run_cli(capsys, "bounds", *ranges)
    assert code == 1
    assert out == ""
    assert "need --wmax >= 1 and --nmax >= 0" in err


def _package_env():
    # a subprocess environment that imports the same package this test run
    # imported
    env = dict(os.environ)
    package_parent = str(Path(blockcensus.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_parent, env.get("PYTHONPATH")])
    )
    return env


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "blockcensus.cli", "--version"],
        capture_output=True,
        text=True,
        env=_package_env(),
    )
    assert result.returncode == 0
    assert "blockcensus" in result.stdout


def test_short_products_never_load_decimal():
    # decimal is imported on the first product past the crossover only, so
    # the import and a small-weight census leave it unloaded
    script = (
        "import contextlib, io, sys\n"
        "import blockcensus\n"
        "from blockcensus import cli\n"
        "loaded = ['decimal' in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['census', '--family', 'GL,Sp', '--ell', '3,5', '--a', '1,2', '--w', '0..24'])\n"
        "loaded.append('decimal' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['census', '--family', 'GL', '--ell', '3', '--d', '1', '--a', '1', '--w', '400'])\n"
        "loaded.append('decimal' in sys.modules)\n"
        "print(loaded)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_package_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[False, False, True]"


def test_census_without_timestamp_never_loads_datetime():
    # datetime is imported for the timestamp only, so a --strip-timestamp
    # census leaves it unloaded, and a timestamped one loads it
    script = (
        "import contextlib, io, sys\n"
        "from blockcensus import cli\n"
        "loaded = ['datetime' in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['census', '--family', 'GL,Sp', '--ell', '3,5', '--w', '0..4', '--strip-timestamp'])\n"
        "loaded.append('datetime' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['census', '--family', 'GL', '--ell', '3', '--w', '0'])\n"
        "loaded.append('datetime' in sys.modules)\n"
        "print(loaded)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_package_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[False, False, True]"


def test_import_and_census_never_load_dataclasses_or_inspect():
    # the records are named tuples, and the packaged tables load
    # importlib.resources (which imports inspect from Python 3.12 on) only
    # when they are read, so the import and a census in any format load
    # neither module
    script = (
        "import contextlib, io, sys\n"
        "def loaded():\n"
        "    return [name in sys.modules for name in ('dataclasses', 'inspect')]\n"
        "states = [loaded()]\n"
        "from blockcensus import cli\n"
        "states.append(loaded())\n"
        "for fmt in ('csv', 'json', 'md'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        cli.main(['census', '--family', 'GL,Sp,SLrange', '--ell', '3,5', '--w', '0..4',\n"
        "                  '--n', '1,3', '--format', fmt])\n"
        "states.append(loaded())\n"
        "print(states)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_package_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[[False, False], [False, False], [False, False]]"


# Subcommands in turn, two censuses with different list flags among them
# (the parser's append defaults must not carry one call's values into the
# next), a usage error and an oracle census.
_CALL_SEQUENCE = (
    ("census", "--family", "GL,Sp", "--ell", "3", "--w", "0..3", "--strip-timestamp"),
    ("bounds", "--wmax", "60", "--nmax", "4"),
    (
        "census", "--family", "GU", "--ell", "5", "--a", "1,2", "--w", "2",
        "--format", "md", "--no-two-path", "--strip-timestamp",
    ),
    ("verify-exceptional", "--table", "F4-l3"),
    ("census", "--frobenius", "1"),
    ("oracle", "--gl", "2,2,3"),
    ("census", "--family", "PSLell", "--ell", "3,5", "--strip-timestamp"),
)

# the elapsed time that oracle and bounds lines end in, such as "(0.41s)"
_ELAPSED = re.compile(r"\d+\.\d\ds\)$", re.MULTILINE)


def test_consecutive_main_calls_match_separate_processes(capsys):
    # the parser is built once per process and shared by every main call
    assert cli._build_parser() is cli._build_parser()
    in_process = [run_cli(capsys, *argv) for argv in _CALL_SEQUENCE]
    separate = []
    for argv in _CALL_SEQUENCE:
        result = subprocess.run(
            [sys.executable, "-m", "blockcensus.cli", *argv],
            capture_output=True,
            text=True,
            env=_package_env(),
        )
        separate.append((result.returncode, result.stdout, result.stderr))
    masked = [
        (code, _ELAPSED.sub("", out), _ELAPSED.sub("", err)) for code, out, err in in_process
    ]
    assert masked == [
        (code, _ELAPSED.sub("", out), _ELAPSED.sub("", err)) for code, out, err in separate
    ]
    assert [code for code, _, _ in in_process] == [0, 0, 0, 0, 1, 0, 0]


def test_package_root_loads_only_the_version():
    # the root exports only __version__, so importing it loads no layer
    script = (
        "import sys\n"
        "import blockcensus\n"
        "print(sorted(n for n in sys.modules if n.split('.')[0] == 'blockcensus'))\n"
        "print(blockcensus.__all__)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_package_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "['blockcensus', 'blockcensus._version']",
        "['__version__']",
    ]


@pytest.mark.parametrize("layer", ["counting", "slots", "blocks", "oracle", "tables", "cli"])
def test_every_public_name_resolves(layer):
    # the benchmark tracer getattrs each __all__ entry, so a stale one
    # would crash a traced run
    module = importlib.import_module(f"blockcensus.{layer}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


# public names that no command reads yet, kept on purpose
_UNREAD_ON_PURPOSE = {
    # the one brute-force check of a principal-family count (the principal
    # 3-block of SL_2(4) = A_5); an oracle check of the principal families
    # is to give it a caller
    ("oracle", "a5_fixture_check"),
    # part of the weight-vector calculus that the oracle censuses are
    # confronted with; the tests compare it with the slot path
    ("slots", "unipotent_block_count"),
}


def test_every_public_name_is_read_by_the_package():
    # a public name that only tests read is code no command runs: delete it
    # or give it a caller
    read = set()
    for path in Path(cli.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.update((node.name, node.asname))
    unread = [
        f"{layer}.{name}"
        for layer in ("counting", "slots", "blocks", "oracle", "tables", "cli")
        for name in importlib.import_module(f"blockcensus.{layer}").__all__
        if name not in read and (layer, name) not in _UNREAD_ON_PURPOSE
    ]
    assert unread == []


def test_readme_commands_run_and_pass(capsys):
    # the README's commands are the documented way to run the standard
    # checks, so every `blockcensus ...` line of its code blocks, with
    # backslash continuations joined, must still parse, run and pass
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = [
        shlex.split(line)[1:]
        for block in text.split("```")[1::2]
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("blockcensus ")
    ]
    assert ["verify-exceptional"] in commands
    assert ["bounds", "--wmax", "5000", "--nmax", "40"] in commands
    for argv in commands:
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
