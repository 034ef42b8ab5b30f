#!/usr/bin/env python3
"""Benchmark harness for blockcensus (standard library only).

Usage, from the root of a checkout:
    python3 bench/run.py                                  # all workloads
    python3 bench/run.py --workload census-deep --seed 3 --seconds 15
    python3 bench/run.py --workload verify-suite --trace 1

Each timed sample is one workload pass through ``blockcensus.cli.main`` in a
fresh interpreter (bench/sample.py), because a CLI user pays the import and
the memo-table fill on every invocation. One untimed warm-up pass comes
first; samples then repeat until ``--seconds`` have passed. Every sample's
outputs are checked against digests recorded at the seed commit
(bench/reference.json); a crash, a nonzero exit or a digest mismatch fails
every operation of the sample.

With ``--trace 0`` the result holds the end-to-end metrics, each the median
over the timed samples: ``wall_s`` (first call into cli.main to the last
return), ``cpu_s`` (user+sys of the pass, children included), ``setup_s``
(process spawn to the first call into cli.main) and ``peak_rss_mb``.
``failed_frac`` is printed by name and carried by the ``attempted`` and
``failed`` counts of the result line. With ``--trace 1`` half the time goes
to untraced samples and half to traced ones (bench/tracer.py), and the
result holds the per-layer metrics plus the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SAMPLE_TIMEOUT_S = 120
MIN_SAMPLES = 3
# Extra start-ups per run that import blockcensus and exit, so that the
# set-up median rests on enough samples even when a pass is long.
SETUP_ONLY_SAMPLES = 10

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# Oracle and bounds lines end in an elapsed time such as "(0.41s)" or
# ", 0.01s)"; only that field is masked before hashing.
TIMING_FIELD = re.compile(r"\d+\.\d\ds\)$", re.MULTILINE)


def load_json(name: str) -> dict:
    return json.loads((HERE / name).read_text())


def mask_timings(text: str) -> str:
    return TIMING_FIELD.sub("N.NNs)", text)


def canonical_output(argv: list[str], text: str) -> str:
    """The bytes a command's digest covers: census reports as printed,
    other commands with their elapsed-time fields masked."""
    return text if argv[0] == "census" else mask_timings(text)


def digest(argv: list[str], text: str) -> str:
    return hashlib.sha256(canonical_output(argv, text).encode()).hexdigest()


def count_ops(argv: list[str], text: str) -> tuple[int, int]:
    """(operations, failing operations) in one command's output. A census
    operation is one report row, failing if its verdict is ERROR or
    VIOLATION; any other command's operation is one output line (a PASS or
    FAIL line, or one oracle case), failing if it reads FAIL."""
    lines = [line for line in text.splitlines() if line.strip()]
    if argv[0] != "census":
        return len(lines), sum(1 for line in lines if re.search(r"\bFAIL\b", line))
    body = [line for line in lines if not line.startswith("#")]
    if not body:
        return 0, 0
    verdict = body[0].split(",").index("verdict")
    rows = [line.split(",") for line in body[1:]]
    return len(rows), sum(1 for r in rows if r[verdict] in ("ERROR", "VIOLATION"))


def check_sample(commands, reference, result) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one sample. ``result`` is the
    sample's JSON, or None if it crashed."""
    attempted = sum(ref["ops"] for ref in reference)
    if result is None:
        return attempted, attempted, ["sample crashed"]
    problems = []
    bad = 0
    for argv, ref, code, text in zip(commands, reference, result["codes"], result["outputs"]):
        if code != 0:
            problems.append(f"{argv[0]}: exit code {code}")
        got = digest(argv, text)
        if got != ref["sha256"]:
            problems.append(f"{argv[0]}: digest {got[:16]} != reference {ref['sha256'][:16]}")
        bad += count_ops(argv, text)[1]
    if len(result["codes"]) != len(commands):
        problems.append("sample ran the wrong number of commands")
    return attempted, attempted if problems else bad, problems


def run_sample(commands: list[list[str]], seed: int, trace: bool) -> dict | None:
    """One pass in a fresh interpreter; None if it crashed or timed out."""
    spec = {"src": str(SRC) + os.sep, "commands": commands, "seed": seed, "trace": trace}
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "sample.py"), json.dumps(spec)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"sample timed out after {SAMPLE_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["t_call"] - spawned
    return result


class Run:
    """Samples of one workload, with their correctness tally."""

    def __init__(self, name: str, workload: dict, reference: list[dict], seed: int) -> None:
        self.name = name
        self.commands = workload["commands"]
        self.reference = reference
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def sample(self, trace: bool) -> dict | None:
        result = run_sample(self.commands, self.seed, trace)
        attempted, failed, problems = check_sample(self.commands, self.reference, result)
        if result is not None and not trace and result["wrapped"]:
            problems.append(f"{result['wrapped']} tracer wrappers present in a timed sample")
            failed = attempted
        for problem in problems:
            print(f"{self.name}: {problem}", file=sys.stderr)
        self.attempted += attempted
        self.failed += failed
        self.correct = self.correct and not problems and failed == 0
        return result if not problems else None

    def timed(self, seconds: float, trace: bool) -> list[dict]:
        samples = []
        deadline = time.monotonic() + seconds
        while len(samples) < MIN_SAMPLES or time.monotonic() < deadline:
            result = self.sample(trace)
            if result is None:
                break
            samples.append(result)
        return samples

    def setup_times(self, count: int) -> list[float]:
        times = []
        for _ in range(count):
            result = run_sample([], self.seed, trace=False)
            if result is None:
                self.correct = False
                break
            times.append(result["setup_s"])
        return times


def summarize(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)} samples, q1 {q1:.4f}, q3 {q3:.4f}, max {max(values):.4f}"


def end_to_end(run: Run, seconds: float) -> dict:
    run.sample(trace=False)  # warm-up: compiles bytecode, fills the page cache
    samples = run.timed(seconds, trace=False)
    setups = [s["setup_s"] for s in samples] + run.setup_times(SETUP_ONLY_SAMPLES)
    metrics = {}
    for key, unit in END_TO_END_UNITS.items():
        if key == "setup_s":
            values = setups
        elif key == "peak_rss_mb":
            values = [s["peak_rss_kb"] / 1024 for s in samples]
        else:
            values = [s[key] for s in samples]
        if not values:
            continue
        value = statistics.median(values)
        metrics[key] = {"value": value, "unit": unit}
        print(f"{run.name:13s} {key:12s} {value:10.4f} {unit:3s}  {summarize(values)}")
    frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"{run.name:13s} {'failed_frac':12s} {frac:10.4f} ops/ops  {run.failed} of {run.attempted} operations")
    return metrics if samples else {}


def per_layer(run: Run, seconds: float, workload: dict, predictions: dict) -> dict:
    run.sample(trace=False)
    plain = run.timed(seconds / 2, trace=False)
    traced = run.timed(seconds / 2, trace=True)
    if not plain or not traced:
        return {}
    values: dict[str, list[float]] = {}
    for s in traced:
        layers = dict(s["layers"])
        ops = [count_ops(argv, text) for argv, text in zip(run.commands, s["outputs"])]
        layers["cli.checks"] = sum(n for n, _ in ops)
        layers["cli.failed_checks"] = sum(bad for _, bad in ops)
        layers["trace.wall_s"] = s["wall_s"]
        for key, value in layers.items():
            values.setdefault(key, []).append(value)
    metrics = {k: statistics.median(v) for k, v in values.items()}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
        s["wall_s"] for s in plain
    )
    dominant = workload["dominant_count"]
    if not metrics.get(dominant):
        print(
            f"{run.name}: layer coverage check failed: {dominant} is 0 on the workload it "
            "dominates (was a traced function renamed or moved?)",
            file=sys.stderr,
        )
        run.correct = False
    wall = metrics["trace.wall_s"]
    out = {}
    for key, value in metrics.items():
        unit = "s" if key.endswith("_s") else "count"
        out[key] = {"value": value, "unit": unit}
        share = f"{100 * value / wall:5.1f}% of traced wall" if unit == "s" and wall else ""
        moves = predictions.get(key)
        note = f"moves {', '.join(moves['moves'])} on {moves['on']}" if moves else ""
        print(f"{run.name:13s} {key:44s} {value:14.4f} {unit:5s} {share:24s} {note}")
    return out


def main(argv=None) -> int:
    workloads_file = load_json("workloads.json")
    workloads = workloads_file["workloads"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *workloads])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "blockcensus" / "cli.py").is_file():
        print(f"error: no blockcensus sources under {SRC}", file=sys.stderr)
        return 2
    reference = load_json("reference.json")
    predictions = {p["metric"]: p for p in workloads_file["predictions"]}
    names = list(workloads) if args.workload == "all" else [args.workload]
    print(
        f"# python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"one process, jobs=1, seed {args.seed}, {args.seconds:g} s per workload"
    )
    results: dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    for name in names:
        run = Run(name, workloads[name], reference[name], args.seed)
        if args.trace:
            results[name] = per_layer(run, args.seconds, workloads[name], predictions)
        else:
            results[name] = end_to_end(run, args.seconds)
        attempted += run.attempted
        failed += run.failed
        correct = correct and run.correct and bool(results[name])
    if len(names) == 1:
        metrics = results[names[0]]
    else:
        metrics = {f"{n}/{k}": v for n, r in results.items() for k, v in r.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
