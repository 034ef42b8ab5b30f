#!/usr/bin/env python3
"""Record bench/reference.json: per workload and command, the sha256 of the
canonical output (see run.canonical_output) and the operation count.

Run it only on a commit whose outputs are known good, from the root of a
checkout:
    python3 bench/record_reference.py
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    workloads = run.load_json("workloads.json")["workloads"]
    reference = {}
    for name, workload in workloads.items():
        commands = workload["commands"]
        result = run.run_sample(commands, seed=0, trace=False)
        if result is None or any(result["codes"]):
            print(f"{name}: the pass did not exit cleanly", file=sys.stderr)
            return 1
        entries = []
        for argv, text in zip(commands, result["outputs"]):
            ops, bad = run.count_ops(argv, text)
            if bad or not ops:
                print(f"{name}: {argv[0]} has {bad} failing of {ops} operations", file=sys.stderr)
                return 1
            entries.append({"command": argv[0], "sha256": run.digest(argv, text), "ops": ops})
        reference[name] = entries
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
