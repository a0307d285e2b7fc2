#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads twostep-q4 onestep-subspace --seeds 1-10

For every workload and end-to-end metric it prints the median of the runs,
their first and third quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json.  The
runs are sequential, one run.py process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        shares = set()
        attempted = failed = 0
        for seed in seeds_of(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result {result}", file=sys.stderr)
            shares.add(result["failed"] / result["attempted"])
            attempted += result["attempted"]
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"# {workload}: seeds {args.seeds}, {attempted} operations attempted, "
              f"{failed} failed, failed share(s) {sorted(shares)}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"{name:22s} {units[name]:10s} median {med:10.6g}  Q1 {q1:10.6g}  Q3 {q3:10.6g}  "
                  f"spread {(q3 - q1) / med:7.2%}  bound {bounds[name]:.0%}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
