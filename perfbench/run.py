#!/usr/bin/env python3
"""Benchmark of designcodes' one-step and two-step majority-logic decoders.

    python3 perfbench/run.py --workload onestep-subspace --seed 1 --seconds 12 --trace 0

Run from the repository root.  Each run starts fresh interpreters
(perfbench/worker.py) on the package in src/:

* --trace 0: SETUP_PROCESSES cold set-ups, the last of which goes on to the
  checks and --seconds of timed rounds.  Prints the end-to-end metrics.
* --trace 1: the same, but the last set-up is traced and its process
  alternates untraced and traced rounds.  Prints the per-layer metrics,
  including the tracing overhead against the untraced set-ups and rounds,
  and writes the spans to perfbench/out/.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; a
copy with every worker's raw output goes to perfbench/out/.  Exit code 0
on a completed run (failed operations are reported, not fatal), 1 if a
worker broke or overran, 2 if the package's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROCESSES = 3
BUDGET_S = 170


class WorkerError(RuntimeError):
    pass


def run_worker(args, role: str, trace: int, deadline: float, trace_file: Path | None = None):
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--role", role,
        "--trace", str(trace),
    ]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # Byte-compile once into perfbench/out, as an installed package would be,
    # whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(HERE / "out" / "pycache")
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise WorkerError("time budget spent before a worker could start")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{role} worker overran the {BUDGET_S} s budget") from None
    if proc.returncode != 0:
        raise WorkerError(f"{role} worker exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerError(f"{role} worker printed nothing:\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "designcodes" / "__init__.py").is_file():
        print(f"error: no package sources at {ROOT / 'src' / 'designcodes'}", file=sys.stderr)
        return 2
    deadline = monotonic() + BUDGET_S
    out_dir = HERE / "out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups = [run_worker(args, "setup", 0, deadline) for _ in range(SETUP_PROCESSES - 1)]
        trace_file = out_dir / f"{stem}-spans.json" if args.trace else None
        measure = run_worker(args, "measure", args.trace, deadline, trace_file)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics = dict(measure["per_layer"])
        untraced = statistics.median(w["setup_s"] for w in setups)
        metrics["trace.setup_overhead_pct"] = 100 * (measure["setup_s"] / untraced - 1)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        metrics = dict(measure)
        metrics["setup_s"] = statistics.median(w["setup_s"] for w in setups + [measure])
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    workers = setups + [measure]
    failures = [f for w in workers for f in w["failures"]]
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{stem}.json").write_text(
        json.dumps({"result": result, "workers": workers}, indent=1), encoding="utf-8"
    )
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:14.6g} {unit}")
    print(f"attempted {attempted}, failed {failed}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
