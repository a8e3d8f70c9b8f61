"""Run every workload on several seeds and record the figures as JSON.

    python3 bench/record.py --runs 10 --first-seed 1 --output bench/baseline.json

Each run is a fresh ``bench/run.py`` process, as the benchmark is meant to
be run. For each end-to-end metric the record holds every value, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median next to the metric's bound. One traced run per workload
(on the first seed) adds the per-layer metrics. Later changes compare
their own record against the checked-in one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed on {workload} seed {seed}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    model = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    return {"cpu": model, "cpus": os.cpu_count(), "python": platform.python_version()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args()

    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    record = {
        "date": time.strftime("%Y-%m-%d"),
        "machine": machine(),
        "run_seconds": SPEC["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for workload in [w["name"] for w in SPEC["workloads"]]:
        results = [bench(workload, seed, SPEC["run_seconds"], 0) for seed in seeds]
        entry = {
            "correct": [r["correct"] for r in results],
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            entry["end_to_end"][name] = {
                "unit": results[0]["metrics"][name]["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median,
                "bound": bound,
                "values": values,
            }
            print(f"{workload:7s} {name:12s} median {median:12.6g}  spread {(q3 - q1) / median:.4f}"
                  f"  (bound {bound}, a third {bound / 3:.4f})", flush=True)
        print(f"{workload:7s} failed {sum(entry['failed'])}/{sum(entry['attempted'])} ops, "
              f"correct {all(entry['correct'])}", flush=True)
        traced = bench(workload, seeds[0], SPEC["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload] = entry
        args.output.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
