"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/sweep.py --seeds 10                 # every workload, seeds 1..10
    python3 bench/sweep.py --seeds 5 --first-seed 100
    python3 bench/sweep.py --seeds 10 --write         # also record bench/baseline.json

For every end-to-end metric the spread is the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median; the benchmark is steady when each spread stays under a third of the
metric's bound in BENCHMARK.json.  The exit code is 1 when one does not.
``--write`` also makes one traced run per workload and stores the per-layer
numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.workloads import DEADLINE_S, GRIDS, KNOWN_FAILURE_ITEMS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--write", action="store_true", help="record bench/baseline.json")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    record = {}
    steady = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [run_once(workload, seed, 0) for seed in seeds]
        entry = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "end_to_end": {},
        }
        print(f"{workload}: correct={entry['correct']} attempted={entry['attempted']} "
              f"failed={entry['failed']}", flush=True)
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = stats
            within = stats["spread"] < bound / 3
            steady &= within
            print(f"  {name:<16} median {stats['median']:12.4f} {stats['unit']:<6} "
                  f"spread {stats['spread']:7.2%}  bound {bound:.0%}  {'ok' if within else 'WIDE'}  "
                  + " ".join(f"{v:.4g}" for v in stats["values"]), flush=True)
        if args.write:
            traced = run_once(workload, seeds[0], 1)
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["known_failures"] = [
            {"class": c.name, "roadmap_item": c.known_failure,
             "why": KNOWN_FAILURE_ITEMS[c.known_failure], "copies_per_cycle": c.copies}
            for c in GRIDS[workload] if c.known_failure
        ]
        record[workload] = entry

    if args.write:
        baseline = {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "deadline_s": DEADLINE_S,
            "run_seconds": SPEC["run_seconds"],
            "seeds": seeds,
            "workloads": record,
        }
        path = Path(__file__).resolve().parent / "baseline.json"
        path.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
