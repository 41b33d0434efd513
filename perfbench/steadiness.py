#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads score,evaluate] [--out FILE]

For every workload and end-to-end metric this prints the median of the runs
and the spread, (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``, next to the metric's bound from
BENCHMARK.json. Runs are sequential. ``--out`` writes the summary as JSON
together with the Python version, ``nproc`` and the git commit.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {
        "python": platform.python_version(),
        "nproc": None,
        "git_sha": _git_sha(),
        "run_seconds": args.seconds,
        "seeds": _seeds(args.seeds),
        "workloads": {},
    }
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in summary["seeds"]:
            t0 = time.perf_counter()
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            header = lines[0]
            if summary["nproc"] is None and "nproc=" in header:
                summary["nproc"] = int(header.split("nproc=")[1].split()[0])
            result = json.loads(lines[-1])
            result["run_wall_s"] = time.perf_counter() - t0
            runs.append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"wall={result['run_wall_s']:.1f}s "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        table = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            table[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                           "spread": spread, "bound": bound,
                           "unit": runs[0]["metrics"][name]["unit"]}
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {workload:<16} {name:<16} median={table[name]['median']:<12.6g} "
                  f"spread={spread:.4f} bound={bound} ({spread / bound:.2f} of bound)")
        summary["workloads"][workload] = {
            "metrics": table,
            "all_correct": all(r["correct"] for r in runs),
            "max_run_wall_s": max(r["run_wall_s"] for r in runs),
        }
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
