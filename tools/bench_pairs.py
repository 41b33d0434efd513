#!/usr/bin/env python3
"""Alternate perfbench runs of a parent commit and this checkout, and record them.

    python3 tools/bench_pairs.py --parent REV --workloads score,datagen-cite \
        --seeds 11-20 --seconds 20 --out BENCH_N.json

The parent is exported with ``git archive`` into a temporary directory; the
change is the checkout this script lives in, as it is on disk. For every
workload and seed, one pair of ``perfbench/run.py --trace 0`` runs is made,
one per side, and the side that runs first alternates from pair to pair.
The output holds every run's end-to-end metrics and, per metric and
workload, each side's median and quartiles and how many pairs the change
won (ties count for neither side), with the Python version, the CPU count
and both commits. It is rewritten after every pair, so an interrupted
run keeps the pairs it finished. Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def _export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def _src_sha256(tree: Path) -> str:
    """Digest of every file under tree/src, so a run of uncommitted code is identifiable."""
    digest = hashlib.sha256()
    for path in sorted(p for p in (tree / "src").rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _seeds(spec: str) -> list[int]:
    seeds: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit": proc.returncode, "stderr": proc.stderr[-2000:]}
    report = json.loads(lines[-1])
    return {
        "exit": proc.returncode,
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: m["value"] for name, m in report["metrics"].items()},
    }


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _summary(pairs: list[dict], better: dict[str, str]) -> dict:
    out: dict[str, dict] = {}
    for pair in pairs:
        parent, change = pair["parent"].get("metrics"), pair["change"].get("metrics")
        if parent is None or change is None:
            continue
        for name in parent:
            entry = out.setdefault(pair["workload"], {}).setdefault(
                name, {"parent": [], "change": [], "change_wins": 0, "ties": 0})
            p, c = parent[name], change[name]
            entry["parent"].append(p)
            entry["change"].append(c)
            if p == c:
                entry["ties"] += 1
            elif (c < p) == (better[name] == "lower"):
                entry["change_wins"] += 1
    for metrics in out.values():
        for name, entry in metrics.items():
            parent, change = entry.pop("parent"), entry.pop("change")
            entry["pairs"] = len(parent)
            entry["parent"], entry["change"] = _quartiles(parent), _quartiles(change)
            pm, cm = entry["parent"]["median"], entry["change"]["median"]
            entry["change_over_parent"] = cm / pm if pm else None
            q1, q3 = entry["parent"]["q1"], entry["parent"]["q3"]
            entry["medians_apart_beyond_parent_iqr"] = (
                abs(cm - pm) > q3 - q1 if q1 is not None else None)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent commit")
    parser.add_argument("--workloads", required=True, help="comma list of perfbench workloads")
    parser.add_argument("--seeds", default="11-20", help="seeds, e.g. 11-20 or 1,3,5")
    parser.add_argument("--seconds", type=float, default=20.0, help="run length of every run")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--workdir", help="where to export the parent (default: a temp dir)")
    args = parser.parse_args()

    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    workdir = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.workdir))
    parent_tree = workdir / "parent"
    _export(args.parent, parent_tree)
    trees = {"parent": parent_tree, "change": ROOT}
    result: dict = {
        "settings": {"workloads": args.workloads, "seeds": args.seeds, "seconds": args.seconds},
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "parent_sha": _git("rev-parse", args.parent).strip(),
        "change_head_sha": _git("rev-parse", "HEAD").strip(),
        "change_uncommitted": bool(_git("status", "--porcelain", "--", "src", "perfbench").strip()),
        "parent_src_sha256": _src_sha256(parent_tree),
        "change_src_sha256": _src_sha256(ROOT),
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "pairs": [],
    }
    try:
        for workload in args.workloads.split(","):
            for i, seed in enumerate(_seeds(args.seeds)):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"workload": workload, "seed": seed, "first": order[0]}
                for side in order:
                    started = time.time()
                    pair[side] = _run(trees[side], workload, seed, args.seconds)
                    print(f"{workload} seed {seed} {side}: {time.time() - started:.0f} s, "
                          f"cpu_ms_per_item {pair[side].get('metrics', {}).get('cpu_ms_per_item')}",
                          file=sys.stderr)
                result["pairs"].append(pair)
                result["summary"] = _summary(result["pairs"], better)
                Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
