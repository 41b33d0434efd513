#!/usr/bin/env python3
"""rec-eval benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload datagen-cite --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else. With ``--trace 0`` the last stdout line is a
JSON object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics and the tracing overhead instead. Lines before it list the
same metrics with their units and sample counts, the measured input shares
and the known-defect items. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import corpus
from calibrate import NOMINAL_S, reference_seconds
from spans import LAYER_UNITS, Tracer, layer_metrics
from workloads import WORKLOADS, Call, nproc, trace_targets

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Tail percentile per workload, fixed so that parent and change report the
# same statistic; chosen to leave at least ten samples beyond it at the
# seed's speed. A run with fewer samples lowers it just enough to keep ten.
TAIL_PCT = {"datagen-cite": 75.0, "datagen-overlap": 75.0, "score": 75.0, "evaluate": 99.0}
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "cpu_ms_per_item": "ms",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


@dataclass
class Batch:
    """One batch's item count and the timings of its client calls."""

    items: int
    calls: list  # workloads.Call

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.calls)

    @property
    def wall_corrected(self) -> float:
        return sum(corrected_wall(c) for c in self.calls)

    @property
    def cpu_corrected(self) -> float:
        return sum(c.cpu * NOMINAL_S / c.ref for c in self.calls)


def corrected_wall(call) -> float:
    """Wall time with its CPU part scaled to the nominal machine speed."""
    return call.wall - call.cpu * (1.0 - NOMINAL_S / call.ref)


def _locate_package() -> None:
    sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec("rec_eval")
    origin = Path(spec.origin).resolve() if spec is not None and spec.origin else None
    if origin is None or SRC.resolve() not in origin.parents:
        print(f"perfbench: no rec_eval package under {SRC}", file=sys.stderr)
        sys.exit(2)


def _percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1, -(-len(sorted_values) * pct // 100) - 1))
    return sorted_values[int(k)]


def _tail_pct(workload: str, n: int) -> float:
    return max(50.0, min(TAIL_PCT[workload], 100.0 * (1.0 - 10.0 / n)))


def _probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--probe-setup"],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def _workdir(workload: str, seed: int) -> Path:
    return ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"


def _setup(workload: str, seed: int):
    """Set the workload up; return it and its set-up time, speed-corrected."""
    wl = WORKLOADS[workload](seed, _workdir(workload, seed))
    before = statistics.median(reference_seconds() for _ in range(3))
    c0 = time.process_time()
    t0 = time.perf_counter()
    wl.setup()
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    after = statistics.median(reference_seconds() for _ in range(3))
    return wl, corrected_wall(Call(wall, cpu, (before + after) / 2))


def _line(name: str, value: float, unit: str, note: str) -> None:
    print(f"  {name:<34} {value:>14.6g} {unit:<10} {note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _locate_package()
    if args.probe_setup:
        wl, took = _setup(args.workload, args.seed)
        shutil.rmtree(wl.workdir, ignore_errors=True)
        print(repr(took))
        return 0

    setups = [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    wl, took = _setup(args.workload, args.seed)
    setups.append(took)
    try:
        return _measure(wl, args, setups)
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)
        try:
            wl.workdir.parent.rmdir()
        except OSError:
            pass


def _measure(wl, args, setups: list[float]) -> int:
    tracer = Tracer(trace_targets(wl.pkg)) if args.trace else None
    shares = corpus.Shares()
    attempted = failed = 0
    known: dict[str, int] = {}
    notes: list[str] = []
    plain: list[Batch] = []  # untraced batches
    traced: list[Batch] = []
    measured = 0.0
    b = 0
    prep = wl.first
    while True:
        # A traced run runs each batch twice, traced and untraced, in
        # alternating order; the paired difference is the tracing overhead.
        if tracer is None or b == 0:
            passes: tuple[bool, ...] = (False,)
        else:
            passes = (True, False) if b % 2 else (False, True)
        for is_traced in passes:
            gc.collect()
            if is_traced:
                tracer.item = b
                tracer.install()
            try:
                results, calls = wl.run(prep, reference_seconds)
            finally:
                if is_traced:
                    tracer.uninstall()
            checked = wl.check(prep, results)
            attempted += checked.items
            failed += checked.failed
            for tag, n in checked.known.items():
                known[tag] = known.get(tag, 0) + n
            notes += checked.notes[: max(0, 5 - len(notes))]
            if b == 0:  # batch 0 warms up lazy set-up and is not timed
                continue
            batch = Batch(checked.items, calls)
            measured += batch.wall
            if is_traced:
                traced.append(batch)
            else:
                plain.append(batch)
                shares.add(prep.shares)
        if b > 0 and measured >= args.seconds:
            break
        b += 1
        prep = wl.prepare(b)

    n_items = sum(r.items for r in plain)
    print(f"perfbench workload={wl.name} seed={wl.seed} trace={args.trace} "
          f"python={platform.python_version()} nproc={nproc()} "
          f"batches={len(plain)} untraced, {len(traced)} traced; items={n_items}")
    print("  inputs: " + " ".join(f"{k}={v:.4f}" for k, v in shares.fractions().items()))
    print(f"  known-defect items (planted outcome not met): {known or 'none'}; "
          f"unexpected failures: {failed}")
    for note in notes:
        print(f"  failure: {note}")

    if args.trace:
        spans = tracer.spans
        traced_items = sum(r.items for r in traced)
        metrics = layer_metrics(spans, traced_items)
        metrics["trace.overhead_ms_per_item"] = statistics.median(
            (t.wall_corrected - p.wall_corrected) / t.items * 1000 for t, p in zip(traced, plain))
        metrics["trace.overhead_frac"] = statistics.median(
            t.wall_corrected / p.wall_corrected - 1.0 for t, p in zip(traced, plain))
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{wl.name}-{wl.seed}.jsonl"
        tracer.write(str(path))
        print(f"  {len(spans)} spans over {traced_items} traced items written to "
              f"{path.relative_to(ROOT)}")
        for name, value in metrics.items():
            _line(name, value, LAYER_UNITS[name], f"(n={traced_items} traced items)")
        payload = {name: {"value": value, "unit": LAYER_UNITS[name]} for name, value in metrics.items()}
    else:
        lat_sorted = sorted(corrected_wall(c) for r in plain for c in r.calls)
        raw_rate = statistics.median(r.items / r.wall for r in plain)
        speed = statistics.median(NOMINAL_S / c.ref for r in plain for c in r.calls)
        pct = _tail_pct(wl.name, len(lat_sorted))
        ok = 1.0 - (failed + sum(known.values())) / attempted
        values = {
            "setup_s": statistics.median(setups),
            "items_per_s": statistics.median(r.items / r.wall_corrected for r in plain),
            "cpu_ms_per_item": statistics.median(r.cpu_corrected / r.items * 1000 for r in plain),
            "latency_p50_ms": _percentile(lat_sorted, 50.0) * 1000,
            "latency_tail_ms": _percentile(lat_sorted, pct) * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": ok,
        }
        notes_by = {
            "setup_s": f"(median of n={len(setups)} set-ups, {SETUP_PROBES} in fresh processes)",
            "items_per_s": f"(median of n={len(plain)} batch rates, {n_items} items; "
                           f"uncorrected {raw_rate:.6g} at machine speed {speed:.3f})",
            "cpu_ms_per_item": f"(median of n={len(plain)} batches)",
            "latency_p50_ms": f"(p50 of n={len(lat_sorted)} client calls)",
            "latency_tail_ms": f"(p{pct:g} of n={len(lat_sorted)} client calls)",
            "peak_rss_mb": "(ru_maxrss of this process)",
            "ok_frac": f"(1 - failed_frac; {failed + sum(known.values())} of {attempted} items "
                       f"missed their planted outcome)",
        }
        for name, value in values.items():
            _line(name, value, END_TO_END_UNITS[name], notes_by[name])
        payload = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": payload,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
