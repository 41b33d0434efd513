#!/usr/bin/env python3
"""Re-measure the ad-hoc seed numbers quoted in ROADMAP.md with the tracer.

    python3 perfbench/crosscheck.py

1. ``datagen``, content-quality citation task: 200 records, ~4 KB contexts,
   8 citations each, zero-latency mock, parallelism 1 (ROADMAP: ~11 ms per
   record, ~99% of it in ``verify._normalize_with_map``).
2. One normalization of a 175 KB context, and 20 ``verify_snippet`` calls
   on it under each policy (ROADMAP: 60 ms; 1.57 s normalized, 2 ms strict).
3. ``citation_prf`` with 20 predicted and 10 gold citations on that context
   (ROADMAP: 2.6 s).

Times are medians of three repetitions, uncorrected, on whatever machine
runs this; the machine-speed factor of ``calibrate.py`` is printed with them.
"""

from __future__ import annotations

import json
import random
import re
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import corpus  # noqa: E402
from calibrate import NOMINAL_S, reference_seconds  # noqa: E402
from spans import Tracer  # noqa: E402


def _median_time(fn, reps: int = 3) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    from rec_eval import datagen, gateway, metrics, verify
    from rec_eval.model import TaskType, metric_catalog

    speed = statistics.median(NOMINAL_S / reference_seconds() for _ in range(50))
    rng = random.Random("crosscheck")
    text = corpus.TextMaker(rng, corpus.Shares())

    # 1. datagen, 200 records of ~4 KB with 8 citations each.
    records, replies = [], {}
    for i in range(200):
        sentences = text.sentences_until(4096)
        obj = corpus._quality_reply(text, sentences, 8)
        records.append(datagen.SourceRecord(
            f"x{i}", TaskType.CITATION,
            {"task_prompt": text.join(sentences), "generation": f"Item 0x{i}. " + text.sentence(),
             "metric": "Faithfulness"}))
        replies[f"0x{i}"] = json.dumps(obj, ensure_ascii=False)
    key_re = re.compile(r"Item (\d+x\d+)\.")
    gw = gateway.Gateway(gateway.MockBackend(lambda p: replies[key_re.search(p).group(1)]))
    config = datagen.PipelineConfig(parallelism=1, max_tokens=1e9)
    run = lambda: datagen.generate(records, metric_catalog()[:1], gw, config=config)  # noqa: E731
    untraced = _median_time(run)
    tracer = Tracer([
        (datagen, "generate", "datagen.generate", None),
        (verify, "verify_snippet", "verify.snippet", None),
        (verify, "_normalize_with_map", "verify.normalize", None),
    ])
    tracer.install()
    try:
        _, stats = run()
    finally:
        tracer.uninstall()
    total = sum(s[2] - s[1] for s in tracer.spans if s[0] == "datagen.generate")
    norm = sum(s[2] - s[1] for s in tracer.spans if s[0] == "verify.normalize")
    n_norm = sum(1 for s in tracer.spans if s[0] == "verify.normalize")
    n_snip = sum(1 for s in tracer.spans if s[0] == "verify.snippet")
    report = {
        "machine_speed": speed,
        "datagen_ms_per_record": untraced / len(records) * 1000,
        "datagen_kept": stats.kept,
        "datagen_normalize_share": norm / total,
        "datagen_normalize_calls": n_norm,
        "datagen_verify_snippet_calls": n_snip,
    }

    # 2. and 3. on a 175 KB context.
    sentences = text.sentences_until(175 * 1024)
    body = text.join(sentences)
    snippets = [text.snippet(rng.choice(sentences)) for _ in range(20)]
    report["ctx_175k_chars"] = len(body)
    report["normalize_175k_ms"] = _median_time(lambda: verify.normalize(body)) * 1000
    for policy in (verify.MatchPolicy.NORMALIZED, verify.MatchPolicy.STRICT):
        report[f"verify_20_{policy.value}_ms"] = _median_time(
            lambda: [verify.verify_snippet(s, body, policy) for s in snippets]) * 1000
    gold = metrics.GoldCitationSet(frozenset(rng.sample(sentences, 10)))
    report["citation_prf_20x10_ms"] = _median_time(
        lambda: metrics.citation_prf(snippets, gold, body), reps=1) * 1000
    for k, v in report.items():
        print(f"{k:<32} {v:.6g}" if isinstance(v, float) else f"{k:<32} {v}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
