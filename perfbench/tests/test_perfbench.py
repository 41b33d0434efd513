"""Tests of the benchmark itself: determinism, oracle agreement, tiny runs.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import corpus  # noqa: E402
from rec_eval import datagen, verify  # noqa: E402
from rec_eval.cli import main as cli_main  # noqa: E402
from rec_eval.model import TaskType  # noqa: E402


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    for b in range(3):
        assert corpus.batch_bytes(workload, 11, b) == corpus.batch_bytes(workload, 11, b)
    assert corpus.batch_bytes(workload, 11, 1) != corpus.batch_bytes(workload, 12, 1)
    assert corpus.batch_bytes(workload, 11, 1) != corpus.batch_bytes(workload, 11, 2)


def test_reference_segmenter_agrees_with_the_package():
    for b in range(3):
        for call in corpus.score_batch(5, b).calls:
            spans = [span for _, span in verify.segment_sentences(call.body)]
            assert corpus.ref_segment(call.body) == spans


def test_score_oracle_agrees_with_the_package_on_a_clean_corpus(tmp_path, capsys):
    checked = 0
    for b in range(2):
        for call in corpus.score_batch(7, b).calls:
            records = [r for r in call.records if (r.get("metric") or "overall") not in call.known]
            pred = tmp_path / "pred.jsonl"
            ctx = tmp_path / "ctx.jsonl"
            pred.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
            ctx.write_text(json.dumps({"context_id": call.context_id, "body": call.body}) + "\n",
                           encoding="utf-8")
            capsys.readouterr()
            assert cli_main(["score", "--pred", str(pred), "--contexts", str(ctx)]) == 0
            got = json.loads(capsys.readouterr().out)
            assert got == corpus.score_oracle(records, {call.context_id: call.body})
            checked += len(records)
    assert checked > 20


def test_score_oracle_expects_hangul_matches_the_seed_misses():
    call = next(c for b in range(4) for c in corpus.score_batch(3, b).calls if c.known)
    name, tag = next(iter(call.known.items()))
    assert tag == "3d"
    rec = next(r for r in call.records if (r.get("metric") or "overall") == name)
    prf = corpus.score_oracle([rec], {call.context_id: call.body})["per_metric"][name]["citation_prf"]
    assert prf["n_scored"] == 1 and prf["recall"] > 0


@pytest.mark.parametrize("workload", ["datagen-cite", "datagen-overlap"])
def test_planted_buckets_agree_with_filter_one_on_clean_jobs(workload):
    types = {"citation": TaskType.CITATION, "pointwise": TaskType.POINTWISE_EVAL}
    metrics = {m: datagen.metric_by_name(m) for m in corpus.METRICS}
    for b in range(4):
        batch = corpus.make_batch(workload, 9, b)
        for record in batch.records:
            source = datagen.SourceRecord(record["source_dataset"], types[record["task_type"]], record["inputs"])
            key = record["source_dataset"][len("bench-"):]
            for job_key, job in batch.jobs.items():
                if job_key.split(":")[0] != key or job.known or job.error == "refusal":
                    continue
                metric = metrics[job_key.split(":")[1]] if ":" in job_key else None
                outcome = datagen.filter_one(job.reply, source, metric=metric, max_tokens=batch.max_tokens)
                status = outcome.record.filter_status.value
                assert status == {"kept": "Kept", "bad_json": "RejectedBadJson",
                                  "non_verbatim": "RejectedNonVerbatim",
                                  "too_long": "RejectedTooLong"}[job.bucket], job_key
                if job.bucket == "kept":
                    assert outcome.record.completion == job.canonical


def test_planted_known_defects_are_present():
    cite = [j for b in range(4) for j in corpus.datagen_cite_batch(1, b).jobs.values()]
    overlap = [j for b in range(4) for j in corpus.datagen_overlap_batch(1, b).jobs.values()]
    evaluate = [c for b in range(4) for c in corpus.evaluate_batch(1, b).calls]
    assert {j.known for j in cite} >= {"3d"}
    assert {j.known for j in overlap} >= {"3b"}
    assert {c.known for c in evaluate} >= {"3a"}
    assert {j.bucket for j in cite} == {"kept", "bad_json", "non_verbatim", "too_long", "transport"}
    assert any(j.error == "refusal" for j in cite)
    assert any(j.error == "flaky" for j in overlap)
    assert {c.hostile for c in evaluate} == {None, "prose", "truncated", "deep", "non_verbatim"}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_tiny_run_completes_and_counts_known_defects(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "4", "--seconds", "0.2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {
        "setup_s", "items_per_s", "cpu_ms_per_item", "latency_p50_ms",
        "latency_tail_ms", "peak_rss_mb", "ok_frac",
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # The seed's known defects show as items that missed their planted outcome.
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert "known-defect items" in proc.stdout and "'3" in proc.stdout


def test_tiny_traced_run_reports_every_per_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, "--workload", "evaluate", "--seed", "4", "--seconds", "0.2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in bench["per_layer"]}
    assert result["metrics"]["render.calls"]["value"] > 0
    assert result["metrics"]["cli.calls"]["value"] == 1.0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "score", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
