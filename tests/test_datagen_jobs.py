"""How generate fans a source record out into jobs, and how malformed records fail."""

import json
import re

import pytest

from rec_eval import (
    Gateway,
    MockBackend,
    RecError,
    SourceRecord,
    TaskType,
    generate,
    metric_by_name,
    metric_catalog,
    script_responder,
)
from rec_eval.cli import main

CTX = "The store opens at nine. Refunds take three days. Shipping is free."
CHUNKS = [{"context_id": "1", "body": "Lizards bask in the sun."}]

POINTWISE = {"query_with_context": "q", "answer": "a"}
QUALITY = {"task_prompt": CTX, "generation": "A summary."}
RAG = {"chunks": CHUNKS, "answer": "Lizards bask."}


def _gateway():
    return Gateway(MockBackend(script_responder({"default": "not json"})), backoff_s=0.0)


def _named_metrics(prompt):
    return [m.name.value for m in metric_catalog() if m.description in prompt]


@pytest.mark.parametrize(
    "task_type, inputs, metrics, expected",
    [
        (TaskType.POINTWISE_EVAL, POINTWISE, [], [[m.name.value] for m in metric_catalog()]),
        (TaskType.POINTWISE_EVAL, POINTWISE, ["f", "coh"], [["Faithfulness"], ["Coherence"]]),
        (TaskType.CITATION, {**QUALITY, "metric": "completeness"}, ["f"], [["Completeness"]]),
        (TaskType.CITATION, QUALITY, ["coh", "f"], [["Coherence"]]),
        (TaskType.CITATION, QUALITY, [], [["Faithfulness"]]),
        (TaskType.CITATION, RAG, ["f"], [[]]),
    ],
    ids=["pointwise-all", "pointwise-f-coh", "quality-named", "quality-first", "quality-default", "rag"],
)
def test_each_job_prompt_names_its_metric(task_type, inputs, metrics, expected):
    source = SourceRecord(source_dataset="d", task_type=task_type, inputs=inputs)
    records, stats = generate([source], [metric_by_name(m) for m in metrics], _gateway())
    assert stats.total == len(expected)
    assert [_named_metrics(r.prompt) for r in records] == expected


MALFORMED = {
    "unknown-mode": (TaskType.CITATION, {**RAG, "mode": "sideways"}, "cite-rag"),
    "chunk-without-body": (TaskType.CITATION, {"chunks": [{"context_id": "1"}], "answer": "a"}, "cite-rag"),
    "chunk-not-object": (TaskType.CITATION, {"chunks": ["text"], "answer": "a"}, "cite-rag"),
    "duplicate-chunk-ids": (
        TaskType.CITATION,
        {"chunks": [{"context_id": "1", "body": "a"}, {"context_id": "1", "body": "b"}], "answer": "a"},
        "cite-rag",
    ),
    "empty-chunk-body": (TaskType.CITATION, {"chunks": [{"context_id": "1", "body": ""}], "answer": "a"}, "cite-rag"),
    "unknown-metric": (TaskType.CITATION, {**QUALITY, "metric": "zz"}, "cite-quality"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_record_is_an_input_error(case, tmp_path, capsys):
    task_type, inputs, task = MALFORMED[case]
    gateway = _gateway()
    with pytest.raises(RecError, match="bad source record from 'm'"):
        generate([SourceRecord(source_dataset="m", task_type=task_type, inputs=inputs)], [], gateway)
    assert gateway.backend.calls == []

    (tmp_path / "in.jsonl").write_text(json.dumps({"source_dataset": "m", "inputs": inputs}) + "\n")
    (tmp_path / "script.json").write_text(json.dumps({"default": "x"}))
    code = main([
        "datagen", "--input", str(tmp_path / "in.jsonl"), "--task", task,
        "--out", str(tmp_path / "out.jsonl"), "--backend", f"mock:{tmp_path / 'script.json'}",
    ])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "task, inputs",
    [("cite-rag", QUALITY), ("cite-quality", RAG)],
    ids=["rag-task-quality-record", "quality-task-rag-record"],
)
def test_datagen_task_must_match_record_kind(task, inputs, tmp_path, capsys):
    (tmp_path / "in.jsonl").write_text(json.dumps({"inputs": inputs}) + "\n")
    (tmp_path / "script.json").write_text(json.dumps({"default": "x"}))
    code = main([
        "datagen", "--input", str(tmp_path / "in.jsonl"), "--task", task,
        "--out", str(tmp_path / "out.jsonl"), "--backend", f"mock:{tmp_path / 'script.json'}",
    ])
    assert code == 1
    assert f"line 1: {task} records" in capsys.readouterr().err


GOOD_LINE = {"cite-rag": RAG, "cite-quality": QUALITY, "pointwise": POINTWISE}
NAMED_PROBLEMS = {
    "null-chunk-id": ("cite-rag", {"chunks": [{"context_id": None, "body": "Cats purr."}], "answer": "Cats purr."},
                      "chunk 1: a chunk's body must be a string and its context_id a string or an integer"),
    "float-chunk-id": ("cite-rag", {"chunks": [{"context_id": 1.5, "body": "Cats purr."}], "answer": "Cats purr."},
                       "chunk 1: a chunk's body must be a string and its context_id a string or an integer"),
    "no-support-chunk-id": ("cite-rag", {"chunks": [{"context_id": "None", "body": "Cats purr."}], "answer": "Cats purr."},
                            "chunk 1: a chunk's context_id may not be 'None'"),
    "null-generation": ("cite-quality", {**QUALITY, "generation": None}, "quality record needs a non-empty 'generation' string input"),
    "number-answer": ("pointwise", {**POINTWISE, "answer": 5}, "pointwise record needs a non-empty 'answer' string input"),
    "unknown-mode": ("cite-rag", {**RAG, "mode": "sideways"}, "unknown citation mode 'sideways'"),
    "number-mode": ("cite-rag", {**RAG, "mode": 5}, "unknown citation mode 5"),
    "number-metric": ("cite-quality", {**QUALITY, "metric": 5}, "unknown metric 5"),
}


@pytest.mark.parametrize("case", sorted(NAMED_PROBLEMS))
def test_datagen_names_the_line_and_problem_of_a_bad_record(case, tmp_path, capsys):
    task, inputs, problem = NAMED_PROBLEMS[case]
    task_type = TaskType.POINTWISE_EVAL if task == "pointwise" else TaskType.CITATION
    gateway = _gateway()
    with pytest.raises(RecError, match=f"bad source record from 'm': .*{re.escape(problem)}"):
        generate([SourceRecord(source_dataset="m", task_type=task_type, inputs=inputs)], [], gateway)
    assert gateway.backend.calls == []

    lines = [{"source_dataset": "ok", "inputs": GOOD_LINE[task]}, {"source_dataset": "m", "inputs": inputs}]
    (tmp_path / "in.jsonl").write_text("".join(json.dumps(line) + "\n" for line in lines))
    (tmp_path / "script.json").write_text(json.dumps({"default": "x"}))
    code = main([
        "datagen", "--input", str(tmp_path / "in.jsonl"), "--task", task,
        "--out", str(tmp_path / "out.jsonl"), "--backend", f"mock:{tmp_path / 'script.json'}",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"usage error: {tmp_path / 'in.jsonl'} line 2: {problem}" in err
    assert "Traceback" not in err
