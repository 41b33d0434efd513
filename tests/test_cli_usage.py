"""Bad templates, worker counts, token budgets, mock scripts, config values, input files, chunks and judge pairs are usage errors (exit 1), found before any backend call."""

import json
import math

import pytest

from rec_eval.cli import build_parser, main
from rec_eval.gateway import MockBackend

REPLY = {
    "answer": "Yes",
    "feedback": "Fine.",
    "statements": [{"statement_string": "Fine.", "citations": ["Refunds take three days."]}],
}
CTX = "The store opens at nine. Refunds take three days."
A, B = {"context_id": "1", "body": "Cats purr."}, {"context_id": "2", "body": "Dogs bark."}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    def no_backend_call(self, prompt, **kwargs):
        raise AssertionError("the backend was called")

    monkeypatch.setattr(MockBackend, "send", no_backend_call)
    (tmp_path / "context.txt").write_text(CTX, encoding="utf-8")
    (tmp_path / "generation.txt").write_text("A summary.", encoding="utf-8")
    (tmp_path / "script.json").write_text(
        json.dumps({"rules": [], "default": json.dumps(REPLY)}), encoding="utf-8"
    )
    source = {"source_dataset": "demo", "inputs": {"task_prompt": CTX, "generation": "gen"}}
    (tmp_path / "sources.jsonl").write_text(json.dumps(source) + "\n", encoding="utf-8")
    pair = {"instruction": "i", "chosen": "a", "rejected": "b"}
    (tmp_path / "pairs.jsonl").write_text(json.dumps(pair) + "\n", encoding="utf-8")
    templates = tmp_path / "templates"
    templates.mkdir()
    (templates / "quality_eval.txt").write_text("Rate {generation} by {bogus}.", encoding="utf-8")
    return tmp_path


def _evaluate(d):
    return ["evaluate", "--context", str(d / "context.txt"), "--generation", str(d / "generation.txt"),
            "--metric", "faithfulness", "--backend", f"mock:{d / 'script.json'}"]


def _datagen(d):
    return ["datagen", "--input", str(d / "sources.jsonl"), "--task", "cite-quality",
            "--out", str(d / "data.jsonl"), "--backend", f"mock:{d / 'script.json'}"]


def _judge(d):
    return ["judge", "--pairs", str(d / "pairs.jsonl"), "--backend", f"mock:{d / 'script.json'}"]


@pytest.mark.parametrize("command", [_evaluate, _datagen])
def test_template_with_an_unknown_slot_is_a_usage_error(workdir, capsys, command):
    code = main(command(workdir) + ["--template-dir", str(workdir / "templates")])
    err = capsys.readouterr().err
    assert code == 1
    assert "usage error" in err and "bogus" in err and "QualityEval" in err
    assert "Traceback" not in err
    assert not (workdir / "data.jsonl").exists()


@pytest.mark.parametrize("command", [_datagen, _judge])
@pytest.mark.parametrize("value", ["0", "-1", "two"])
def test_parallelism_flag_below_one_is_a_usage_error(workdir, capsys, command, value):
    assert main(command(workdir) + ["--parallelism", value]) == 1
    assert "parallelism" in capsys.readouterr().err


@pytest.mark.parametrize("command", [_datagen, _judge])
@pytest.mark.parametrize("value", [0, -1, "x", None, math.inf])
def test_config_parallelism_below_one_is_a_usage_error(workdir, capsys, command, value):
    (workdir / "config.json").write_text(json.dumps({"parallelism": value}), encoding="utf-8")
    assert main(command(workdir) + ["--config", str(workdir / "config.json")]) == 1
    assert "parallelism" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "0", "-5"])
def test_max_tokens_not_above_zero_is_a_usage_error(workdir, capsys, value):
    assert main(_datagen(workdir) + ["--max-tokens", value]) == 1
    assert "max-tokens" in capsys.readouterr().err
    assert not (workdir / "data.jsonl").exists()


def test_max_tokens_may_be_infinite(workdir):
    assert build_parser().parse_args(_datagen(workdir) + ["--max-tokens", "inf"]).max_tokens == math.inf


@pytest.mark.parametrize("command, path, message", [
    (_datagen, "sources.jsonl", "record needs an inputs object"),
    (_judge, "pairs.jsonl", "pair needs instruction, chosen, rejected"),
])
def test_a_bad_record_is_named_by_its_line_in_the_file(workdir, capsys, command, path, message):
    good = (workdir / path).read_text(encoding="utf-8")
    (workdir / path).write_text(good + "\n" + json.dumps({"other": 1}) + "\n", encoding="utf-8")
    assert main(command(workdir)) == 1
    assert f"{workdir / path} line 3: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [_evaluate, _datagen, _judge])
@pytest.mark.parametrize("content", [None, b"{not json", b"\xff\xfe{}", b"[]"])
def test_a_bad_mock_script_is_a_usage_error_naming_it(workdir, capsys, command, content):
    script = workdir / "script.json"
    if content is None:
        script.unlink()
    else:
        script.write_bytes(content)
    assert main(command(workdir)) == 1
    err = capsys.readouterr().err
    assert f"usage error: cannot load mock script {script}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value", [("max_retries", "x"), ("max_retries", None),
                                        ("max_retries", math.inf), ("timeout_ms", "x")])
def test_a_config_count_that_is_not_an_integer_is_a_usage_error(workdir, capsys, key, value):
    config = workdir / "config.json"
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    # timeout_ms is read only for an HTTP backend; port 1 is never dialled.
    backend = ["--backend", "http://127.0.0.1:1/v1"] if key == "timeout_ms" else []
    assert main(_evaluate(workdir) + backend + ["--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"usage error: config {config}: {key} must be an integer, not {value!r}" in err
    assert "Traceback" not in err


def test_non_utf8_text_input_is_a_usage_error_naming_the_file(workdir, capsys):
    (workdir / "context.txt").write_bytes(b"\xff\xfeT\x00h\x00e\x00")
    assert main(_evaluate(workdir)) == 1
    err = capsys.readouterr().err
    assert f"usage error: cannot read {workdir / 'context.txt'}: 'utf-8' codec can't decode" in err
    assert "Traceback" not in err


def test_non_utf8_jsonl_input_is_a_usage_error_naming_the_file_and_line(workdir, capsys):
    pred = workdir / "pred.jsonl"
    pred.write_bytes(json.dumps({"metric": "f"}).encode() + b"\n\n\xff\xfe{}\n")
    assert main(["score", "--pred", str(pred)]) == 1
    err = capsys.readouterr().err
    assert f"usage error: {pred}: BadJson at line 3: not UTF-8: invalid start byte" in err
    assert "Traceback" not in err


def test_a_template_that_is_not_utf8_is_a_usage_error_naming_it(workdir, capsys):
    template = workdir / "templates" / "quality_eval.txt"
    template.write_bytes("Évaluez {generation}.".encode("latin-1"))
    assert main(_evaluate(workdir) + ["--template-dir", str(workdir / "templates")]) == 1
    err = capsys.readouterr().err
    assert f"usage error: cannot read template {template}: 'utf-8' codec can't decode" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, name", [
    (_evaluate, "context.txt"),
    (_evaluate, "generation.txt"),
    (lambda d: _cite(d, "chunks.json"), "generation.txt"),
])
@pytest.mark.parametrize("content", ["", " \n"])
def test_an_empty_prompt_input_is_a_usage_error_naming_it(workdir, capsys, command, name, content):
    (workdir / "chunks.json").write_text(json.dumps([A]), encoding="utf-8")
    (workdir / name).write_text(content, encoding="utf-8")
    assert main(command(workdir)) == 1
    err = capsys.readouterr().err
    assert f"usage error: {workdir / name} is empty" in err
    assert "Traceback" not in err


def _cite(d, chunks):
    return ["cite", "--chunks", str(d / chunks), "--answer", str(d / "generation.txt"),
            "--backend", f"mock:{d / 'script.json'}"]


def _render(d, chunks):
    (d / "raw.json").write_text('{"citations": []}', encoding="utf-8")
    return ["render", "--raw", str(d / "raw.json"), "--kind", "rag", "--mode", "inline",
            "--answer", str(d / "generation.txt"), "--chunks", str(d / chunks)]


@pytest.mark.parametrize("command", [_cite, _render])
@pytest.mark.parametrize("name, chunks, message", [
    ("chunks.json", [A, B, dict(B, body="Other.")], "chunk 3: duplicate context_id '2'"),
    ("chunks.jsonl", [A, None, dict(A, body="Other.")], "line 3: duplicate context_id '1'"),
    ("chunks.json", [A, dict(B, body="")], "chunk 2: a chunk's context_id and body must be non-empty"),
    ("chunks.jsonl", [dict(A, body=" ")], "line 1: a chunk's context_id and body must be non-empty"),
    ("chunks.jsonl", [dict(A, context_id="")], "line 1: a chunk's context_id and body must be non-empty"),
    ("chunks.jsonl", [A, "{not json"], "BadJson at line 2"),
    ("chunks.json", [dict(A, body=None)], "chunk 1: a chunk's body must be a string and its context_id"),
    ("chunks.jsonl", [dict(A, body=["Cats purr."])], "line 1: a chunk's body must be a string"),
    ("chunks.json", [A, dict(B, context_id=None)], "chunk 2: a chunk's body must be a string and its context_id"),
    ("chunks.jsonl", [dict(A, context_id=True)], "line 1: a chunk's body must be a string and its context_id"),
    ("chunks.json", [], ": no chunk in the file"),
    ("chunks.jsonl", [None, None], ": no chunk in the file"),
])
def test_a_bad_chunk_is_a_usage_error_naming_the_file_and_chunk(workdir, capsys, command, name, chunks, message):
    path = workdir / name
    if name.endswith(".json"):
        path.write_text(json.dumps(chunks), encoding="utf-8")
    else:
        lines = ["" if c is None else c if isinstance(c, str) else json.dumps(c) for c in chunks]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(command(workdir, name)) == 1
    err = capsys.readouterr().err
    assert f"usage error: {path}" in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value", [("instruction", 5), ("chosen", ""), ("rejected", None), ("chosen", " ")])
def test_a_judge_pair_field_that_is_not_a_non_empty_string_is_a_usage_error(workdir, capsys, key, value):
    pair = {"instruction": "i", "chosen": "a", "rejected": "b", key: value}
    (workdir / "pairs.jsonl").write_text(json.dumps(pair) + "\n", encoding="utf-8")
    assert main(_judge(workdir)) == 1
    err = capsys.readouterr().err
    assert f"usage error: {workdir / 'pairs.jsonl'} line 1: {key} must be a non-empty string" in err
    assert "Traceback" not in err


def _validate(d):
    (d / "records.jsonl").write_text(
        json.dumps({"kind": "quality", "context_id": "a", "raw": json.dumps(REPLY)}) + "\n", encoding="utf-8"
    )
    return ["validate", "--records", str(d / "records.jsonl"), "--contexts", str(d / "contexts.jsonl")]


def _score(d):
    (d / "pred.jsonl").write_text(json.dumps({"context_ref": "a", "gold": []}) + "\n", encoding="utf-8")
    return ["score", "--pred", str(d / "pred.jsonl"), "--contexts", str(d / "contexts.jsonl")]


@pytest.mark.parametrize("command", [_validate, _score])
@pytest.mark.parametrize("contexts, message", [
    ([{"context_id": "a", "body": None}], "line 1: a context's body must be a string and its context_id"),
    ([{"context_id": None, "body": CTX}], "line 1: a context's body must be a string and its context_id"),
    ([{"context_id": False, "body": CTX}], "line 1: a context's body must be a string and its context_id"),
    ([{"context_id": "a", "body": CTX}, {"context_id": "a", "body": "Other."}], "line 2: duplicate context_id 'a'"),
    ([{"context_id": "a", "body": " "}], "line 1: a context's context_id and body must be non-empty"),
    ([], ": no context in the file"),
])
def test_a_bad_context_is_a_usage_error_naming_the_file_and_line(workdir, capsys, command, contexts, message):
    path = workdir / "contexts.jsonl"
    path.write_text("".join(json.dumps(c) + "\n" for c in contexts), encoding="utf-8")
    assert main(command(workdir)) == 1
    err = capsys.readouterr().err
    assert f"usage error: {path}" in err and message in err
    assert "Traceback" not in err
