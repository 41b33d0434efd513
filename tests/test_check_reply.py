import json

import pytest

from rec_eval import (
    CitationMode,
    MatchPolicy,
    SourceRecord,
    TaskType,
    check_reply,
    filter_one,
)
from rec_eval.cli import main

CTX = "The store opens at nine. Refunds take three days. Shipping is free."
CHUNKS = {
    "1": "Plants make sugar from light. Leaves hold chlorophyll.",
    "2": "Roots take up water from the soil.",
}
ANSWER = "Plants make sugar from light. Roots take up water."


def _quality(citation):
    return json.dumps(
        {
            "answer": "No",
            "feedback": "The summary invents a loyalty program.",
            "statements": [
                {
                    "statement_string": "The summary invents a loyalty program.",
                    "citations": [citation],
                }
            ],
        }
    )


def _rag(context_id, snippet, claim=None):
    entry = {"context_id": context_id, "snippet": snippet}
    if claim is not None:
        entry["claim"] = claim
    return json.dumps({"citations": [entry]})


QUALITY_OK = _quality("Refunds take three days.")
QUALITY_NOT_VERBATIM = _quality("Refunds are never given.")
# Content-quality citations are matched by text alone; an id they carry is
# not looked up, so an unknown one does not fail the reply.
QUALITY_UNKNOWN_ID = _quality({"snippet": "Refunds take three days.", "context_id": "nope"})
RAG_OK = _rag("1", "Plants make sugar from light.")
RAG_NOT_VERBATIM = _rag("1", "Plants eat sunlight.")
RAG_UNKNOWN_ID = _rag("9", "Plants make sugar from light.")
POINTWISE_OK = json.dumps({"metriclabel": "Yes", "justification": "Fine."})
# Pointwise replies cite nothing, so there is nothing to verify.
POINTWISE_UNQUOTED = json.dumps({"metriclabel": "No", "justification": "Not in any source."})
POINTWISE_UNKNOWN_ID = json.dumps({"metriclabel": "No", "justification": "x", "context_id": "9"})

# kind, reply, parsed, ok, verified (a VerificationReport exists), error
CASES = {
    "quality-ok": ("quality", QUALITY_OK, True, True, True, None),
    "quality-bad-json": ("quality", "{{{", False, False, False, None),
    "quality-not-verbatim": ("quality", QUALITY_NOT_VERBATIM, True, False, True, None),
    "quality-unknown-id": ("quality", QUALITY_UNKNOWN_ID, True, True, True, None),
    "rag-ok": ("rag", RAG_OK, True, True, True, None),
    "rag-bad-json": ("rag", "no json here", False, False, False, None),
    "rag-not-verbatim": ("rag", RAG_NOT_VERBATIM, True, False, True, None),
    "rag-unknown-id": (
        "rag", RAG_UNKNOWN_ID, True, False, False, "cited context_id '9' not in chunks"
    ),
    "pointwise-ok": ("pointwise", POINTWISE_OK, True, True, False, None),
    "pointwise-bad-json": ("pointwise", '{"metriclabel": "Maybe"}', False, False, False, None),
    "pointwise-not-verbatim": ("pointwise", POINTWISE_UNQUOTED, True, True, False, None),
    "pointwise-unknown-id": ("pointwise", POINTWISE_UNKNOWN_ID, True, True, False, None),
}


def _source(kind):
    return {"quality": CTX, "rag": CHUNKS, "pointwise": None}[kind]


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_reply_table(case):
    kind, raw, parsed, ok, verified, error = CASES[case]
    checked = check_reply(
        kind, raw, _source(kind), mode=CitationMode.POST_FIX_SNIPPET, answer=ANSWER
    )
    assert (checked.value is not None) == parsed
    assert checked.validation.ok == parsed
    assert checked.ok == ok
    assert (checked.verification is not None) == verified
    assert checked.error == error
    record = checked.to_json_value()
    assert record["ok"] == ok
    assert record["validation"] == checked.validation.to_json_value()
    assert ("verification" in record) == verified
    assert record.get("error") == error


def test_check_reply_parse_only_without_source():
    checked = check_reply("quality", QUALITY_NOT_VERBATIM, None)
    assert checked.value is not None and checked.verification is None and checked.ok
    checked = check_reply("rag", RAG_UNKNOWN_ID, None, mode=CitationMode.POST_FIX_SNIPPET)
    assert checked.value is not None and checked.error is None


def test_check_reply_respects_policy():
    spaced = _quality("Refunds  take three days.")
    assert check_reply("quality", spaced, CTX).ok
    assert not check_reply("quality", spaced, CTX, policy=MatchPolicy.STRICT).ok


def test_check_reply_rejects_bad_arguments():
    with pytest.raises(ValueError):
        check_reply("pairwise", POINTWISE_OK, None)
    with pytest.raises(ValueError):
        check_reply("rag", RAG_OK, CHUNKS, answer=ANSWER)


# One set of stored replies, judged by all three paths.
QUALITY_REPLIES = [QUALITY_OK, "{{{", QUALITY_NOT_VERBATIM, QUALITY_UNKNOWN_ID]
RAG_REPLIES = {
    "postfix-snippet": [RAG_OK, "no json here", RAG_NOT_VERBATIM, RAG_UNKNOWN_ID],
    "inline-snippet": [
        _rag("1", "Plants make sugar from light.", claim="Plants make sugar from light."),
        _rag("1", "Plants make sugar from light.", claim="Plants are blue."),
        _rag("2", "Roots drink water.", claim="Roots take up water."),
        _rag("7", "Roots take up water from the soil.", claim="Roots take up water."),
    ],
}


def _validate(tmp_path, records, capsys):
    contexts = [{"context_id": "ctx", "body": CTX}]
    contexts += [{"context_id": cid, "body": body} for cid, body in CHUNKS.items()]
    (tmp_path / "contexts.jsonl").write_text(
        "".join(json.dumps(c) + "\n" for c in contexts), encoding="utf-8"
    )
    (tmp_path / "records.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
    )
    capsys.readouterr()
    main(["validate", "--records", str(tmp_path / "records.jsonl"),
          "--contexts", str(tmp_path / "contexts.jsonl")])
    return [r["ok"] for r in json.loads(capsys.readouterr().out)["records"]]


def _call(tmp_path, argv, reply):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"rules": [], "default": reply}), encoding="utf-8")
    return main(argv + ["--backend", f"mock:{script}"]) == 0


def test_filter_validate_and_cli_agree_on_quality_replies(tmp_path, capsys):
    task = SourceRecord("d", TaskType.CITATION, {"task_prompt": CTX, "generation": "A summary."})
    (tmp_path / "context.txt").write_text(CTX, encoding="utf-8")
    (tmp_path / "generation.txt").write_text("A summary.", encoding="utf-8")
    argv = ["evaluate", "--context", str(tmp_path / "context.txt"),
            "--generation", str(tmp_path / "generation.txt"), "--metric", "f"]
    kept = [filter_one(raw, task).kept for raw in QUALITY_REPLIES]
    records = [{"kind": "quality", "raw": raw, "context_id": "ctx"} for raw in QUALITY_REPLIES]
    valid = _validate(tmp_path, records, capsys)
    exit_ok = [_call(tmp_path, argv, raw) for raw in QUALITY_REPLIES]
    assert kept == valid == exit_ok == [True, False, False, True]


@pytest.mark.parametrize("mode", sorted(RAG_REPLIES))
def test_filter_validate_and_cli_agree_on_rag_replies(tmp_path, capsys, mode):
    replies = RAG_REPLIES[mode]
    chunks = [{"context_id": cid, "body": body} for cid, body in CHUNKS.items()]
    task = SourceRecord("d", TaskType.CITATION, {"chunks": chunks, "answer": ANSWER, "mode": mode})
    (tmp_path / "chunks.json").write_text(json.dumps(chunks), encoding="utf-8")
    (tmp_path / "answer.txt").write_text(ANSWER, encoding="utf-8")
    argv = ["cite", "--chunks", str(tmp_path / "chunks.json"),
            "--answer", str(tmp_path / "answer.txt"), "--mode", mode]
    kept = [filter_one(raw, task).kept for raw in replies]
    records = [
        {"kind": "rag", "raw": raw, "mode": mode, "answer": ANSWER, "context_ids": list(CHUNKS)}
        for raw in replies
    ]
    valid = _validate(tmp_path, records, capsys)
    exit_ok = [_call(tmp_path, argv, raw) for raw in replies]
    assert kept == valid == exit_ok == [True, False, False, False]
