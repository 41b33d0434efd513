import json

import pytest

from rec_eval.cli import main
from conftest import fixture_text

GOOD_REPLY = {
    "answer": "No",
    "feedback": "The summary invents a loyalty program.",
    "statements": [
        {
            "statement_string": "The summary invents a loyalty program.",
            "citations": ["Refunds take three days."],
        }
    ],
}
CTX = "The store opens at nine. Refunds take three days. Shipping is free."


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "context.txt").write_text(CTX, encoding="utf-8")
    (tmp_path / "generation.txt").write_text("A summary.", encoding="utf-8")
    (tmp_path / "script.json").write_text(
        json.dumps({"rules": [], "default": json.dumps(GOOD_REPLY)}), encoding="utf-8"
    )
    return tmp_path


def _mock(workdir):
    return f"mock:{workdir / 'script.json'}"


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["evaluate", "--nonsense"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "evaluate" in capsys.readouterr().out


def test_evaluate_happy_path(workdir, capsys):
    code = main(
        [
            "evaluate",
            "--context", str(workdir / "context.txt"),
            "--generation", str(workdir / "generation.txt"),
            "--metric", "faithfulness",
            "--backend", _mock(workdir),
            "--out", str(workdir / "side.json"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "The summary invents a loyalty program." in out
    assert '[1]: "Refunds take three days."' in out
    sidecar = json.loads((workdir / "side.json").read_text())
    assert set(sidecar) == {"raw", "completion_canonical", "validation", "verification", "rendered"}
    assert sidecar["verification"]["all_citations_verbatim"] is True


def test_evaluate_json_format(workdir, capsys):
    code = main(
        [
            "evaluate",
            "--context", str(workdir / "context.txt"),
            "--generation", str(workdir / "generation.txt"),
            "--metric", "coherence",
            "--backend", _mock(workdir),
            "--format", "json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "postfix-snippet"


def test_evaluate_bad_reply_exits_2(workdir, capsys):
    (workdir / "script.json").write_text(
        json.dumps({"rules": [], "default": "not json"}), encoding="utf-8"
    )
    code = main(
        [
            "evaluate",
            "--context", str(workdir / "context.txt"),
            "--generation", str(workdir / "generation.txt"),
            "--metric", "f",
            "--backend", _mock(workdir),
            "--out", str(workdir / "side.json"),
        ]
    )
    assert code == 2
    assert "failed validation" in capsys.readouterr().err
    assert set(json.loads((workdir / "side.json").read_text())) == {"raw", "validation"}


def test_evaluate_non_verbatim_exits_2(workdir, capsys):
    fabricated = dict(GOOD_REPLY)
    fabricated["statements"] = [
        {"statement_string": "The summary invents a loyalty program.",
         "citations": ["We never made this up."]}
    ]
    (workdir / "script.json").write_text(
        json.dumps({"rules": [], "default": json.dumps(fabricated)}), encoding="utf-8"
    )
    code = main(
        [
            "evaluate",
            "--context", str(workdir / "context.txt"),
            "--generation", str(workdir / "generation.txt"),
            "--metric", "f",
            "--backend", _mock(workdir),
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "not verbatim" in captured.err
    assert captured.out  # rendered text still emitted


def test_evaluate_unknown_metric_is_usage_error(workdir):
    assert (
        main(
            [
                "evaluate",
                "--context", str(workdir / "context.txt"),
                "--generation", str(workdir / "generation.txt"),
                "--metric", "speed",
                "--backend", _mock(workdir),
            ]
        )
        == 1
    )


def test_evaluate_no_backend_is_usage_error(workdir, monkeypatch):
    monkeypatch.delenv("REC_BASE_URL", raising=False)
    assert (
        main(
            [
                "evaluate",
                "--context", str(workdir / "context.txt"),
                "--generation", str(workdir / "generation.txt"),
                "--metric", "f",
            ]
        )
        == 1
    )


def test_backend_env_fallback(workdir, monkeypatch, capsys):
    monkeypatch.setenv("REC_BASE_URL", _mock(workdir))
    code = main(
        [
            "evaluate",
            "--context", str(workdir / "context.txt"),
            "--generation", str(workdir / "generation.txt"),
            "--metric", "f",
        ]
    )
    assert code == 0


def test_backend_config_fallback(workdir, monkeypatch, capsys):
    monkeypatch.delenv("REC_BASE_URL", raising=False)
    (workdir / "conf.json").write_text(
        json.dumps({"base_url": _mock(workdir)}), encoding="utf-8"
    )
    code = main(
        [
            "evaluate",
            "--context", str(workdir / "context.txt"),
            "--generation", str(workdir / "generation.txt"),
            "--metric", "f",
            "--config", str(workdir / "conf.json"),
        ]
    )
    assert code == 0


def test_cite_happy_path(tmp_path, capsys):
    chunks = [{"context_id": "42", "body": "Bees pollinate flowers in spring."}]
    (tmp_path / "chunks.json").write_text(json.dumps(chunks), encoding="utf-8")
    (tmp_path / "answer.txt").write_text("Bees pollinate flowers.", encoding="utf-8")
    reply = {"citations": [{"context_id": "42", "claim": "Bees pollinate flowers."}]}
    (tmp_path / "script.json").write_text(
        json.dumps({"rules": [], "default": json.dumps(reply)}), encoding="utf-8"
    )
    code = main(
        [
            "cite",
            "--chunks", str(tmp_path / "chunks.json"),
            "--answer", str(tmp_path / "answer.txt"),
            "--mode", "inline",
            "--backend", f"mock:{tmp_path / 'script.json'}",
        ]
    )
    assert code == 0
    assert "[42]" in capsys.readouterr().out


def test_validate_mixed_records(tmp_path, capsys):
    contexts = tmp_path / "contexts.jsonl"
    contexts.write_text(json.dumps({"context_id": "c1", "body": CTX}) + "\n", encoding="utf-8")
    records = tmp_path / "records.jsonl"
    good = {"kind": "quality", "context_id": "c1", "raw": json.dumps(GOOD_REPLY)}
    bad = {"kind": "quality", "context_id": "c1", "raw": "nope"}
    records.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    code = main(["validate", "--records", str(records), "--contexts", str(contexts)])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["n"] == 2 and report["failed"] == 1
    assert report["records"][0]["ok"] is True
    assert report["records"][1]["ok"] is False


def test_validate_all_good_exits_zero(tmp_path, capsys):
    contexts = tmp_path / "contexts.jsonl"
    contexts.write_text(json.dumps({"context_id": "c1", "body": CTX}) + "\n", encoding="utf-8")
    records = tmp_path / "records.jsonl"
    good = {"kind": "quality", "context_id": "c1", "raw": json.dumps(GOOD_REPLY)}
    records.write_text(json.dumps(good) + "\n", encoding="utf-8")
    assert main(["validate", "--records", str(records), "--contexts", str(contexts)]) == 0


def test_validate_reads_an_integer_context_id_as_its_decimal_text(tmp_path, capsys):
    contexts = tmp_path / "contexts.jsonl"
    contexts.write_text(json.dumps({"context_id": 7, "body": CTX}) + "\n", encoding="utf-8")
    records = tmp_path / "records.jsonl"
    good = {"kind": "quality", "context_id": "7", "raw": json.dumps(GOOD_REPLY)}
    records.write_text(json.dumps(good) + "\n", encoding="utf-8")
    assert main(["validate", "--records", str(records), "--contexts", str(contexts)]) == 0


def test_validate_reports_each_record_at_its_line_in_the_file(tmp_path, capsys):
    contexts = tmp_path / "contexts.jsonl"
    contexts.write_text(json.dumps({"context_id": "c1", "body": CTX}) + "\n", encoding="utf-8")
    records = tmp_path / "records.jsonl"
    good = {"kind": "quality", "context_id": "c1", "raw": json.dumps(GOOD_REPLY)}
    records.write_text("\n" + json.dumps(good) + "\n\n" + json.dumps(good) + "\n", encoding="utf-8")
    assert main(["validate", "--records", str(records), "--contexts", str(contexts)]) == 0
    assert [r["line"] for r in json.loads(capsys.readouterr().out)["records"]] == [2, 4]


def test_render_quality_from_file(tmp_path, capsys):
    raw = tmp_path / "raw.json"
    raw.write_text(json.dumps(GOOD_REPLY), encoding="utf-8")
    code = main(["render", "--raw", str(raw), "--kind", "quality", "--mode", "postfix-snippet"])
    assert code == 0
    assert '[1]: "Refunds take three days."' in capsys.readouterr().out


def test_render_golden_fixture(tmp_path, capsys):
    raw = tmp_path / "raw.json"
    raw.write_text(fixture_text("summary_eval_reply.json"), encoding="utf-8")
    code = main(["render", "--raw", str(raw), "--kind", "quality", "--mode", "inline-snippet"])
    assert code == 0
    assert capsys.readouterr().out.rstrip("\n") == fixture_text("golden_inline.txt").rstrip("\n")


def test_render_rag_requires_answer(tmp_path):
    raw = tmp_path / "raw.json"
    raw.write_text('{"citations": []}', encoding="utf-8")
    assert main(["render", "--raw", str(raw), "--kind", "rag", "--mode", "postfix"]) == 1


def test_score_report(tmp_path, capsys):
    contexts = tmp_path / "contexts.jsonl"
    contexts.write_text(json.dumps({"context_id": "c1", "body": CTX}) + "\n", encoding="utf-8")
    rows = [
        {
            "metric": "faithfulness",
            "rating_pred": "Yes",
            "rating_gold": ["Yes", "No"],
            "predicted_citations": ["Refunds take three days."],
            "gold_a": ["Refunds take three days."],
            "gold_b": ["Refunds take three days."],
            "context_ref": "c1",
        },
        {
            "metric": "faithfulness",
            "rating_pred": "No",
            "rating_gold": "No",
            "predicted_citations": ["The store opens at nine."],
            "gold_a": ["Refunds take three days."],
            "gold_b": ["Refunds take three days."],
            "context_ref": "c1",
        },
        {
            "metric": "faithfulness",
            "rating_pred": "Yes",
            "rating_gold": "Yes",
            "predicted_citations": ["whatever"],
            "gold_a": [],
            "halu_a": True,
            "gold_b": [],
            "halu_b": True,
            "context_ref": "c1",
        },
    ]
    pred = tmp_path / "pred.jsonl"
    pred.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    code = main(["score", "--pred", str(pred), "--contexts", str(contexts)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["n"] == 3
    assert report["excluded_halu"] == 1
    per = report["per_metric"]["Faithfulness"]
    assert per["rate_acc"] == pytest.approx((0.5 + 1.0 + 1.0) / 3)
    assert per["citation_prf"]["n_scored"] == 2
    assert per["citation_prf"]["precision"] == pytest.approx(0.5)


def test_score_separate_gold_file(tmp_path, capsys):
    pred = tmp_path / "pred.jsonl"
    gold = tmp_path / "gold.jsonl"
    pred.write_text(json.dumps({"metric": "coh", "rating_pred": "Yes"}) + "\n", encoding="utf-8")
    gold.write_text(json.dumps({"rating_gold": "Yes"}) + "\n", encoding="utf-8")
    code = main(["score", "--pred", str(pred), "--gold", str(gold)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["per_metric"]["Coherence"]["rate_acc"] == 1.0


def test_score_line_count_mismatch_is_usage_error(tmp_path):
    pred = tmp_path / "pred.jsonl"
    gold = tmp_path / "gold.jsonl"
    pred.write_text('{"a": 1}\n{"a": 2}\n', encoding="utf-8")
    gold.write_text('{"b": 1}\n', encoding="utf-8")
    assert main(["score", "--pred", str(pred), "--gold", str(gold)]) == 1


def test_judge_both_orders(tmp_path, capsys):
    pairs = [
        {"instruction": f"i{i}", "chosen": f"GOOD {i}", "rejected": f"bad {i}"}
        for i in range(4)
    ]
    (tmp_path / "pairs.jsonl").write_text(
        "".join(json.dumps(p) + "\n" for p in pairs), encoding="utf-8"
    )
    (tmp_path / "script.json").write_text(
        json.dumps({"rules": [{"choose_output_containing": "GOOD"}]}), encoding="utf-8"
    )
    code = main(
        [
            "judge",
            "--pairs", str(tmp_path / "pairs.jsonl"),
            "--backend", f"mock:{tmp_path / 'script.json'}",
            "--both-orders",
        ]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["win_rate"] == 1.0
    assert report["order_bias"]["rate"] == 0.0
    assert report["n_judgments"] == 8


def test_judge_backend_failure_exits_3(tmp_path, capsys):
    (tmp_path / "pairs.jsonl").write_text(
        json.dumps({"instruction": "i", "chosen": "a", "rejected": "b"}) + "\n",
        encoding="utf-8",
    )
    (tmp_path / "script.json").write_text(
        json.dumps({"rules": [{"contains": "Instruction", "error": "transport"}]}),
        encoding="utf-8",
    )
    code = main(
        [
            "judge",
            "--pairs", str(tmp_path / "pairs.jsonl"),
            "--backend", f"mock:{tmp_path / 'script.json'}",
        ]
    )
    assert code == 3


def test_datagen_end_to_end(tmp_path, capsys):
    sources = [
        {"source_dataset": "demo", "inputs": {"task_prompt": CTX, "generation": f"gen {i}"}}
        for i in range(4)
    ]
    (tmp_path / "sources.jsonl").write_text(
        "".join(json.dumps(s) + "\n" for s in sources), encoding="utf-8"
    )
    script = {
        "rules": [{"contains": "gen 2", "text": "broken {"}],
        "default": json.dumps(GOOD_REPLY),
    }
    (tmp_path / "script.json").write_text(json.dumps(script), encoding="utf-8")
    code = main(
        [
            "datagen",
            "--input", str(tmp_path / "sources.jsonl"),
            "--task", "cite-quality",
            "--out", str(tmp_path / "data.jsonl"),
            "--stats", str(tmp_path / "stats.json"),
            "--backend", f"mock:{tmp_path / 'script.json'}",
        ]
    )
    assert code == 0
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert stats["total"] == 4 and stats["kept"] == 3 and stats["rejected_bad_json"] == 1
    lines = (tmp_path / "data.jsonl").read_text().splitlines()
    assert len(lines) == 3
    for line in lines:
        rec = json.loads(line)
        assert rec["filter_status"] == "Kept"
        assert rec["task_type"] == "Citation"


def test_datagen_keep_rejected(tmp_path):
    (tmp_path / "sources.jsonl").write_text(
        json.dumps({"inputs": {"task_prompt": CTX, "generation": "g"}}) + "\n",
        encoding="utf-8",
    )
    (tmp_path / "script.json").write_text(
        json.dumps({"rules": [], "default": "junk"}), encoding="utf-8"
    )
    code = main(
        [
            "datagen",
            "--input", str(tmp_path / "sources.jsonl"),
            "--task", "cite-quality",
            "--out", str(tmp_path / "data.jsonl"),
            "--backend", f"mock:{tmp_path / 'script.json'}",
            "--keep-rejected",
        ]
    )
    assert code == 0
    rec = json.loads((tmp_path / "data.jsonl").read_text().splitlines()[0])
    assert rec["filter_status"] == "RejectedBadJson"


def test_datagen_wrong_shape_source_is_usage_error(tmp_path):
    (tmp_path / "sources.jsonl").write_text(
        json.dumps({"inputs": {"generation": "only"}}) + "\n", encoding="utf-8"
    )
    (tmp_path / "script.json").write_text(json.dumps({"default": "x"}), encoding="utf-8")
    code = main(
        [
            "datagen",
            "--input", str(tmp_path / "sources.jsonl"),
            "--task", "cite-quality",
            "--out", str(tmp_path / "data.jsonl"),
            "--backend", f"mock:{tmp_path / 'script.json'}",
        ]
    )
    assert code == 1


def test_missing_input_file_is_usage_error(tmp_path):
    assert (
        main(
            [
                "render",
                "--raw", str(tmp_path / "absent.json"),
                "--kind", "quality",
                "--mode", "postfix-snippet",
            ]
        )
        == 1
    )
