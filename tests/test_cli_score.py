import json

import pytest

from rec_eval.cli import main

BODY = "The cat sat on the mat. The dog ran far away."


def test_score_reports_records_scored_without_their_context(tmp_path, capsys):
    preds = [
        {"context_ref": "doc", "gold": ["The cat sat"], "predicted_citations": ["The cat sat"]},
        {"context_ref": "gone", "gold": ["The cat sat"], "predicted_citations": ["The cat sat"]},
        {"gold": ["The dog ran"], "predicted_citations": ["The dog ran"]},
        {"context_ref": "gone", "gold": [], "halu": True},
        {"context_ref": "gone", "rating_pred": "Yes", "rating_gold": "Yes"},
    ]
    pred, ctx = tmp_path / "pred.jsonl", tmp_path / "ctx.jsonl"
    pred.write_text("".join(json.dumps(p) + "\n" for p in preds), encoding="utf-8")
    ctx.write_text(json.dumps({"context_id": "doc", "body": BODY}) + "\n", encoding="utf-8")
    code = main(["score", "--pred", str(pred), "--contexts", str(ctx)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    # Only records actually scored for citations count; halu and rating-only ones do not.
    assert report["missing_context"] == 2
    assert report["per_metric"]["overall"]["citation_prf"]["n_scored"] == 3

    ctx.write_text("".join(
        json.dumps({"context_id": cid, "body": BODY}) + "\n" for cid in ("doc", "gone")
    ), encoding="utf-8")
    preds = [p for p in preds if "context_ref" in p]
    pred.write_text("".join(json.dumps(p) + "\n" for p in preds), encoding="utf-8")
    assert main(["score", "--pred", str(pred), "--contexts", str(ctx)]) == 0
    assert "missing_context" not in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "record, key",
    [
        ({"gold": ["The sky is blue."], "predicted_citations": "The sky is blue."}, "predicted_citations"),
        ({"gold": ["The sky is blue."], "predicted_citations": [5]}, "predicted_citations"),
        ({"gold": "The sky is blue.", "predicted_citations": ["The sky is blue."]}, "gold"),
        ({"gold_a": ["The sky is blue."], "gold_b": [None], "predicted_citations": []}, "gold_b"),
    ],
    ids=["string", "int-item", "gold-string", "null-item"],
)
def test_score_rejects_citation_fields_that_are_not_lists_of_strings(tmp_path, capsys, record, key):
    pred = tmp_path / "pred.jsonl"
    pred.write_text(json.dumps({"gold": []}) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    assert main(["score", "--pred", str(pred)]) == 1
    err = capsys.readouterr().err
    assert f"{pred} line 2: {key} must be a list of strings" in err
    assert "Traceback" not in err


def test_score_names_the_line_of_a_record_that_is_not_an_object(tmp_path, capsys):
    pred = tmp_path / "pred.jsonl"
    pred.write_text(json.dumps({"gold": []}) + "\n[1, 2]\n", encoding="utf-8")
    assert main(["score", "--pred", str(pred)]) == 1
    assert f"{pred} line 2: every score record must be a JSON object" in capsys.readouterr().err


def test_score_names_the_line_in_the_file_past_blank_lines(tmp_path, capsys):
    pred = tmp_path / "pred.jsonl"
    pred.write_text(json.dumps({"gold": []}) + "\n\n" + json.dumps({"gold": "x"}) + "\n", encoding="utf-8")
    assert main(["score", "--pred", str(pred)]) == 1
    assert f"{pred} line 3: gold must be a list of strings" in capsys.readouterr().err


def test_contexts_name_the_line_in_the_file_past_blank_lines(tmp_path, capsys):
    pred, ctx = tmp_path / "pred.jsonl", tmp_path / "ctx.jsonl"
    pred.write_text(json.dumps({"context_ref": "doc", "gold": []}) + "\n", encoding="utf-8")
    ctx.write_text(
        "\n" + json.dumps({"context_id": "doc", "body": BODY}) + "\n" + json.dumps({"body": BODY}) + "\n",
        encoding="utf-8",
    )
    assert main(["score", "--pred", str(pred), "--contexts", str(ctx)]) == 1
    assert f"{ctx} line 3: every context needs context_id and body" in capsys.readouterr().err


@pytest.mark.parametrize("pred_lines, gold_lines, bad", [
    (['{"gold": []}', "5"], ["{}", "{}"], ("pred", 2)),
    (['{"gold": []}', "{}"], ["[1]", "{}"], ("gold", 1)),
], ids=["pred-number", "gold-list"])
def test_score_with_gold_names_the_line_that_is_not_an_object(tmp_path, capsys, pred_lines, gold_lines, bad):
    paths = {"pred": tmp_path / "pred.jsonl", "gold": tmp_path / "gold.jsonl"}
    paths["pred"].write_text("\n".join(pred_lines) + "\n", encoding="utf-8")
    paths["gold"].write_text("\n".join(gold_lines) + "\n", encoding="utf-8")
    assert main(["score", "--pred", str(paths["pred"]), "--gold", str(paths["gold"])]) == 1
    err = capsys.readouterr().err
    name, line = bad
    assert f"usage error: {paths[name]} line {line}: every score record must be a JSON object" in err
    assert "Traceback" not in err


def test_score_with_gold_names_the_file_and_line_of_a_bad_citation_field(tmp_path, capsys):
    pred, gold = tmp_path / "p1.jsonl", tmp_path / "g1.jsonl"
    pred.write_text(json.dumps({"predicted_citations": ["a"]}) + "\n", encoding="utf-8")
    gold.write_text("\n" + json.dumps({"gold": "x"}) + "\n", encoding="utf-8")
    assert main(["score", "--pred", str(pred), "--gold", str(gold)]) == 1
    err = capsys.readouterr().err
    assert f"usage error: {gold} line 2: gold must be a list of strings" in err
    assert "Traceback" not in err
