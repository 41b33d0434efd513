import json

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
