"""The `rec` command line: evaluate, cite, validate, render, score, judge, datagen.

stdout carries only the primary artifact of each command; diagnostics go to
stderr. Exit codes: 0 success, 1 usage or input error, 2 validation
failures, 3 backend/transport failure, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from enum import IntEnum
from pathlib import Path
from typing import Any, Callable

from . import schema_io
from .datagen import PipelineConfig, SourceRecord, generate
from .errors import ClaimNotFoundError, RecError, UsageError
from .gateway import (
    CompletionRequest,
    Gateway,
    GatewayError,
    HttpBackend,
    MockBackend,
    load_mock_script,
)
from .metrics import (
    GoldCitationSet,
    binary_accuracy,
    citation_prf,
    gold_intersection,
    order_bias,
    parse_pairwise_verdict,
    win_rate,
)
from .model import (
    CitationMode,
    ContextDocument,
    PairwiseJudgment,
    PresentationOrder,
    SourceKind,
    TaskType,
    Verdict,
    metric_by_name,
    metric_catalog,
    parse_citation_mode,
)
from .prompts import (
    TemplateSet,
    build_pairwise_prompt,
    build_quality_prompt,
    build_rag_cite_prompt,
)
from .render import RenderedText, render_quality, render_rag
from .verify import MatchPolicy, check_reply, parse_match_policy
# Unused here, but bound so a traced benchmark run can wrap them by name.
from .verify import verify_quality_output, verify_rag_output  # noqa: F401

logger = logging.getLogger(__name__)


class ExitCode(IntEnum):
    OK = 0
    USAGE = 1
    VALIDATION = 2
    BACKEND = 3
    INTERNAL = 4


INTERRUPTED = 130  # shell convention, outside the normal contract


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the contract wants 1.
    def error(self, message: str):
        raise UsageError(message)


def _common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (base_url, model_name, timeout_ms, max_retries, parallelism)")
    parser.add_argument("--backend", help="backend URL, or mock:SCRIPT.json for the scripted mock")
    parser.add_argument("--model", help="model name sent to an HTTP backend")
    parser.add_argument("--seed", type=int, help="seed passed through to the backend")
    parser.add_argument("--policy", default="normalized", choices=["strict", "normalized"], help="verbatim match policy")
    parser.add_argument("--format", dest="fmt", default="text", choices=["text", "json"], help="stdout format for rendered output")
    parser.add_argument("--template-dir", help="directory of prompt template overrides")
    parser.add_argument("--audit-log", help="JSONL audit log of gateway calls")


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _read_jsonl(path: str) -> list[Any]:
    try:
        records, _ = schema_io.read_jsonl(path)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except schema_io.SchemaError as exc:
        raise UsageError(f"{path}: {exc}") from exc
    return records


def _load_config(path: str | None) -> dict[str, Any]:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            value = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load config {path}: {exc}") from exc
    if not isinstance(value, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    return value


def _make_gateway(args: argparse.Namespace, config: dict[str, Any]) -> Gateway:
    """Resolve the backend with flag > environment > config precedence."""
    spec = args.backend or os.environ.get("REC_BASE_URL") or config.get("base_url")
    if not spec:
        raise UsageError("no backend configured; use --backend, REC_BASE_URL, or config base_url")
    if spec.startswith("mock:"):
        backend: Any = MockBackend(load_mock_script(spec[len("mock:") :]))
    else:
        model = args.model or os.environ.get("REC_MODEL_NAME") or config.get("model_name") or "default"
        backend = HttpBackend(spec, model, timeout_ms=int(config.get("timeout_ms", 60_000)))
    return Gateway(
        backend,
        max_retries=int(config.get("max_retries", 2)),
        audit_log_path=args.audit_log,
    )


def _templates(args: argparse.Namespace) -> TemplateSet | None:
    return TemplateSet(args.template_dir) if args.template_dir else None


def _policy(args: argparse.Namespace) -> MatchPolicy:
    return parse_match_policy(args.policy)


def _lookup(parse: Callable[[str], Any], name: str) -> Any:
    """A catalog lookup (metric, citation mode) whose KeyError is a usage error."""
    try:
        return parse(name)
    except KeyError as exc:
        raise UsageError(str(exc)) from exc


def _load_chunks(path: str) -> list[ContextDocument]:
    """Chunks file: a JSON array or JSONL of {context_id, body} objects."""
    text = _read_text(path)
    stripped = text.lstrip()
    try:
        if stripped.startswith("["):
            items = json.loads(text)
        else:
            items = [json.loads(line) for line in text.splitlines() if line.strip()]
    except ValueError as exc:
        raise UsageError(f"{path}: not valid JSON or JSONL: {exc}") from exc
    chunks = []
    for item in items:
        if not isinstance(item, dict) or "context_id" not in item or "body" not in item:
            raise UsageError(f"{path}: every chunk needs context_id and body")
        chunks.append(
            ContextDocument(
                body=str(item["body"]),
                context_id=str(item["context_id"]),
                source_kind=SourceKind.RETRIEVED_CHUNK,
            )
        )
    return chunks


def _print_json(value: Any) -> None:
    print(json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False))


def _write_sidecar(path: str | None, payload: dict[str, Any]) -> None:
    if not path:
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


def _render(kind: str, value: Any, mode: CitationMode, answer: str | None, chunks: Any) -> RenderedText:
    # Rendered through these bound names, which a traced benchmark run wraps.
    if kind == "quality":
        return render_quality(value, mode)
    return render_rag(value, answer, chunks)


def _print_rendered(args: argparse.Namespace, rendered: RenderedText) -> None:
    if args.fmt == "json":
        _print_json(rendered.to_json_value())
    else:
        print(rendered.as_text())
    for warning in rendered.warnings:
        print(f"warning: {warning}", file=sys.stderr)


def _complete_and_check(
    args: argparse.Namespace,
    config: dict[str, Any],
    prompt: Any,
    kind: str,
    source: Any,
    mode: CitationMode,
    answer: str | None = None,
) -> int:
    """Complete one prompt, check the reply, then render, print and write --out."""
    gateway = _make_gateway(args, config)
    raw = gateway.complete(CompletionRequest(prompt=prompt, seed=args.seed)).text
    checked = check_reply(kind, raw, source, mode=mode, answer=answer, policy=_policy(args))
    verification = checked.verification
    if verification is None:  # the reply did not parse, or cited an unknown chunk
        if checked.value is None:
            who = "evaluator" if kind == "quality" else "citation"
            print(f"{who} reply failed validation: {checked.validation}", file=sys.stderr)
        else:
            print(f"verification failed: {checked.error}", file=sys.stderr)
        _write_sidecar(args.out, {"raw": raw, "validation": checked.validation.to_json_value()})
        return ExitCode.VALIDATION
    try:
        rendered = _render(kind, checked.value, mode, answer, source)
    except ClaimNotFoundError as exc:
        print(f"cannot render: {exc}", file=sys.stderr)
        print(schema_io.serialize_canonical(checked.value))
        return ExitCode.VALIDATION
    _print_rendered(args, rendered)
    if not verification.ok and kind == "rag":
        print("verification failed: snippet or claim not verbatim", file=sys.stderr)
    elif not verification.ok:
        bad = [c.snippet for c in verification.per_citation if not c.result.found]
        print(f"verification failed for {len(bad)} citation(s)", file=sys.stderr)
        for snippet in bad:
            print(f"  not verbatim: {snippet!r}", file=sys.stderr)
    _write_sidecar(
        args.out,
        {
            "raw": raw,
            "completion_canonical": schema_io.serialize_canonical(checked.value),
            "validation": checked.validation.to_json_value(),
            "verification": verification.to_json_value(),
            "rendered": rendered.to_json_value(),
        },
    )
    return ExitCode.OK if verification.ok else ExitCode.VALIDATION


def cmd_evaluate(args: argparse.Namespace) -> int:
    metric = _lookup(metric_by_name, args.metric)
    mode = _lookup(parse_citation_mode, args.mode)
    if not mode.valid_for_quality:
        raise UsageError(f"mode {mode.value} carries no snippets; content-quality evaluation needs them")
    context = _read_text(args.context)
    generation = _read_text(args.generation)
    config = _load_config(args.config)
    prompt = build_quality_prompt(metric, context, generation, _templates(args))
    return _complete_and_check(args, config, prompt, "quality", context, mode)


def cmd_cite(args: argparse.Namespace) -> int:
    mode = _lookup(parse_citation_mode, args.mode)
    chunks = _load_chunks(args.chunks)
    answer = _read_text(args.answer)
    config = _load_config(args.config)
    prompt = build_rag_cite_prompt(chunks, answer, mode, _templates(args))
    return _complete_and_check(args, config, prompt, "rag", chunks, mode, answer)


def _context_map(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    out: dict[str, str] = {}
    for i, rec in enumerate(_read_jsonl(path), start=1):
        if not isinstance(rec, dict) or "context_id" not in rec or "body" not in rec:
            raise UsageError(f"{path} line {i}: every context needs context_id and body")
        out[str(rec["context_id"])] = str(rec["body"])
    return out


def _validate_one(rec: dict[str, Any], contexts: dict[str, str], policy: MatchPolicy) -> dict[str, Any]:
    kind = rec.get("kind")
    raw = rec.get("raw")
    if isinstance(raw, dict):
        raw = json.dumps(raw, ensure_ascii=False)
    if kind not in ("quality", "rag") or not isinstance(raw, str):
        return {"ok": False, "error": 'record needs kind ("quality"|"rag") and a raw reply'}
    if kind == "quality":
        context_id = str(rec.get("context_id", ""))
        if context_id not in contexts:
            return {"ok": False, "error": f"unknown context_id {context_id!r}"}
        return check_reply(kind, raw, contexts[context_id], policy=policy).to_json_value()
    try:
        mode = parse_citation_mode(str(rec.get("mode", "")))
    except KeyError as exc:
        return {"ok": False, "error": str(exc)}
    answer = rec.get("answer")
    ids = rec.get("context_ids")
    if not isinstance(answer, str) or not isinstance(ids, list):
        return {"ok": False, "error": "rag record needs answer text and a context_ids list"}
    missing = [str(i) for i in ids if str(i) not in contexts]
    if missing:
        return {"ok": False, "error": f"unknown context_ids {missing}"}
    chunks = [
        ContextDocument(body=contexts[str(i)], context_id=str(i), source_kind=SourceKind.RETRIEVED_CHUNK)
        for i in ids
    ]
    return check_reply(kind, raw, chunks, mode=mode, answer=answer, policy=policy).to_json_value()


def cmd_validate(args: argparse.Namespace) -> int:
    contexts = _context_map(args.contexts)
    records = _read_jsonl(args.records)
    policy = _policy(args)
    results = []
    failed = 0
    for i, rec in enumerate(records, start=1):
        if not isinstance(rec, dict):
            entry: dict[str, Any] = {"ok": False, "error": "record must be a JSON object"}
        else:
            entry = _validate_one(rec, contexts, policy)
        entry["line"] = i
        if not entry["ok"]:
            failed += 1
        results.append(entry)
    _print_json({"n": len(results), "failed": failed, "records": results})
    return ExitCode.VALIDATION if failed else ExitCode.OK


def cmd_render(args: argparse.Namespace) -> int:
    raw = _read_text(args.raw)
    mode = _lookup(parse_citation_mode, args.mode)
    answer = chunks = None
    if args.kind == "quality":
        if not mode.valid_for_quality:
            raise UsageError(f"mode {mode.value} carries no snippets to render")
    else:
        if not args.answer:
            raise UsageError("--kind rag needs --answer")
        answer = _read_text(args.answer)
        chunks = _load_chunks(args.chunks) if args.chunks else None
    checked = check_reply(args.kind, raw, None, mode=mode)  # parse only: nothing to verify against
    if checked.value is None:
        print(f"cannot render, reply failed validation: {checked.validation}", file=sys.stderr)
        return ExitCode.VALIDATION
    try:
        rendered = _render(args.kind, checked.value, mode, answer, chunks)
    except ClaimNotFoundError as exc:
        print(f"cannot render: {exc}", file=sys.stderr)
        return ExitCode.VALIDATION
    _print_rendered(args, rendered)
    return ExitCode.OK


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def _label_matches(pred: Any, gold: Any) -> float:
    """Share of the gold labels (one, or a list from several annotators) pred matches."""
    golds = gold if isinstance(gold, list) else [gold]
    return binary_accuracy([pred] * len(golds), golds) if golds else 0.0


def _gold_from_record(rec: dict[str, Any]) -> GoldCitationSet | None:
    if "gold_a" in rec or "gold_b" in rec:
        a = GoldCitationSet(frozenset(rec.get("gold_a") or ()), halu=bool(rec.get("halu_a")))
        b = GoldCitationSet(frozenset(rec.get("gold_b") or ()), halu=bool(rec.get("halu_b")))
        return gold_intersection(a, b)
    if "gold" in rec:
        return GoldCitationSet(frozenset(rec.get("gold") or ()), halu=bool(rec.get("halu")))
    return None


def cmd_score(args: argparse.Namespace) -> int:
    preds = _read_jsonl(args.pred)
    if args.gold:
        golds = _read_jsonl(args.gold)
        if len(golds) != len(preds):
            raise UsageError(f"--pred has {len(preds)} lines but --gold has {len(golds)}")
        preds = [{**p, **g} for p, g in zip(preds, golds)]
    contexts = _context_map(args.contexts)
    policy = _policy(args)

    by_metric: dict[str, dict[str, list]] = {}
    excluded_halu = 0
    missing_context = 0
    for rec in preds:
        if not isinstance(rec, dict):
            raise UsageError("every score record must be a JSON object")
        name = rec.get("metric") or "overall"
        try:
            name = metric_by_name(str(name)).name.value
        except KeyError:
            name = str(name)
        bucket = by_metric.setdefault(name, {"rate": [], "explain": [], "prf": []})
        if "rating_pred" in rec and "rating_gold" in rec:
            bucket["rate"].append(_label_matches(rec["rating_pred"], rec["rating_gold"]))
        if "explain_pred" in rec and "explain_gold" in rec:
            bucket["explain"].append(_label_matches(rec["explain_pred"], rec["explain_gold"]))
        gold = _gold_from_record(rec)
        if gold is None:
            continue
        if gold.halu:
            excluded_halu += 1
            continue
        predicted = rec.get("predicted_citations") or []
        context_ref = str(rec.get("context_ref", ""))
        if context_ref not in contexts:
            missing_context += 1  # scored against empty text, so nothing snaps
        context = contexts.get(context_ref, "")
        bucket["prf"].append(citation_prf(predicted, gold, context, policy))

    per_metric: dict[str, Any] = {}
    for name, bucket in sorted(by_metric.items()):
        prfs = bucket["prf"]
        per_metric[name] = {
            "rate_acc": _mean(bucket["rate"]),
            "explain_acc": _mean(bucket["explain"]),
            "citation_prf": {
                "precision": _mean([p.precision for p in prfs]),
                "recall": _mean([p.recall for p in prfs]),
                "f1": _mean([p.f1 for p in prfs]),
                "n_scored": len(prfs),
            },
        }
    report: dict[str, Any] = {
        "per_metric": per_metric, "n": len(preds), "excluded_halu": excluded_halu
    }
    if missing_context:
        # Only a degraded run gets the key, so a clean report reads as before.
        report["missing_context"] = missing_context
    _print_json(report)
    return ExitCode.OK


def cmd_judge(args: argparse.Namespace) -> int:
    pairs = _read_jsonl(args.pairs)
    for i, pair in enumerate(pairs, start=1):
        if not isinstance(pair, dict) or not all(k in pair for k in ("instruction", "chosen", "rejected")):
            raise UsageError(f"{args.pairs} line {i}: pair needs instruction, chosen, rejected")
    if not pairs:
        raise UsageError("no pairs to judge")
    config = _load_config(args.config)
    templates = _templates(args)
    gateway = _make_gateway(args, config)

    requests = []
    layout: list[tuple[int, PresentationOrder]] = []
    for i, pair in enumerate(pairs):
        prompt_ab = build_pairwise_prompt(pair["instruction"], pair["chosen"], pair["rejected"], templates)
        requests.append(CompletionRequest(prompt=prompt_ab, seed=args.seed))
        layout.append((i, PresentationOrder.AB))
        if args.both_orders:
            prompt_ba = build_pairwise_prompt(pair["instruction"], pair["rejected"], pair["chosen"], templates)
            requests.append(CompletionRequest(prompt=prompt_ba, seed=args.seed))
            layout.append((i, PresentationOrder.BA))

    parallelism = args.parallelism or int(config.get("parallelism", 4))
    slots = gateway.complete_batch(requests, parallelism=parallelism)
    failures = [slot for slot in slots if isinstance(slot, GatewayError)]
    if failures:
        print(f"{len(failures)} judge call(s) failed: {failures[0]}", file=sys.stderr)
        return ExitCode.BACKEND

    judgments: list[PairwiseJudgment] = []
    truths: list[Verdict] = []
    verdict_by_pair: dict[int, dict[PresentationOrder, Verdict]] = {}
    for (pair_idx, order), slot in zip(layout, slots):
        pair = pairs[pair_idx]
        verdict = parse_pairwise_verdict(slot.text)
        first, second = (
            (pair["chosen"], pair["rejected"])
            if order is PresentationOrder.AB
            else (pair["rejected"], pair["chosen"])
        )
        judgments.append(
            PairwiseJudgment(
                instruction=pair["instruction"],
                response_a=first,
                response_b=second,
                verdict=verdict,
                presentation_order=order,
            )
        )
        truths.append(Verdict.A if order is PresentationOrder.AB else Verdict.B)
        verdict_by_pair.setdefault(pair_idx, {})[order] = verdict

    report: dict[str, Any] = {
        "n_pairs": len(pairs),
        "n_judgments": len(judgments),
        "win_rate": win_rate(judgments, truths),
        "unparseable": sum(1 for j in judgments if j.verdict is Verdict.UNPARSEABLE),
    }
    if args.both_orders:
        order_pairs = [
            (orders[PresentationOrder.AB], orders[PresentationOrder.BA])
            for orders in verdict_by_pair.values()
        ]
        try:
            report["order_bias"] = order_bias(order_pairs).to_json_value()
        except RecError:
            report["order_bias"] = None
    _print_json(report)
    return ExitCode.OK


_TASK_TYPES = {
    "pointwise": TaskType.POINTWISE_EVAL,
    "cite-quality": TaskType.CITATION,
    "cite-rag": TaskType.CITATION,
}


def _parse_metrics(spec: str | None):
    if not spec:
        return metric_catalog()
    metrics = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        metrics.append(_lookup(metric_by_name, part))
    if not metrics:
        raise UsageError("--metrics named no usable metric")
    return metrics


def cmd_datagen(args: argparse.Namespace) -> int:
    task_type = _TASK_TYPES[args.task]
    raw_records = _read_jsonl(args.input)
    records: list[SourceRecord] = []
    for i, rec in enumerate(raw_records, start=1):
        if not isinstance(rec, dict) or not isinstance(rec.get("inputs"), dict):
            raise UsageError(f"{args.input} line {i}: record needs an inputs object")
        source = SourceRecord(
            source_dataset=str(rec.get("source_dataset", "unknown")),
            task_type=task_type,
            inputs=rec["inputs"],
        )
        if args.task == "cite-rag" and source.citation_flavor() != "rag":
            raise UsageError(f"{args.input} line {i}: cite-rag records need a chunks list")
        if args.task == "cite-quality" and source.citation_flavor() != "quality":
            raise UsageError(f"{args.input} line {i}: cite-quality records must not carry chunks")
        problems = source.violations()
        if problems:
            raise UsageError(f"{args.input} line {i}: {'; '.join(problems)}")
        records.append(source)

    config_file = _load_config(args.config)
    metrics = _parse_metrics(args.metrics)
    gateway = _make_gateway(args, config_file)
    pipeline = PipelineConfig(
        parallelism=args.parallelism or int(config_file.get("parallelism", 4)),
        max_tokens=args.max_tokens,
        seed=args.seed,
    )
    out_records, stats = generate(
        records, metrics, gateway, _policy(args), pipeline, _templates(args)
    )

    emit = out_records if args.keep_rejected else [r for r in out_records if r.filter_status.value == "Kept"]
    with open(args.out, "w", encoding="utf-8") as fh:
        for record in emit:
            fh.write(schema_io.serialize_canonical(record))
            fh.write("\n")
        if stats.cancelled:
            # Partial run: make the truncation visible inside the data file.
            fh.write(json.dumps({"filter_stats": stats.to_json_value()}, sort_keys=True))
            fh.write("\n")
    if args.stats:
        with open(args.stats, "w", encoding="utf-8") as fh:
            json.dump(stats.to_json_value(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(
        f"kept {stats.kept}/{stats.total}"
        + (f" (cancelled {stats.cancelled})" if stats.cancelled else ""),
        file=sys.stderr,
    )
    return INTERRUPTED if stats.cancelled else ExitCode.OK


def build_parser() -> _Parser:
    parser = _Parser(prog="rec", description="Rate/explain/cite evaluation pipeline")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command", parser_class=_Parser)

    p = sub.add_parser("evaluate", help="run a content-quality evaluation with citations")
    p.add_argument("--context", required=True, help="file with the task prompt shown to the evaluated model")
    p.add_argument("--generation", required=True, help="file with the evaluated model's output")
    p.add_argument("--metric", required=True, help="faithfulness | instruction-following | coherence | completeness")
    p.add_argument("--mode", default="postfix-snippet", help="postfix-snippet | inline-snippet")
    p.add_argument("--out", help="JSON sidecar with raw reply, verification, and rendering")
    _common_options(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("cite", help="generate citations for a retrieval-augmented answer")
    p.add_argument("--chunks", required=True, help="retrieved chunks (JSON array or JSONL of {context_id, body})")
    p.add_argument("--answer", required=True, help="file with the generated answer to cite")
    p.add_argument("--mode", default="inline", help="postfix | inline | postfix-snippet | inline-snippet")
    p.add_argument("--out", help="JSON sidecar with raw reply, verification, and rendering")
    _common_options(p)
    p.set_defaults(func=cmd_cite)

    p = sub.add_parser("validate", help="validate stored evaluator replies against contexts")
    p.add_argument("--records", required=True, help="JSONL of replies to check")
    p.add_argument("--contexts", required=True, help="JSONL of {context_id, body}")
    _common_options(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("render", help="render a stored reply without calling a backend")
    p.add_argument("--raw", required=True, help="file with the raw evaluator reply")
    p.add_argument("--kind", required=True, choices=["quality", "rag"])
    p.add_argument("--mode", required=True)
    p.add_argument("--answer", help="answer file (rag only)")
    p.add_argument("--chunks", help="chunks file (rag only, for id warnings)")
    _common_options(p)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("score", help="score predictions against gold annotations")
    p.add_argument("--pred", required=True, help="JSONL of predictions (may carry gold fields inline)")
    p.add_argument("--gold", help="JSONL of gold fields, merged with --pred by line")
    p.add_argument("--contexts", help="JSONL of {context_id, body} for sentence snapping")
    _common_options(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("judge", help="pairwise-judge preference pairs")
    p.add_argument("--pairs", required=True, help="JSONL of {instruction, chosen, rejected}")
    p.add_argument("--both-orders", action="store_true", help="judge each pair in both presentation orders")
    p.add_argument("--parallelism", type=int, help="concurrent judge calls")
    _common_options(p)
    p.set_defaults(func=cmd_judge)

    p = sub.add_parser("datagen", help="generate and filter synthetic evaluation data")
    p.add_argument("--input", required=True, help="JSONL of source records with an inputs object")
    p.add_argument("--task", required=True, choices=sorted(_TASK_TYPES))
    p.add_argument("--metrics", help="comma list, e.g. f,if,coh,comp (pointwise fan-out)")
    p.add_argument("--out", required=True, help="output JSONL of unified task records")
    p.add_argument("--stats", help="JSON file for the filter stats")
    p.add_argument("--max-tokens", type=float, default=6144, help="inclusive prompt+completion budget")
    p.add_argument("--parallelism", type=int, help="concurrent generation calls")
    p.add_argument("--keep-rejected", action="store_true", help="write rejected records too, with their status")
    _common_options(p)
    p.set_defaults(func=cmd_datagen)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return int(args.func(args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return ExitCode.USAGE
    except GatewayError as exc:
        print(f"backend failure: {exc}", file=sys.stderr)
        return ExitCode.BACKEND
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return INTERRUPTED
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return code if isinstance(code, int) else ExitCode.OK
    except Exception as exc:  # noqa: BLE001 - the contract wants a clean exit code
        logger.exception("internal error: %s", exc)
        return ExitCode.INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
