"""Synthetic evaluation-data generation with strict keep/reject filtering.

Source records fan out into prompts (pointwise records once per metric,
citation records once each), completions come back through the gateway, and
each raw completion passes through the same gauntlet in a fixed order: JSON
parse + schema validation, verbatim verification (citation tasks only), then
the length budget. The first failure decides the rejection reason, so the
stats buckets partition the batch exactly.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import asdict, dataclass, field
from typing import Any, Sequence

from . import schema_io
from .errors import RecError
from .gateway import CancelledError, CompletionRequest, Gateway, GatewayError
from .model import (
    CitationMode,
    ContextDocument,
    EvaluationMetric,
    FilterStatus,
    SourceKind,
    TaskType,
    UnifiedTaskRecord,
    metric_by_name,
    metric_catalog,
    parse_citation_mode,
)
from .prompts import (
    PromptText,
    TemplateSet,
    build_pointwise_prompt,
    build_quality_prompt,
    build_rag_cite_prompt,
)
from .tokens import TokenEstimator, estimate_tokens
from .verify import MatchPolicy, check_reply
# Unused here, but bound so a traced benchmark run can wrap them by name.
from .verify import verify_quality_output, verify_rag_output  # noqa: F401

__all__ = [
    "SourceRecord",
    "FilterStats",
    "FilterOutcome",
    "PipelineConfig",
    "length_filter",
    "filter_one",
    "generate",
]

logger = logging.getLogger(__name__)

#: Inclusive prompt+completion token budget for kept records.
DEFAULT_MAX_TOKENS = 6144


@dataclass(frozen=True)
class SourceRecord:
    """One raw input to synthesize an evaluation example from.

    inputs carries task-shaped slots: pointwise wants query_with_context and
    answer; citation wants either task_prompt and generation
    (content-quality flavor) or chunks and answer (retrieval flavor, chunks
    being a list of {context_id, body} objects, optionally with a mode).
    """

    source_dataset: str
    task_type: TaskType
    inputs: dict[str, Any] = field(default_factory=dict)

    def citation_flavor(self) -> str:
        if "chunks" in self.inputs:
            return "rag"
        return "quality"

    def rag_mode(self) -> CitationMode:
        return parse_citation_mode(self.inputs.get("mode", "inline"))

    def violations(self) -> list[str]:
        out = []
        if not self.source_dataset:
            out.append("source_dataset must be non-empty")
        if self.task_type is TaskType.POINTWISE_EVAL:
            for slot in ("query_with_context", "answer"):
                if not str(self.inputs.get(slot, "")).strip():
                    out.append(f"pointwise record needs a non-empty {slot!r} input")
        elif self.citation_flavor() == "rag":
            chunks = self.inputs.get("chunks")
            if not isinstance(chunks, list) or not chunks:
                out.append("retrieval citation record needs a non-empty 'chunks' list")
            if not str(self.inputs.get("answer", "")).strip():
                out.append("retrieval citation record needs a non-empty 'answer' input")
        else:
            for slot in ("task_prompt", "generation"):
                if not str(self.inputs.get(slot, "")).strip():
                    out.append(f"citation record needs a non-empty {slot!r} input")
        return out

    def chunk_documents(self) -> list[ContextDocument]:
        return [
            ContextDocument(
                body=chunk["body"],
                context_id=str(chunk["context_id"]),
                source_kind=SourceKind.RETRIEVED_CHUNK,
            )
            for chunk in self.inputs.get("chunks", ())
        ]


@dataclass
class FilterStats:
    """Keep/reject tallies; total always equals the sum of the buckets."""

    total: int = 0
    kept: int = 0
    rejected_bad_json: int = 0
    rejected_non_verbatim: int = 0
    rejected_too_long: int = 0
    rejected_transport: int = 0
    cancelled: int = 0  # interrupted before completion; outside `total`

    def conserved(self) -> bool:
        rejected = (
            self.rejected_bad_json
            + self.rejected_non_verbatim
            + self.rejected_too_long
            + self.rejected_transport
        )
        return self.total == self.kept + rejected

    def to_json_value(self) -> dict[str, int]:
        return asdict(self)


@dataclass(frozen=True)
class PipelineConfig:
    parallelism: int = 4
    max_tokens: float = DEFAULT_MAX_TOKENS
    temperature: float = 0.0
    max_output_tokens: int = 2048
    seed: int | None = None
    estimator: TokenEstimator | None = None


def length_filter(
    prompt: str,
    completion: str,
    max_tokens: float = DEFAULT_MAX_TOKENS,
    estimator: TokenEstimator | None = None,
) -> bool:
    """True when prompt plus completion fit the budget (inclusive)."""
    est = estimator or estimate_tokens
    return est(prompt) + est(completion) <= max_tokens


@dataclass(frozen=True)
class FilterOutcome:
    record: UnifiedTaskRecord
    detail: str | None = None

    @property
    def kept(self) -> bool:
        return self.record.filter_status is FilterStatus.KEPT


def _build_prompt(
    task: SourceRecord,
    metric: EvaluationMetric | None,
    templates: TemplateSet | None,
) -> PromptText:
    if task.task_type is TaskType.POINTWISE_EVAL:
        if metric is None:
            raise ValueError("pointwise prompts need a metric")
        return build_pointwise_prompt(
            metric, task.inputs["query_with_context"], task.inputs["answer"], templates
        )
    if task.citation_flavor() == "rag":
        chunks = task.chunk_documents()
        return build_rag_cite_prompt(chunks, task.inputs["answer"], task.rag_mode(), templates)
    if metric is None:
        raise ValueError("content-quality citation prompts need a metric")
    return build_quality_prompt(metric, task.inputs["task_prompt"], task.inputs["generation"], templates)


def _record_metric(task: SourceRecord, metrics: Sequence[EvaluationMetric]) -> EvaluationMetric:
    named = task.inputs.get("metric")
    if named:
        return metric_by_name(str(named))
    return metrics[0] if metrics else metric_catalog()[0]


def filter_one(
    raw: str,
    task: SourceRecord,
    policy: MatchPolicy = MatchPolicy.NORMALIZED,
    *,
    metric: EvaluationMetric | None = None,
    max_tokens: float = DEFAULT_MAX_TOKENS,
    estimator: TokenEstimator | None = None,
    templates: TemplateSet | None = None,
    prompt: PromptText | None = None,
) -> FilterOutcome:
    """Run one raw completion through parse -> verify -> length, in that order."""
    if prompt is None:
        if metric is None and task.task_type is not TaskType.POINTWISE_EVAL:
            metric = _record_metric(task, ())
        prompt = _build_prompt(task, metric, templates)
    prompt_str = prompt.text

    def rejected(status: FilterStatus, detail: str, completion: str) -> FilterOutcome:
        record = UnifiedTaskRecord(
            prompt=prompt_str,
            completion=completion,
            task_type=task.task_type,
            source_dataset=task.source_dataset,
            filter_status=status,
        )
        return FilterOutcome(record=record, detail=detail)

    kind = "pointwise" if task.task_type is TaskType.POINTWISE_EVAL else task.citation_flavor()
    if kind == "rag":
        chunks, answer = task.chunk_documents(), task.inputs["answer"]
        checked = check_reply(kind, raw, chunks, mode=task.rag_mode(), answer=answer, policy=policy)
    else:
        source = task.inputs["task_prompt"] if kind == "quality" else None
        checked = check_reply(kind, raw, source, policy=policy)
    if checked.value is None:
        return rejected(FilterStatus.REJECTED_BAD_JSON, str(checked.validation), raw)
    if not checked.ok:
        what = "citation" if kind == "quality" else "snippet or claim"
        detail = checked.error or f"{what} not verbatim"
        return rejected(FilterStatus.REJECTED_NON_VERBATIM, detail, raw)

    completion = schema_io.serialize_canonical(checked.value)
    if not length_filter(prompt_str, completion, max_tokens, estimator):
        return rejected(FilterStatus.REJECTED_TOO_LONG, "over the token budget", completion)
    record = UnifiedTaskRecord(
        prompt=prompt_str,
        completion=completion,
        task_type=task.task_type,
        source_dataset=task.source_dataset,
        filter_status=FilterStatus.KEPT,
    )
    return FilterOutcome(record=record)


def generate(
    records: Sequence[SourceRecord],
    metrics: Sequence[EvaluationMetric],
    gateway: Gateway,
    policy: MatchPolicy = MatchPolicy.NORMALIZED,
    config: PipelineConfig | None = None,
    templates: TemplateSet | None = None,
    cancel_event: threading.Event | None = None,
) -> tuple[list[UnifiedTaskRecord], FilterStats]:
    """Fan records out into prompts, complete them, filter, and tally.

    Returns every produced record (kept and rejected) in deterministic job
    order plus the stats. Gateway failures become the transport bucket with
    no record; cancelled items are counted outside the conservation total.
    """
    config = config or PipelineConfig()
    jobs: list[tuple[SourceRecord, EvaluationMetric | None, PromptText]] = []
    for task in records:
        problems = task.violations()
        if problems:
            raise RecError(f"bad source record from {task.source_dataset!r}: {'; '.join(problems)}")
        if task.task_type is TaskType.POINTWISE_EVAL:
            fan_out = metrics if metrics else metric_catalog()
            for metric in fan_out:
                jobs.append((task, metric, _build_prompt(task, metric, templates)))
        else:
            metric = _record_metric(task, metrics) if task.citation_flavor() == "quality" else None
            jobs.append((task, metric, _build_prompt(task, metric, templates)))

    requests = [
        CompletionRequest(
            prompt=prompt,
            temperature=config.temperature,
            max_output_tokens=config.max_output_tokens,
            seed=config.seed,
        )
        for _, _, prompt in jobs
    ]
    slots = gateway.complete_batch(requests, parallelism=config.parallelism, cancel_event=cancel_event)

    out: list[UnifiedTaskRecord] = []
    stats = FilterStats()
    for (task, metric, prompt), slot in zip(jobs, slots):
        if isinstance(slot, CancelledError):
            stats.cancelled += 1
            continue
        stats.total += 1
        if isinstance(slot, GatewayError):
            logger.warning("gateway failure for %s: %s", task.source_dataset, slot)
            stats.rejected_transport += 1
            continue
        outcome = filter_one(
            slot.text,
            task,
            policy,
            metric=metric,
            max_tokens=config.max_tokens,
            estimator=config.estimator,
            prompt=prompt,
        )
        out.append(outcome.record)
        status = outcome.record.filter_status
        if status is FilterStatus.KEPT:
            stats.kept += 1
        elif status is FilterStatus.REJECTED_BAD_JSON:
            stats.rejected_bad_json += 1
        elif status is FilterStatus.REJECTED_NON_VERBATIM:
            stats.rejected_non_verbatim += 1
        else:
            stats.rejected_too_long += 1
    return out, stats
