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
from functools import cached_property
from typing import Any, Callable, NamedTuple, Sequence

from . import schema_io
from .errors import SourceRecordError
from .gateway import CancelledError, CompletionRequest, Gateway, GatewayError
from .model import (
    CitationMode,
    EvaluationMetric,
    FilterStatus,
    TaskType,
    UnifiedTaskRecord,
    metric_by_name,
    metric_catalog,
    parse_citation_mode,
)
from .prompts import (
    TemplateSet,
    build_pointwise_prompt,
    build_quality_prompt,
    build_rag_cite_prompt,
    chunk_map,
)
from .tokens import estimate_tokens
from .verify import MatchPolicy, check_reply
# Unused here, but bound so a traced benchmark run can wrap them by name.
from .verify import verify_quality_output, verify_rag_output  # noqa: F401

logger = logging.getLogger(__name__)

#: Inclusive prompt+completion token budget for kept records.
DEFAULT_MAX_TOKENS = 6144

#: Completion length cap sent with every generation request.
MAX_OUTPUT_TOKENS = 2048


#: The text inputs of each record kind, which must be non-blank strings.
_TEXT_SLOTS = {"pointwise": ("query_with_context", "answer"), "rag": ("answer",), "quality": ("task_prompt", "generation")}


def _names(lookup: Callable[[str], Any], value: Any) -> bool:
    """True when `value` is a string that the catalog `lookup` knows."""
    try:
        return isinstance(value, str) and lookup(value) is not None
    except KeyError:
        return False


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

    @property
    def kind(self) -> str:
        """The reply kind `check_reply` takes: "pointwise", "quality" or "rag"."""
        if self.task_type is TaskType.POINTWISE_EVAL:
            return "pointwise"
        if "chunks" in self.inputs:
            return "rag"
        return "quality"

    def rag_mode(self) -> CitationMode:
        return parse_citation_mode(self.inputs.get("mode", "inline"))

    def violations(self) -> list[str]:
        """Why no prompt can be built from this record; empty when one can."""
        out = []
        if not self.source_dataset:
            out.append("source_dataset must be non-empty")
        kind = self.kind
        for slot in _TEXT_SLOTS[kind]:
            value = self.inputs.get(slot)
            if not isinstance(value, str) or not value.strip():
                out.append(f"{kind} record needs a non-empty {slot!r} string input")
        if kind == "rag":
            chunks = self.inputs.get("chunks")
            if not isinstance(chunks, list) or not chunks:
                out.append("rag record needs a non-empty 'chunks' list")
            else:
                out += [f"{where}: {problem}" for where, problem in self._chunk_map[1]]
            mode = self.inputs.get("mode", "inline")
            if not _names(parse_citation_mode, mode):
                out.append(f"unknown citation mode {mode!r}")
        elif kind == "quality":
            metric = self.inputs.get("metric")
            if metric and not _names(metric_by_name, metric):
                out.append(f"unknown metric {metric!r}")
        return out

    @cached_property
    def _chunk_map(self) -> tuple[dict[str, str], list[tuple[str, str]]]:
        chunks = self.inputs.get("chunks", ())
        return chunk_map((f"chunk {n}", chunk) for n, chunk in enumerate(chunks, start=1))

    def chunks(self) -> dict[str, str]:
        """The retrieved chunks' bodies by context_id, built once per record."""
        return self._chunk_map[0]


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


class PipelineConfig(NamedTuple):
    parallelism: int = 4
    max_tokens: float = DEFAULT_MAX_TOKENS
    seed: int | None = None


def length_filter(prompt: str, completion: str, max_tokens: float = DEFAULT_MAX_TOKENS) -> bool:
    """True when prompt plus completion fit the budget (inclusive)."""
    return estimate_tokens(prompt) + estimate_tokens(completion) <= max_tokens


class FilterOutcome(NamedTuple):
    record: UnifiedTaskRecord
    detail: str | None = None

    @property
    def kept(self) -> bool:
        return self.record.filter_status is FilterStatus.KEPT


def _build_prompt(
    task: SourceRecord,
    metric: EvaluationMetric | None,
    templates: TemplateSet | None,
) -> str:
    kind = task.kind
    if kind == "rag":
        return build_rag_cite_prompt(task.chunks(), task.inputs["answer"], task.rag_mode(), templates)
    if metric is None:
        raise ValueError(f"{kind} prompts need a metric")
    if kind == "pointwise":
        return build_pointwise_prompt(
            metric, task.inputs["query_with_context"], task.inputs["answer"], templates
        )
    return build_quality_prompt(metric, task.inputs["task_prompt"], task.inputs["generation"], templates)


def _job_metrics(
    task: SourceRecord, metrics: Sequence[EvaluationMetric]
) -> list[EvaluationMetric | None]:
    """The metric of each job `task` fans out into; a rag record's one job has none."""
    kind = task.kind
    if kind == "rag":
        return [None]
    fan_out = list(metrics or metric_catalog())
    if kind == "pointwise":
        return fan_out
    named = task.inputs.get("metric")
    return [metric_by_name(str(named)) if named else fan_out[0]]


def filter_one(
    raw: str,
    task: SourceRecord,
    policy: MatchPolicy = MatchPolicy.NORMALIZED,
    *,
    metric: EvaluationMetric | None = None,
    max_tokens: float = DEFAULT_MAX_TOKENS,
    prompt: str | None = None,
) -> FilterOutcome:
    """Run one raw completion through parse -> verify -> length, in that order."""
    kind = task.kind
    if prompt is None:
        if metric is None and kind == "quality":
            metric = _job_metrics(task, ())[0]
        prompt = _build_prompt(task, metric, None)

    if kind == "rag":
        chunks, answer = task.chunks(), task.inputs["answer"]
        checked = check_reply(kind, raw, chunks, mode=task.rag_mode(), answer=answer, policy=policy)
    else:
        source = task.inputs["task_prompt"] if kind == "quality" else None
        checked = check_reply(kind, raw, source, policy=policy)
    completion, status, detail = raw, FilterStatus.KEPT, None
    if checked.value is None:
        status, detail = FilterStatus.REJECTED_BAD_JSON, str(checked.validation)
    elif not checked.ok:
        what = "citation" if kind == "quality" else "snippet or claim"
        status, detail = FilterStatus.REJECTED_NON_VERBATIM, checked.error or f"{what} not verbatim"
    else:
        completion = schema_io.serialize_canonical(checked.value)
        if not length_filter(prompt, completion, max_tokens):
            status, detail = FilterStatus.REJECTED_TOO_LONG, "over the token budget"
    record = UnifiedTaskRecord(
        prompt=prompt,
        completion=completion,
        task_type=task.task_type,
        source_dataset=task.source_dataset,
        filter_status=status,
    )
    return FilterOutcome(record=record, detail=detail)


#: The FilterStats bucket each filter_one outcome is counted in.
_BUCKETS = {
    FilterStatus.KEPT: "kept",
    FilterStatus.REJECTED_BAD_JSON: "rejected_bad_json",
    FilterStatus.REJECTED_NON_VERBATIM: "rejected_non_verbatim",
    FilterStatus.REJECTED_TOO_LONG: "rejected_too_long",
}

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
    A record that fails its checks raises SourceRecordError before any
    backend call.
    """
    config = config or PipelineConfig()
    jobs: list[tuple[SourceRecord, EvaluationMetric | None, str]] = []
    for task in records:
        problems = task.violations()
        if problems:
            raise SourceRecordError(f"bad source record from {task.source_dataset!r}: {'; '.join(problems)}")
        for metric in _job_metrics(task, metrics):
            jobs.append((task, metric, _build_prompt(task, metric, templates)))

    requests = [
        CompletionRequest(
            prompt=prompt,
            max_output_tokens=MAX_OUTPUT_TOKENS,
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
            prompt=prompt,
        )
        out.append(outcome.record)
        bucket = _BUCKETS[outcome.record.filter_status]
        setattr(stats, bucket, getattr(stats, bucket) + 1)
    return out, stats
