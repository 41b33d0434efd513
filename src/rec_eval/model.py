"""Core domain types for the rate/explain/cite evaluation pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

__all__ = [
    "MetricName",
    "EvaluationMetric",
    "metric_catalog",
    "SourceKind",
    "ContextDocument",
    "CitationMode",
    "parse_citation_mode",
    "CitationSnippet",
    "Statement",
    "QualityEvalOutput",
    "RagCitationEntry",
    "RagCitationOutput",
    "PointwiseVerdict",
    "TaskType",
    "FilterStatus",
    "UnifiedTaskRecord",
    "Verdict",
    "PresentationOrder",
    "PairwiseJudgment",
    "InvalidModelError",
    "validate_or_raise",
]

YES_NO_SCALE = "Yes/No"


class MetricName(str, Enum):
    FAITHFULNESS = "Faithfulness"
    INSTRUCTION_FOLLOWING = "InstructionFollowing"
    COHERENCE = "Coherence"
    COMPLETENESS = "Completeness"


@dataclass(frozen=True)
class EvaluationMetric:
    """One quality dimension an evaluator rates on a Yes/No scale."""

    name: MetricName
    description: str
    scale: str = YES_NO_SCALE

    def violations(self) -> list[str]:
        out = []
        if not self.description.strip():
            out.append("metric description must be non-empty")
        if not self.scale.strip():
            out.append("metric scale must be non-empty")
        return out


# Catalog order is the canonical reporting order everywhere (CLI, datagen
# fan-out, score report). The Faithfulness description is the exact sentence
# the pointwise prompt template embeds.
_CATALOG = (
    EvaluationMetric(
        MetricName.FAITHFULNESS,
        "The generated answer only contains truthful content, and does not "
        "contain invented or misleading facts that are not supported by the "
        "context.",
    ),
    EvaluationMetric(
        MetricName.INSTRUCTION_FOLLOWING,
        "The generated answer follows all the instructions stated in the "
        "task prompt.",
    ),
    EvaluationMetric(
        MetricName.COHERENCE,
        "The generated answer is coherent, well structured, and easy to "
        "follow.",
    ),
    EvaluationMetric(
        MetricName.COMPLETENESS,
        "The generated answer includes all the necessary details asked for "
        "by the task prompt, without significant omissions.",
    ),
)


def metric_catalog() -> list[EvaluationMetric]:
    """The four built-in metrics, in canonical order."""
    return list(_CATALOG)


def metric_by_name(name: str) -> EvaluationMetric:
    """Look up a catalog metric; accepts CLI spellings like 'instruction-following'."""
    key = name.strip().lower().replace("-", "").replace("_", "").replace(" ", "")
    aliases = {
        "f": MetricName.FAITHFULNESS,
        "if": MetricName.INSTRUCTION_FOLLOWING,
        "coh": MetricName.COHERENCE,
        "comp": MetricName.COMPLETENESS,
    }
    if key in aliases:
        key = aliases[key].value.lower()
    for metric in _CATALOG:
        if metric.name.value.lower() == key:
            return metric
    raise KeyError(f"unknown metric: {name!r}")


class SourceKind(str, Enum):
    TASK_PROMPT = "TaskPrompt"
    CONVERSATION = "Conversation"
    RETRIEVED_CHUNK = "RetrievedChunk"
    DOCUMENT = "Document"


@dataclass(frozen=True)
class ContextDocument:
    """A piece of source text citations are checked against."""

    body: str
    context_id: str | None = None
    source_kind: SourceKind = SourceKind.DOCUMENT

    def violations(self) -> list[str]:
        return [] if self.body else ["context body must be non-empty"]


class CitationMode(str, Enum):
    """How citations are requested from and rendered for the evaluator.

    Snippet-free modes only make sense when the citation target carries its
    own id (retrieved chunks); content-quality evaluation always quotes
    snippets.
    """

    POST_FIX = "postfix"
    INLINE = "inline"
    POST_FIX_SNIPPET = "postfix-snippet"
    INLINE_SNIPPET = "inline-snippet"

    @property
    def wants_claim(self) -> bool:
        return self in (CitationMode.INLINE, CitationMode.INLINE_SNIPPET)

    @property
    def wants_snippet(self) -> bool:
        return self in (CitationMode.POST_FIX_SNIPPET, CitationMode.INLINE_SNIPPET)

    @property
    def valid_for_quality(self) -> bool:
        return self.wants_snippet


_MODE_ALIASES = {
    "postfix": CitationMode.POST_FIX,
    "post-fix": CitationMode.POST_FIX,
    "inline": CitationMode.INLINE,
    "postfix-snippet": CitationMode.POST_FIX_SNIPPET,
    "post-fix-snippet": CitationMode.POST_FIX_SNIPPET,
    "postfix-with-snippet": CitationMode.POST_FIX_SNIPPET,
    "inline-snippet": CitationMode.INLINE_SNIPPET,
    "inline-with-snippet": CitationMode.INLINE_SNIPPET,
    "post-fix-with-context-snippet": CitationMode.POST_FIX_SNIPPET,
    "postfix-with-context-snippet": CitationMode.POST_FIX_SNIPPET,
    "inline-with-context-snippet": CitationMode.INLINE_SNIPPET,
}


def parse_citation_mode(text: str) -> CitationMode:
    key = "-".join(text.strip().lower().replace("_", " ").replace("-", " ").split())
    try:
        return _MODE_ALIASES[key]
    except KeyError:
        raise KeyError(f"unknown citation mode: {text!r}") from None


@dataclass(frozen=True)
class CitationSnippet:
    """A verbatim quote from a context document.

    char_span, when present, is in Unicode scalar offsets into the
    un-normalized source text; whether it actually locates the snippet is the
    verifier's business, not a construction-time check.
    """

    snippet: str
    context_id: str | None = None
    char_span: tuple[int, int] | None = None
    extra: dict[str, Any] = field(default_factory=dict, compare=False, repr=False)

    def violations(self) -> list[str]:
        out = []
        if not self.snippet:
            out.append("citation snippet must be non-empty")
        if self.char_span is not None:
            start, end = self.char_span
            if start < 0 or end < start:
                out.append(f"char_span must satisfy 0 <= start <= end, got {self.char_span}")
        return out


@dataclass(frozen=True)
class Statement:
    """One feedback statement and the snippets cited for it.

    Zero citations is allowed; the verifier reports unsupported statements
    rather than the constructor rejecting them.
    """

    statement_string: str
    citations: tuple[CitationSnippet, ...] = ()
    extra: dict[str, Any] = field(default_factory=dict, compare=False, repr=False)

    def violations(self) -> list[str]:
        out = []
        if not self.statement_string:
            out.append("statement_string must be non-empty")
        for i, cit in enumerate(self.citations):
            out.extend(f"citations[{i}]: {v}" for v in cit.violations())
        return out


@dataclass(frozen=True)
class QualityEvalOutput:
    """Structured rate/explain/cite output of a content-quality evaluator."""

    answer: str  # "Yes" | "No"
    feedback: str
    statements: tuple[Statement, ...] = ()
    extra: dict[str, Any] = field(default_factory=dict, compare=False, repr=False)

    def violations(self) -> list[str]:
        out = []
        if self.answer not in ("Yes", "No"):
            out.append(f'answer must be "Yes" or "No", got {self.answer!r}')
        if not self.feedback.strip():
            out.append("feedback must be non-empty")
        # A failing verdict has to point at something; statements may be
        # empty only for a clean pass.
        if not self.statements and self.answer == "No":
            out.append('statements may be empty only when answer is "Yes"')
        for i, st in enumerate(self.statements):
            out.extend(f"statements[{i}]: {v}" for v in st.violations())
        return out

    def all_snippets(self) -> list[CitationSnippet]:
        """Citations of all statements, flattened in the declared order."""
        return [c for st in self.statements for c in st.citations]


#: Sentinel context_id for claims no retrieved chunk supports.
NO_SUPPORT_ID = "None"


@dataclass(frozen=True)
class RagCitationEntry:
    """One citation row produced for a retrieval-augmented answer."""

    context_id: str
    claim: str | None = None
    snippet: str | None = None
    extra: dict[str, Any] = field(default_factory=dict, compare=False, repr=False)

    def violations_for_mode(self, mode: CitationMode) -> list[str]:
        out = []
        if not self.context_id:
            out.append("context_id must be non-empty")
        if mode.wants_claim:
            if self.claim is None:
                out.append(f"claim required in mode {mode.value}")
            elif not self.claim:
                out.append("claim must be non-empty")
        elif self.claim is not None:
            out.append(f"claim not allowed in mode {mode.value}")
        # An unsupported entry has no chunk to quote from, so the snippet
        # requirement is waived for it.
        if mode.wants_snippet:
            if self.snippet is None and self.context_id != NO_SUPPORT_ID:
                out.append(f"snippet required in mode {mode.value}")
            elif self.snippet is not None and not self.snippet:
                out.append("snippet must be non-empty")
        elif self.snippet is not None:
            out.append(f"snippet not allowed in mode {mode.value}")
        return out


@dataclass(frozen=True)
class RagCitationOutput:
    """Citations for a retrieval-augmented answer, plus the mode they obey."""

    citations: tuple[RagCitationEntry, ...]
    mode: CitationMode
    extra: dict[str, Any] = field(default_factory=dict, compare=False, repr=False)

    def violations(self) -> list[str]:
        out = []
        for i, entry in enumerate(self.citations):
            out.extend(f"citations[{i}]: {v}" for v in entry.violations_for_mode(self.mode))
        return out

    def cited_ids(self) -> tuple[str, ...]:
        """Distinct real context ids, first appearance order."""
        seen: list[str] = []
        for entry in self.citations:
            if entry.context_id != NO_SUPPORT_ID and entry.context_id not in seen:
                seen.append(entry.context_id)
        return tuple(seen)


@dataclass(frozen=True)
class PointwiseVerdict:
    """Single-metric Yes/No rating with its justification."""

    metriclabel: str  # "Yes" | "No"
    justification: str
    extra: dict[str, Any] = field(default_factory=dict, compare=False, repr=False)

    def violations(self) -> list[str]:
        out = []
        if self.metriclabel not in ("Yes", "No"):
            out.append(f'metriclabel must be "Yes" or "No", got {self.metriclabel!r}')
        if not self.justification:
            out.append("justification must be non-empty")
        return out


class TaskType(str, Enum):
    POINTWISE_EVAL = "PointwiseEval"
    CITATION = "Citation"


class FilterStatus(str, Enum):
    KEPT = "Kept"
    REJECTED_BAD_JSON = "RejectedBadJson"
    REJECTED_NON_VERBATIM = "RejectedNonVerbatim"
    REJECTED_TOO_LONG = "RejectedTooLong"


@dataclass(frozen=True)
class UnifiedTaskRecord:
    """One curated training example in the unified prompt/completion shape."""

    prompt: str
    completion: str
    task_type: TaskType
    source_dataset: str
    filter_status: FilterStatus

    def violations(self) -> list[str]:
        out = []
        if self.filter_status is FilterStatus.KEPT:
            if not self.prompt:
                out.append("kept record must have a non-empty prompt")
            if not self.completion:
                out.append("kept record must have a non-empty completion")
        return out


class Verdict(str, Enum):
    A = "A"
    B = "B"
    UNPARSEABLE = "Unparseable"


class PresentationOrder(str, Enum):
    AB = "AB"
    BA = "BA"


@dataclass(frozen=True)
class PairwiseJudgment:
    """One judged A/B comparison, in presented order."""

    instruction: str
    response_a: str
    response_b: str
    verdict: Verdict
    presentation_order: PresentationOrder = PresentationOrder.AB

    def violations(self) -> list[str]:
        return [] if self.instruction else ["instruction must be non-empty"]


class InvalidModelError(ValueError):
    """A value violates its type's invariants."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


def validate_or_raise(value: Any) -> None:
    """Raise InvalidModelError when value.violations() is non-empty."""
    problems = value.violations()
    if problems:
        raise InvalidModelError(problems)
