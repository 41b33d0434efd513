"""Core domain types for the rate/explain/cite evaluation pipeline."""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

YES_NO_SCALE = "Yes/No"


class MetricName(str, Enum):
    FAITHFULNESS = "Faithfulness"
    INSTRUCTION_FOLLOWING = "InstructionFollowing"
    COHERENCE = "Coherence"
    COMPLETENESS = "Completeness"


class EvaluationMetric(NamedTuple):
    """One quality dimension an evaluator rates on a Yes/No scale."""

    name: MetricName
    description: str
    scale: str = YES_NO_SCALE


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


class ContextDocument(NamedTuple):
    """A piece of source text citations are checked against."""

    body: str
    context_id: str | None = None


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


class CitationSnippet(NamedTuple):
    """A verbatim quote from a context document.

    char_span, when present, is in Unicode scalar offsets into the
    un-normalized source text; whether it actually locates the snippet is the
    verifier's business, not a construction-time check.
    """

    snippet: str
    context_id: str | None = None
    char_span: tuple[int, int] | None = None


class Statement(NamedTuple):
    """One feedback statement and the snippets cited for it.

    Zero citations is allowed; the verifier reports unsupported statements
    rather than the constructor rejecting them.
    """

    statement_string: str
    citations: tuple[CitationSnippet, ...] = ()


class QualityEvalOutput(NamedTuple):
    """Structured rate/explain/cite output of a content-quality evaluator."""

    answer: str  # "Yes" | "No"
    feedback: str
    statements: tuple[Statement, ...] = ()

    def all_snippets(self) -> list[CitationSnippet]:
        """Citations of all statements, flattened in the declared order."""
        return [c for st in self.statements for c in st.citations]


#: Sentinel context_id for claims no retrieved chunk supports.
NO_SUPPORT_ID = "None"


class RagCitationEntry(NamedTuple):
    """One citation row produced for a retrieval-augmented answer."""

    context_id: str
    claim: str | None = None
    snippet: str | None = None


class RagCitationOutput(NamedTuple):
    """Citations for a retrieval-augmented answer, plus the mode they obey."""

    citations: tuple[RagCitationEntry, ...]
    mode: CitationMode

    def cited_ids(self) -> tuple[str, ...]:
        """Distinct real context ids, first appearance order."""
        seen: list[str] = []
        for entry in self.citations:
            if entry.context_id != NO_SUPPORT_ID and entry.context_id not in seen:
                seen.append(entry.context_id)
        return tuple(seen)


class PointwiseVerdict(NamedTuple):
    """Single-metric Yes/No rating with its justification."""

    metriclabel: str  # "Yes" | "No"
    justification: str


class TaskType(str, Enum):
    POINTWISE_EVAL = "PointwiseEval"
    CITATION = "Citation"


class FilterStatus(str, Enum):
    KEPT = "Kept"
    REJECTED_BAD_JSON = "RejectedBadJson"
    REJECTED_NON_VERBATIM = "RejectedNonVerbatim"
    REJECTED_TOO_LONG = "RejectedTooLong"


class UnifiedTaskRecord(NamedTuple):
    """One curated training example in the unified prompt/completion shape."""

    prompt: str
    completion: str
    task_type: TaskType
    source_dataset: str
    filter_status: FilterStatus


class Verdict(str, Enum):
    A = "A"
    B = "B"
    UNPARSEABLE = "Unparseable"
