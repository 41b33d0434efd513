"""Prompt assembly from versioned template resources.

Templates are plain UTF-8 files with {slot_name} placeholders; the filler
substitutes in a single pass, so braces inside slot values or in the
templates' JSON format blocks are never mistaken for markers.
"""

from __future__ import annotations

import re
from enum import Enum
from importlib import resources
from pathlib import Path

from .errors import DuplicateContextIdError, EmptyRequiredError, TemplateError
from .model import CitationMode, ContextDocument, EvaluationMetric

_SLOT_RE = re.compile(r"\{([a-z][a-z0-9_]*)\}")


class TemplateId(str, Enum):
    QUALITY_EVAL = "QualityEval"
    RAG_CITE = "RagCite"
    POINTWISE = "Pointwise"
    PAIRWISE_JUDGE = "PairwiseJudge"


_RAG_FILES = {
    CitationMode.POST_FIX: "rag_cite_postfix.txt",
    CitationMode.POST_FIX_SNIPPET: "rag_cite_postfix_snippet.txt",
    CitationMode.INLINE: "rag_cite_inline.txt",
    CitationMode.INLINE_SNIPPET: "rag_cite_inline_snippet.txt",
}

_PLAIN_FILES = {
    TemplateId.QUALITY_EVAL: "quality_eval.txt",
    TemplateId.POINTWISE: "pointwise.txt",
    TemplateId.PAIRWISE_JUDGE: "pairwise.txt",
}


class TemplateSet:
    """Resolves template files, optionally overridden from a directory.

    Files present in the override directory win by name; anything missing
    there falls back to the packaged set.
    """

    def __init__(self, directory: str | Path | None = None):
        self.directory = Path(directory) if directory is not None else None
        self._cache: dict[str, str] = {}

    def _load(self, filename: str) -> str:
        if filename in self._cache:
            return self._cache[filename]
        text = None
        if self.directory is not None:
            candidate = self.directory / filename
            if candidate.is_file():
                try:
                    text = candidate.read_text(encoding="utf-8")
                except (OSError, UnicodeDecodeError) as exc:
                    raise TemplateError(f"cannot read template {candidate}: {exc}") from exc
        if text is None:
            text = resources.files(__package__).joinpath("templates", filename).read_text("utf-8")
        text = text.rstrip("\n")
        self._cache[filename] = text
        return text

    def text(self, template_id: TemplateId, mode: CitationMode | None = None) -> str:
        if template_id is TemplateId.RAG_CITE:
            if mode is None:
                raise TemplateError("RAG template lookup needs a citation mode")
            return self._load(_RAG_FILES[mode])
        return self._load(_PLAIN_FILES[template_id])


_DEFAULT_TEMPLATES = TemplateSet()


def _fill(template: str, slots: dict[str, str], template_id: TemplateId) -> str:
    markers = set(_SLOT_RE.findall(template))
    unfilled = markers - slots.keys()
    if unfilled:
        raise TemplateError(f"unknown slots {sorted(unfilled)} in the {template_id.value} template")
    # re.sub never rescans replacement text, so slot values containing
    # brace-delimited words cannot smuggle in new markers.
    return _SLOT_RE.sub(lambda m: slots[m.group(1)], template)


def _require_text(name: str, value: str) -> str:
    if not value or not value.strip():
        raise EmptyRequiredError(f"{name} must be non-empty")
    return value


def render_chunks_block(chunks: list[ContextDocument]) -> str:
    """Chunks in input order as 'ID <context_id>' headers over their bodies."""
    if not chunks:
        raise EmptyRequiredError("at least one retrieved chunk is required")
    seen: set[str] = set()
    blocks = []
    for chunk in chunks:
        if not chunk.context_id:
            raise EmptyRequiredError("every retrieved chunk needs a context_id")
        if chunk.context_id in seen:
            raise DuplicateContextIdError(f"duplicate context_id {chunk.context_id!r}")
        seen.add(chunk.context_id)
        _require_text(f"chunk {chunk.context_id} body", chunk.body)
        blocks.append(f"ID {chunk.context_id}\n{chunk.body}")
    return "\n\n".join(blocks)


def build_quality_prompt(
    metric: EvaluationMetric,
    task_prompt: str,
    generation: str,
    templates: TemplateSet | None = None,
) -> str:
    """Rate/explain/cite prompt for one content-quality metric."""
    templates = templates or _DEFAULT_TEMPLATES
    slots = {
        "metric_name": metric.name.value,
        "metric_scale": metric.scale,
        "metric_description": metric.description,
        "task_prompt": _require_text("task_prompt", task_prompt),
        "generation": _require_text("generation", generation),
    }
    return _fill(templates.text(TemplateId.QUALITY_EVAL), slots, TemplateId.QUALITY_EVAL)


def build_rag_cite_prompt(
    chunks: list[ContextDocument],
    answer: str,
    mode: CitationMode,
    templates: TemplateSet | None = None,
) -> str:
    """Citation prompt over retrieved chunks; steps vary with the mode."""
    templates = templates or _DEFAULT_TEMPLATES
    slots = {
        "retrieved_chunks": render_chunks_block(chunks),
        "answer": _require_text("answer", answer),
    }
    return _fill(templates.text(TemplateId.RAG_CITE, mode), slots, TemplateId.RAG_CITE)


def build_pointwise_prompt(
    metric: EvaluationMetric,
    query_with_context: str,
    answer: str,
    templates: TemplateSet | None = None,
) -> str:
    """Single-metric Yes/No rating prompt."""
    templates = templates or _DEFAULT_TEMPLATES
    slots = {
        "metric_name": metric.name.value,
        "metric_scale": metric.scale,
        "metric_description": metric.description,
        "query_with_context": _require_text("query_with_context", query_with_context),
        "answer": _require_text("answer", answer),
    }
    return _fill(templates.text(TemplateId.POINTWISE), slots, TemplateId.POINTWISE)


def build_pairwise_prompt(
    instruction: str,
    output_a: str,
    output_b: str,
    templates: TemplateSet | None = None,
) -> str:
    """A/B comparison prompt; the judge must answer with the output label."""
    templates = templates or _DEFAULT_TEMPLATES
    slots = {
        "instruction": _require_text("instruction", instruction),
        "output_a": _require_text("output_a", output_a),
        "output_b": _require_text("output_b", output_b),
    }
    return _fill(templates.text(TemplateId.PAIRWISE_JUDGE), slots, TemplateId.PAIRWISE_JUDGE)
