"""Human-readable rendering of structured citation outputs.

Content-quality outputs get numbered [n] markers with a quoted reference
list; retrieval outputs keep the raw context id in brackets. Reference
numbering is by first appearance, deduplicated under normalized equality,
and every marker in the body has exactly one reference entry (and vice
versa).
"""

from __future__ import annotations

from typing import Any, NamedTuple

from .errors import ClaimNotFoundError, ModeMismatchError
from .model import (
    NO_SUPPORT_ID,
    CitationMode,
    ContextDocument,
    QualityEvalOutput,
    RagCitationOutput,
)
from .verify import MatchPolicy, SourceIndex, normalize, verify_snippet


class Reference(NamedTuple):
    label: str  # "1".."k" for quality output, the context_id for RAG
    snippet: str | None = None


class RenderedText(NamedTuple):
    body: str
    references: tuple[Reference, ...]
    mode: CitationMode
    warnings: tuple[str, ...] = ()

    def as_text(self) -> str:
        """Body plus the quoted reference block, when there is one."""
        lines = [f'[{r.label}]: "{r.snippet}"' for r in self.references if r.snippet is not None]
        if not lines:
            return self.body
        return self.body + "\n\n" + "\n".join(lines)

    def to_json_value(self) -> dict[str, Any]:
        return {
            "body": self.body,
            "references": [{"label": r.label, "snippet": r.snippet} for r in self.references],
            "mode": self.mode.value,
            "warnings": list(self.warnings),
        }


def assign_reference_numbers(snippets: list[str]) -> dict[str, int]:
    """Number snippets 1..k by first appearance.

    Surfaces that normalize equal share a number, and every input surface
    form appears as a key.
    """
    numbers: dict[str, int] = {}
    by_norm: dict[str, int] = {}
    for surface in snippets:
        key = normalize(surface)
        if key not in by_norm:
            by_norm[key] = len(by_norm) + 1
        numbers.setdefault(surface, by_norm[key])
    return numbers


def _markers(numbers: list[int]) -> str:
    return "".join(f"[{n}]" for n in numbers)


def _insert_all(base: str, insertions: list[tuple[int, str]]) -> str:
    """Insert texts at the given offsets; equal offsets keep list order."""
    parts = []
    cursor = 0
    for pos, text in sorted(insertions, key=lambda item: item[0]):
        parts.append(base[cursor:pos])
        parts.append(text)
        cursor = pos
    parts.append(base[cursor:])
    return "".join(parts)


def render_quality(out: QualityEvalOutput, mode: CitationMode) -> RenderedText:
    """Render a content-quality output in a snippet-bearing mode.

    Post-fix: feedback, then one line with every marker, then the reference
    list. Inline: each statement in the feedback is immediately followed by
    its own markers. A statement that cannot be located in the feedback gets
    its markers appended at the end of the body, with a warning.
    """
    if not mode.valid_for_quality:
        raise ModeMismatchError(
            f"mode {mode.value} has no snippets to render for content-quality output"
        )
    surfaces = [c.snippet for c in out.all_snippets()]
    numbers = assign_reference_numbers(surfaces)
    references: list[Reference] = []
    seen_numbers: set[int] = set()
    for surface in surfaces:
        n = numbers[surface]
        if n not in seen_numbers:
            seen_numbers.add(n)
            references.append(Reference(label=str(n), snippet=surface))

    warnings: list[str] = []
    if mode is CitationMode.POST_FIX_SNIPPET:
        body = out.feedback
        if references:
            body += "\n" + _markers([int(r.label) for r in references])
    else:
        insertions: list[tuple[int, str]] = []
        trailing: list[str] = []
        feedback = SourceIndex(out.feedback)
        for i, st in enumerate(out.statements):
            per_statement: list[int] = []
            for cit in st.citations:
                n = numbers[cit.snippet]
                if n not in per_statement:
                    per_statement.append(n)
            if not per_statement:
                continue
            hit = verify_snippet(st.statement_string, feedback, MatchPolicy.NORMALIZED)
            if hit.found:
                insertions.append((hit.char_span[1], _markers(per_statement)))
            else:
                trailing.append(_markers(per_statement))
                warnings.append(
                    f"statement {i} not found in feedback; markers appended at end"
                )
        body = _insert_all(out.feedback, insertions)
        if trailing:
            body += "".join(trailing)
    return RenderedText(
        body=body, references=tuple(references), mode=mode, warnings=tuple(warnings)
    )


def render_rag(
    out: RagCitationOutput,
    answer: str,
    chunks: list[ContextDocument] | None = None,
) -> RenderedText:
    """Render retrieval citations over the answer they cite.

    Inline modes suffix each claim with its [context_id] right where the
    claim ends in the answer; post-fix modes append one marker line after
    the answer. Entries citing the no-support sentinel produce neither a
    marker nor a reference. chunks, when given, is only used to warn about
    ids that are not part of the request.
    """
    warnings: list[str] = []
    if chunks is not None:
        known = {c.context_id for c in chunks}
        for entry in out.citations:
            if entry.context_id != NO_SUPPORT_ID and entry.context_id not in known:
                warnings.append(f"cited context_id {entry.context_id!r} not among chunks")

    mode = out.mode
    cited = out.cited_ids()
    snippet_by_id: dict[str, str] = {}
    if mode.wants_snippet:
        for entry in out.citations:
            if entry.snippet is not None and entry.context_id not in snippet_by_id:
                snippet_by_id[entry.context_id] = entry.snippet
    references = tuple(
        Reference(label=cid, snippet=snippet_by_id.get(cid) if mode.wants_snippet else None)
        for cid in cited
    )

    if mode.wants_claim:
        insertions: list[tuple[int, str]] = []
        answer_index = SourceIndex(answer)
        for i, entry in enumerate(out.citations):
            if entry.claim is None:
                continue
            if entry.context_id == NO_SUPPORT_ID:
                warnings.append(f"citation {i} has no supporting chunk; claim left unmarked")
                continue
            hit = verify_snippet(entry.claim, answer_index, MatchPolicy.NORMALIZED)
            if not hit.found:
                raise ClaimNotFoundError(f"claim not found in answer: {entry.claim!r}")
            insertions.append((hit.char_span[1], f"[{entry.context_id}]"))
        body = _insert_all(answer, insertions)
    else:
        body = answer
        if cited:
            body += "\n" + "".join(f"[{cid}]" for cid in cited)
        for i, entry in enumerate(out.citations):
            if entry.context_id == NO_SUPPORT_ID:
                warnings.append(f"citation {i} has no supporting chunk; nothing to mark")
    return RenderedText(
        body=body, references=references, mode=mode, warnings=tuple(warnings)
    )
