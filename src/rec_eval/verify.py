"""Verbatim verification of snippets, claims, and statements.

Matching runs either Strict (exact substring) or Normalized (Unicode NFC,
whitespace runs collapsed to one space, ends trimmed). Either way, reported
spans are offsets into the *un-normalized* source, in Unicode scalar values,
never bytes: one SourceIndex per source text keeps a map back to it instead
of searching a mutated copy.
"""

from __future__ import annotations

import re
import unicodedata
from array import array
from bisect import bisect_left, bisect_right
from enum import Enum
from functools import cache, cached_property
from operator import itemgetter
from typing import Any, NamedTuple

from . import schema_io
from .errors import (
    DuplicateContextIdError,
    SnippetNotFoundError,
    UnknownContextIdError,
)
from .model import (
    NO_SUPPORT_ID,
    CitationMode,
    ContextDocument,
    QualityEvalOutput,
    RagCitationOutput,
)


class MatchPolicy(str, Enum):
    STRICT = "strict"
    NORMALIZED = "normalized"


def parse_match_policy(text: str) -> MatchPolicy:
    try:
        return MatchPolicy(text.strip().lower())
    except ValueError:
        raise KeyError(f"unknown match policy: {text!r}") from None


def _normalize_with_map(text: str) -> tuple[str, list[int], list[int]]:
    """Normalized text plus, per normalized char, its source char range.

    normalized[i] came from text[starts[i]:ends[i]]; a collapsed space maps
    to its whole original whitespace run. Composition is applied per base
    char + trailing combining marks so the map stays total.
    """
    chars: list[str] = []
    starts: list[int] = []
    ends: list[int] = []
    ws_start = -1  # start of a pending whitespace run, -1 when none
    i, n = 0, len(text)
    while i < n:
        j = i + 1
        while j < n and unicodedata.combining(text[j]):
            j += 1
        for ch in unicodedata.normalize("NFC", text[i:j]):
            if ch.isspace():
                if ws_start < 0:
                    ws_start = i
            else:
                if ws_start >= 0 and chars:
                    chars.append(" ")
                    starts.append(ws_start)
                    ends.append(i)
                ws_start = -1
                chars.append(ch)
                starts.append(i)
                ends.append(j)
        i = j
    return "".join(chars), starts, ends


def _normal_tokens(text: str) -> tuple[list[str], dict[int, tuple[list[int], list[int]]]]:
    """Normalized tokens of text, and by token number the char maps of the non-NFC ones."""
    tokens = text.split()
    maps: dict[int, tuple[list[int], list[int]]] = {}
    if not (text.isascii() or unicodedata.is_normalized("NFC", text)):
        for k, token in enumerate(tokens):
            if not unicodedata.is_normalized("NFC", token):
                tokens[k], starts, ends = _normalize_with_map(token)
                maps[k] = (starts, ends)
    return tokens, maps


def normalize(text: str) -> str:
    """The Normalized-policy text form: NFC, collapsed whitespace, trimmed."""
    return " ".join(_normal_tokens(text)[0])


class SourceIndex:
    """One source text that many checks share; immutable.

    Pass it to every verify_snippet, snap_to_sentences or citation_prf call
    against that text. Its Normalized form with the map back to body, and
    its sentence spans, are each computed once, on first use.
    """

    def __init__(self, body: str):
        self.body = body

    @classmethod
    def of(cls, source: str | ContextDocument | SourceIndex) -> SourceIndex:
        if isinstance(source, SourceIndex):
            return source
        return cls(source.body if isinstance(source, ContextDocument) else source)

    @cached_property
    def norm(self) -> str:
        """body in Normalized form. The map back to body it sets up holds each
        token's start in both texts, plus the char maps of non-NFC tokens."""
        tokens, self._maps = _normal_tokens(self.body)
        norm = " ".join(tokens)
        self._body_starts = array("q", map(re.Match.start, re.finditer(r"\S+", self.body)))
        self._norm_starts = array("q", map(re.Match.start, re.finditer(r"\S+", norm)))
        return norm

    def _to_body(self, pos: int, side: int) -> int:
        """Body offset where the char norm[pos] starts (side 0) or ends (side 1)."""
        k = bisect_right(self._norm_starts, pos) - 1
        off = pos - self._norm_starts[k]
        char_map = self._maps.get(k)
        return self._body_starts[k] + (char_map[side][off] if char_map else off + side)

    def span(self, start: int, end: int) -> tuple[int, int]:
        """Body span of norm[start:end] (no blank ends), in whole base+marks pieces."""
        first, last = self._to_body(start, 0), self._to_body(end - 1, 1)
        while first > 0 and unicodedata.combining(self.body[first]):
            first -= 1
        while last < len(self.body) and unicodedata.combining(self.body[last]):
            last += 1
        return first, last

    @cached_property
    def sentence_spans(self) -> list[tuple[int, int]]:
        """The spans of segment_sentences(body), computed on first use."""
        return [span for _, span in segment_sentences(self.body)]


class MatchResult(NamedTuple):
    """Outcome of locating one snippet in one source text.

    char_span is the first occurrence; occurrence_count counts
    non-overlapping occurrences, so found implies occurrence_count >= 1.
    """

    found: bool
    char_span: tuple[int, int] | None = None
    occurrence_count: int = 0

    def to_json_value(self) -> dict:
        return {
            "found": self.found,
            "char_span": list(self.char_span) if self.char_span else None,
            "occurrence_count": self.occurrence_count,
        }


def verify_snippet(
    snippet: str,
    context: str | ContextDocument | SourceIndex,
    policy: MatchPolicy = MatchPolicy.NORMALIZED,
) -> MatchResult:
    """Locate snippet in context under the given policy.

    A snippet that normalizes to the empty string (whitespace-only) is
    reported not-found rather than matching everywhere.
    """
    if not snippet:
        raise ValueError("snippet must be non-empty")
    if policy is MatchPolicy.STRICT:
        body = context if isinstance(context, str) else context.body
        idx = body.find(snippet)
        if idx < 0:
            return MatchResult(False)
        return MatchResult(True, (idx, idx + len(snippet)), body.count(snippet))
    index = SourceIndex.of(context)
    norm_snip = normalize(snippet)
    if not norm_snip:
        return MatchResult(False)
    idx = index.norm.find(norm_snip)
    if idx < 0:
        return MatchResult(False)
    return MatchResult(True, index.span(idx, idx + len(norm_snip)), index.norm.count(norm_snip))


class CitationCheck(NamedTuple):
    index: int
    snippet: str
    result: MatchResult
    context_id: str | None = None

    def to_json_value(self) -> dict:
        out = {"index": self.index, "snippet": self.snippet, **self.result.to_json_value()}
        if self.context_id is not None:
            out["context_id"] = self.context_id
        return out


class ClaimCheck(NamedTuple):
    index: int
    claim: str
    result: MatchResult

    def to_json_value(self) -> dict:
        return {"index": self.index, "claim": self.claim, **self.result.to_json_value()}


class VerificationReport(NamedTuple):
    """Verbatim-check outcome for one structured output.

    ok covers citations and claims; statement extractiveness is reported but
    not fatal (the renderer degrades to post-fix markers for stray
    statements instead of refusing the output).
    """

    all_citations_verbatim: bool
    per_citation: tuple[CitationCheck, ...] = ()
    claims_verbatim: bool | None = None
    per_claim: tuple[ClaimCheck, ...] = ()
    statements_extractive: tuple[bool, ...] = ()

    @property
    def ok(self) -> bool:
        return self.all_citations_verbatim and self.claims_verbatim is not False

    def to_json_value(self) -> dict:
        return {
            "ok": self.ok,
            "all_citations_verbatim": self.all_citations_verbatim,
            "per_citation": [c.to_json_value() for c in self.per_citation],
            "claims_verbatim": self.claims_verbatim,
            "per_claim": [c.to_json_value() for c in self.per_claim],
            "statements_extractive": list(self.statements_extractive),
        }


def verify_quality_output(
    out: QualityEvalOutput,
    context: str | ContextDocument,
    policy: MatchPolicy = MatchPolicy.NORMALIZED,
) -> VerificationReport:
    """Check every cited snippet against the context.

    Statement extractiveness (statement_string appearing in the feedback) is
    always checked under the Normalized policy: whitespace reflow inside
    feedback must not flag a statement.
    """
    source, feedback = SourceIndex.of(context), SourceIndex(out.feedback)
    checks: list[CitationCheck] = []
    idx = 0
    for st in out.statements:
        for cit in st.citations:
            checks.append(
                CitationCheck(idx, cit.snippet, verify_snippet(cit.snippet, source, policy))
            )
            idx += 1
    extractive = tuple(
        verify_snippet(st.statement_string, feedback, MatchPolicy.NORMALIZED).found
        if st.statement_string
        else False
        for st in out.statements
    )
    return VerificationReport(
        all_citations_verbatim=all(c.result.found for c in checks),
        per_citation=tuple(checks),
        statements_extractive=extractive,
    )


def verify_rag_output(
    out: RagCitationOutput,
    chunks: list[ContextDocument],
    answer: str,
    policy: MatchPolicy = MatchPolicy.NORMALIZED,
) -> VerificationReport:
    """Check snippets against their cited chunks and claims against the answer.

    Entries citing the no-support sentinel skip the snippet check; a real
    context_id that matches no chunk raises UnknownContextIdError.
    """
    bodies: dict[str, str] = {}
    for chunk in chunks:
        if chunk.context_id is None:
            raise UnknownContextIdError("every chunk needs a context_id")
        if chunk.context_id in bodies:
            raise DuplicateContextIdError(f"duplicate context_id {chunk.context_id!r}")
        bodies[chunk.context_id] = chunk.body

    index = cache(SourceIndex)  # each cited chunk and the answer, on first use
    citation_checks: list[CitationCheck] = []
    claim_checks: list[ClaimCheck] = []
    for i, entry in enumerate(out.citations):
        if entry.context_id != NO_SUPPORT_ID and entry.context_id not in bodies:
            raise UnknownContextIdError(f"cited context_id {entry.context_id!r} not in chunks")
        if entry.snippet is not None and entry.context_id != NO_SUPPORT_ID:
            citation_checks.append(
                CitationCheck(
                    i,
                    entry.snippet,
                    verify_snippet(entry.snippet, index(bodies[entry.context_id]), policy),
                    context_id=entry.context_id,
                )
            )
        if entry.claim is not None:
            claim_checks.append(ClaimCheck(i, entry.claim, verify_snippet(entry.claim, index(answer), policy)))

    claims_verbatim: bool | None = None
    if out.mode.wants_claim:
        claims_verbatim = all(c.result.found for c in claim_checks)
    return VerificationReport(
        all_citations_verbatim=all(c.result.found for c in citation_checks),
        per_citation=tuple(citation_checks),
        claims_verbatim=claims_verbatim,
        per_claim=tuple(claim_checks),
    )


class ReplyCheck(NamedTuple):
    """One evaluator reply, parsed strictly and then checked verbatim.

    value is None when the reply failed to parse. verification is None when
    nothing was checked: a parse failure, a pointwise reply, a parse-only
    call, or a retrieval reply whose chunk ids do not resolve, in which case
    error holds why.
    """

    value: Any
    validation: schema_io.ValidationReport
    verification: VerificationReport | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        verified = self.verification is None or self.verification.ok
        return self.value is not None and self.error is None and verified

    def to_json_value(self) -> dict:
        out: dict[str, Any] = {"ok": self.ok, "validation": self.validation.to_json_value()}
        if self.verification is not None:
            out["verification"] = self.verification.to_json_value()
        if self.error is not None:
            out["error"] = self.error
        return out


def check_reply(
    kind: str,
    raw: str,
    source: str | ContextDocument | list[ContextDocument] | None,
    *,
    mode: CitationMode | None = None,
    answer: str | None = None,
    policy: MatchPolicy = MatchPolicy.NORMALIZED,
) -> ReplyCheck:
    """Parse a raw evaluator reply, then verify its citations against source.

    kind is "quality" (source is the context), "rag" (source is the chunks;
    mode and answer are required) or "pointwise" (nothing to verify). With
    source None only the parse half runs.
    """
    # Parsers are looked up on the module at call time, where a traced run
    # wraps them.
    if kind == "quality":
        value, report = schema_io.try_parse_quality_output(raw)
    elif kind == "rag":
        if mode is None:
            raise ValueError("rag replies need a citation mode")
        value, report = schema_io.try_parse_rag_output(raw, mode)
    elif kind == "pointwise":
        value, report = schema_io.try_parse_pointwise(raw)
    else:
        raise ValueError(f"unknown reply kind: {kind!r}")
    if value is None or source is None or kind == "pointwise":
        return ReplyCheck(value, report)
    if kind == "quality":
        return ReplyCheck(value, report, verify_quality_output(value, source, policy))
    try:
        verification = verify_rag_output(value, source, answer, policy)  # type: ignore[arg-type]
    except (UnknownContextIdError, DuplicateContextIdError) as exc:
        return ReplyCheck(value, report, error=str(exc))
    return ReplyCheck(value, report, verification)


_TERMINALS = ".?!"


def segment_sentences(text: str) -> list[tuple[str, tuple[int, int]]]:
    """Split text into (sentence, char_span) pieces.

    A sentence ends after a run of '.', '?' or '!' followed by whitespace or
    end of text, and unconditionally at a newline. Spans carry no
    surrounding whitespace and never overlap; everything between consecutive
    spans is whitespace. Deliberately naive about abbreviations:
    "Dr. Smith arrived." splits after "Dr.", since full-sentence snapping
    prefers a predictable rule over a language model.
    """
    sentences: list[tuple[str, tuple[int, int]]] = []
    n = len(text)
    i = 0
    start = -1

    def close(end: int) -> None:
        nonlocal start
        while end > start and text[end - 1].isspace():
            end -= 1
        if end > start:
            sentences.append((text[start:end], (start, end)))
        start = -1

    while i < n:
        ch = text[i]
        if start < 0:
            if ch.isspace():
                i += 1
                continue
            start = i
        if ch == "\n":
            close(i)
            i += 1
        elif ch in _TERMINALS:
            j = i
            while j < n and text[j] in _TERMINALS:
                j += 1
            if j >= n or text[j].isspace():
                sentences.append((text[start:j], (start, j)))
                start = -1
            i = j
        else:
            i += 1
    if start >= 0:
        close(n)
    return sentences


def snap_to_sentences(
    snippet: str,
    context: str | ContextDocument | SourceIndex,
    policy: MatchPolicy = MatchPolicy.NORMALIZED,
) -> str:
    """Expand snippet to the minimal run of whole context sentences covering it.

    Idempotent: snapping an already snapped snippet returns it unchanged.
    Raises SnippetNotFoundError when the snippet is not in the context.
    """
    index = SourceIndex.of(context)
    result = verify_snippet(snippet, index, policy)
    if not result.found:
        raise SnippetNotFoundError(f"snippet not found in context: {snippet!r}")
    s, e = result.char_span  # type: ignore[misc]
    # Spans are ordered and disjoint: those overlapping [s, e) run from the
    # first that ends after s to the last that starts before e.
    spans = index.sentence_spans
    first = bisect_right(spans, s, key=itemgetter(1))
    stop = bisect_left(spans, e, first, key=itemgetter(0))
    if first == stop:
        # Whitespace-only strict match sitting between sentences; nothing to
        # snap to, so hand back the matched region itself.
        return index.body[s:e]
    return index.body[spans[first][0] : spans[stop - 1][1]]
