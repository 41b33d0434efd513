"""Parsing and canonical serialization of structured evaluator outputs.

The envelope is lenient (prose and code fences around the JSON are fine, the
leftmost top-level object wins); the payload is strict (missing fields, wrong
types, and invariant violations all reject). Parsers are total: they return a
report instead of raising on bad input, and the raising wrappers exist for
callers that prefer exceptions.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable

from .model import (
    CitationMode,
    CitationSnippet,
    PointwiseVerdict,
    QualityEvalOutput,
    RagCitationEntry,
    RagCitationOutput,
    Statement,
    UnifiedTaskRecord,
)

__all__ = [
    "Code",
    "Violation",
    "ValidationReport",
    "SchemaError",
    "extract_first_json_object",
    "try_parse_quality_output",
    "parse_quality_output",
    "try_parse_rag_output",
    "parse_rag_output",
    "try_parse_pointwise",
    "parse_pointwise",
    "serialize_canonical",
    "read_jsonl",
    "write_jsonl",
]


class Code(str, Enum):
    BAD_JSON = "BadJson"
    MISSING_FIELD = "MissingField"
    WRONG_TYPE = "WrongType"
    MODE_MISMATCH = "ModeMismatch"
    EMPTY_REQUIRED = "EmptyRequired"


@dataclass(frozen=True)
class Violation:
    code: Code
    path: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_value(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "violations": [
                {"code": v.code.value, "path": v.path, "detail": v.detail}
                for v in self.violations
            ],
        }

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(f"{v.code.value} at {v.path}: {v.detail}" for v in self.violations)


class SchemaError(ValueError):
    """Raised by the strict parse_* wrappers; carries the full report."""

    def __init__(self, report: ValidationReport):
        super().__init__(str(report))
        self.report = report


def extract_first_json_object(text: str) -> tuple[Any, int, int] | None:
    """Find the leftmost parseable top-level JSON object in text.

    Returns (value, start, end) or None. Prose and ``` fences around the
    object are ignored; scanning starts at each '{' in order, so the first
    object that decodes wins even when several are present.
    """
    decoder = json.JSONDecoder()
    pos = text.find("{")
    while pos != -1:
        try:
            value, consumed = decoder.raw_decode(text, pos)
        except ValueError:
            pass
        else:
            if isinstance(value, dict):
                return value, pos, consumed
        pos = text.find("{", pos + 1)
    return None


_NO_JSON = ValidationReport(
    (Violation(Code.BAD_JSON, "$", "no parseable JSON object in reply"),)
)


def _envelope(raw: str) -> dict | None:
    """The reply's leftmost JSON object, or None when it holds none."""
    found = extract_first_json_object(raw)
    return None if found is None else found[0]


def _normalize_yes_no(value: Any, path: str, out: list[Violation]) -> str | None:
    if not isinstance(value, str):
        out.append(Violation(Code.WRONG_TYPE, path, f"expected string, got {type(value).__name__}"))
        return None
    lowered = value.strip().lower()
    if lowered == "yes":
        return "Yes"
    if lowered == "no":
        return "No"
    out.append(Violation(Code.WRONG_TYPE, path, f'expected "Yes" or "No", got {value!r}'))
    return None


def _require(obj: dict, key: str, path: str, out: list[Violation]) -> Any:
    if key not in obj:
        out.append(Violation(Code.MISSING_FIELD, path, f"missing required field {key!r}"))
        return None
    return obj[key]


def _require_str(obj: dict, key: str, path: str, out: list[Violation]) -> str | None:
    if key not in obj:
        out.append(Violation(Code.MISSING_FIELD, path, f"missing required field {key!r}"))
        return None
    value = obj[key]
    if not isinstance(value, str):
        out.append(
            Violation(Code.WRONG_TYPE, f"{path}.{key}", f"expected string, got {type(value).__name__}")
        )
        return None
    if not value:
        out.append(Violation(Code.EMPTY_REQUIRED, f"{path}.{key}", "must be non-empty"))
        return None
    return value


def _extras(obj: dict, known: tuple[str, ...]) -> dict[str, Any]:
    # Unknown fields ride along on the parsed value; canonical serialization
    # drops them again.
    return {k: v for k, v in obj.items() if k not in known}


def _parse_citation_item(item: Any, path: str, out: list[Violation]) -> CitationSnippet | None:
    # Both published shapes are accepted: a bare snippet string, or an
    # object carrying at least {"snippet": ...}. Canonical form is the object.
    if isinstance(item, str):
        if not item:
            out.append(Violation(Code.EMPTY_REQUIRED, path, "snippet must be non-empty"))
            return None
        return CitationSnippet(snippet=item)
    if not isinstance(item, dict):
        out.append(
            Violation(Code.WRONG_TYPE, path, f"expected string or object, got {type(item).__name__}")
        )
        return None
    snippet = _require_str(item, "snippet", path, out)
    if snippet is None:
        return None
    context_id = None
    if "context_id" in item:
        raw_id = item["context_id"]
        if not isinstance(raw_id, str):
            out.append(Violation(Code.WRONG_TYPE, f"{path}.context_id", "expected string"))
            return None
        context_id = raw_id
    char_span = None
    if "char_span" in item:
        raw_span = item["char_span"]
        if (
            not isinstance(raw_span, (list, tuple))
            or len(raw_span) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in raw_span)
        ):
            out.append(Violation(Code.WRONG_TYPE, f"{path}.char_span", "expected [start, end] ints"))
            return None
        char_span = (raw_span[0], raw_span[1])
    return CitationSnippet(
        snippet=snippet,
        context_id=context_id,
        char_span=char_span,
        extra=_extras(item, ("snippet", "context_id", "char_span")),
    )


def try_parse_quality_output(raw: str) -> tuple[QualityEvalOutput | None, ValidationReport]:
    """Parse a content-quality rate/explain/cite reply."""
    obj = _envelope(raw)
    if obj is None:
        return None, _NO_JSON
    out: list[Violation] = []

    answer_raw = _require(obj, "answer", "$.answer", out)
    answer = _normalize_yes_no(answer_raw, "$.answer", out) if answer_raw is not None else None
    feedback = _require_str(obj, "feedback", "$", out)

    statements: list[Statement] = []
    raw_statements = _require(obj, "statements", "$.statements", out)
    if raw_statements is not None:
        if not isinstance(raw_statements, list):
            out.append(Violation(Code.WRONG_TYPE, "$.statements", "expected array"))
        else:
            for i, raw_st in enumerate(raw_statements):
                path = f"$.statements[{i}]"
                if not isinstance(raw_st, dict):
                    out.append(Violation(Code.WRONG_TYPE, path, "expected object"))
                    continue
                text = _require_str(raw_st, "statement_string", path, out)
                raw_cits = _require(raw_st, "citations", f"{path}.citations", out)
                cits: list[CitationSnippet] = []
                if raw_cits is not None:
                    if not isinstance(raw_cits, list):
                        out.append(Violation(Code.WRONG_TYPE, f"{path}.citations", "expected array"))
                    else:
                        for j, item in enumerate(raw_cits):
                            parsed = _parse_citation_item(item, f"{path}.citations[{j}]", out)
                            if parsed is not None:
                                cits.append(parsed)
                if text is not None:
                    statements.append(
                        Statement(
                            statement_string=text,
                            citations=tuple(cits),
                            extra=_extras(raw_st, ("statement_string", "citations")),
                        )
                    )

    if out:
        return None, ValidationReport(tuple(out))
    value = QualityEvalOutput(
        answer=answer,  # type: ignore[arg-type]
        feedback=feedback,  # type: ignore[arg-type]
        statements=tuple(statements),
        extra=_extras(obj, ("answer", "feedback", "statements")),
    )
    model_problems = value.violations()
    if model_problems:
        return None, ValidationReport(
            tuple(Violation(Code.EMPTY_REQUIRED, "$", p) for p in model_problems)
        )
    return value, ValidationReport()


def parse_quality_output(raw: str) -> QualityEvalOutput:
    value, report = try_parse_quality_output(raw)
    if value is None:
        raise SchemaError(report)
    return value


def try_parse_rag_output(
    raw: str, mode: CitationMode
) -> tuple[RagCitationOutput | None, ValidationReport]:
    """Parse a retrieval-citation reply against the requested mode."""
    obj = _envelope(raw)
    if obj is None:
        return None, _NO_JSON
    out: list[Violation] = []

    entries: list[RagCitationEntry] = []
    raw_citations = _require(obj, "citations", "$.citations", out)
    if raw_citations is not None:
        if not isinstance(raw_citations, list):
            out.append(Violation(Code.WRONG_TYPE, "$.citations", "expected array"))
        else:
            for i, raw_entry in enumerate(raw_citations):
                path = f"$.citations[{i}]"
                if not isinstance(raw_entry, dict):
                    out.append(Violation(Code.WRONG_TYPE, path, "expected object"))
                    continue
                context_id = _require_str(raw_entry, "context_id", path, out)
                claim = raw_entry.get("claim")
                snippet = raw_entry.get("snippet")
                if claim is not None and not isinstance(claim, str):
                    out.append(Violation(Code.WRONG_TYPE, f"{path}.claim", "expected string"))
                    continue
                if snippet is not None and not isinstance(snippet, str):
                    out.append(Violation(Code.WRONG_TYPE, f"{path}.snippet", "expected string"))
                    continue
                if context_id is None:
                    continue
                entry = RagCitationEntry(
                    context_id=context_id,
                    claim=claim,
                    snippet=snippet,
                    extra=_extras(raw_entry, ("context_id", "claim", "snippet")),
                )
                for problem in entry.violations_for_mode(mode):
                    code = Code.MODE_MISMATCH if "mode" in problem else Code.EMPTY_REQUIRED
                    out.append(Violation(code, path, problem))
                entries.append(entry)

    if out:
        return None, ValidationReport(tuple(out))
    value = RagCitationOutput(
        citations=tuple(entries),
        mode=mode,
        extra=_extras(obj, ("citations",)),
    )
    return value, ValidationReport()


def parse_rag_output(raw: str, mode: CitationMode) -> RagCitationOutput:
    value, report = try_parse_rag_output(raw, mode)
    if value is None:
        raise SchemaError(report)
    return value


def try_parse_pointwise(raw: str) -> tuple[PointwiseVerdict | None, ValidationReport]:
    """Parse a single-metric {"metriclabel", "justification"} reply."""
    obj = _envelope(raw)
    if obj is None:
        return None, _NO_JSON
    out: list[Violation] = []
    label_raw = _require(obj, "metriclabel", "$.metriclabel", out)
    label = _normalize_yes_no(label_raw, "$.metriclabel", out) if label_raw is not None else None
    justification = _require_str(obj, "justification", "$", out)
    if out:
        return None, ValidationReport(tuple(out))
    value = PointwiseVerdict(
        metriclabel=label,  # type: ignore[arg-type]
        justification=justification,  # type: ignore[arg-type]
        extra=_extras(obj, ("metriclabel", "justification")),
    )
    return value, ValidationReport()


def parse_pointwise(raw: str) -> PointwiseVerdict:
    value, report = try_parse_pointwise(raw)
    if value is None:
        raise SchemaError(report)
    return value


def _snippet_to_json(cit: CitationSnippet) -> dict[str, Any]:
    obj: dict[str, Any] = {"snippet": cit.snippet}
    if cit.context_id is not None:
        obj["context_id"] = cit.context_id
    if cit.char_span is not None:
        obj["char_span"] = list(cit.char_span)
    return obj


def to_json_value(value: Any) -> Any:
    """Canonical JSON value for a core type; optional fields only when set."""
    if isinstance(value, QualityEvalOutput):
        return {
            "answer": value.answer,
            "feedback": value.feedback,
            "statements": [
                {
                    "statement_string": st.statement_string,
                    "citations": [_snippet_to_json(c) for c in st.citations],
                }
                for st in value.statements
            ],
        }
    if isinstance(value, RagCitationOutput):
        citations = []
        for entry in value.citations:
            obj: dict[str, Any] = {"context_id": entry.context_id}
            if entry.claim is not None:
                obj["claim"] = entry.claim
            if entry.snippet is not None:
                obj["snippet"] = entry.snippet
            citations.append(obj)
        return {"citations": citations}
    if isinstance(value, PointwiseVerdict):
        return {"metriclabel": value.metriclabel, "justification": value.justification}
    if isinstance(value, UnifiedTaskRecord):
        return {
            "prompt": value.prompt,
            "completion": value.completion,
            "task_type": value.task_type.value,
            "source_dataset": value.source_dataset,
            "filter_status": value.filter_status.value,
        }
    if isinstance(value, dict):
        return value
    raise TypeError(f"no canonical JSON form for {type(value).__name__}")


def serialize_canonical(value: Any) -> str:
    """Deterministic text form: sorted keys, no insignificant whitespace.

    parse(serialize_canonical(x)) == x and serializing the reparse is
    byte-identical, which is what makes completions diffable and dedupable.
    """
    return json.dumps(to_json_value(value), sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def read_jsonl(
    path: str | os.PathLike[str],
    *,
    skip_bad: bool = False,
) -> tuple[list[Any], list[Violation]]:
    """Read one JSON value per line; blank lines are ignored.

    A malformed line raises SchemaError (with its line number) unless
    skip_bad is set, in which case it is reported in the returned violations.
    """
    records: list[Any] = []
    errors: list[Violation] = []
    with io.open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except ValueError as exc:
                violation = Violation(Code.BAD_JSON, f"line {lineno}", str(exc))
                if not skip_bad:
                    raise SchemaError(ValidationReport((violation,))) from exc
                errors.append(violation)
    return records, errors


def write_jsonl(path: str | os.PathLike[str], values: Iterable[Any]) -> int:
    """Write values as canonical JSON lines; returns the line count."""
    count = 0
    with io.open(path, "w", encoding="utf-8") as fh:
        for value in values:
            fh.write(serialize_canonical(value))
            fh.write("\n")
            count += 1
    return count
