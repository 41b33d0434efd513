"""Parsing and canonical serialization of evaluator replies; JSONL reading.

The envelope is lenient (prose and code fences around the JSON are fine, the
leftmost top-level object wins); the payload is strict. Each reply type's
shape is one table of fields, and one walker parses them all: a missing or
null required field, a wrong type or a blank string rejects the reply, with
the path of the field at fault ($.citations[2].claim). An optional field
that is absent or null reads as None. Parsers are total: they return a
report instead of raising, and the raising wrappers exist for callers that
prefer exceptions.
"""

from __future__ import annotations

import io
import json
import os
import re
from enum import Enum
from functools import partial
from typing import Any, Callable, Iterator, NamedTuple

from .model import (
    NO_SUPPORT_ID,
    CitationMode,
    CitationSnippet,
    PointwiseVerdict,
    QualityEvalOutput,
    RagCitationEntry,
    RagCitationOutput,
    Statement,
)


class Code(str, Enum):
    BAD_JSON = "BadJson"
    MISSING_FIELD = "MissingField"
    WRONG_TYPE = "WrongType"
    MODE_MISMATCH = "ModeMismatch"
    EMPTY_REQUIRED = "EmptyRequired"


class Violation(NamedTuple):
    code: Code
    path: str
    detail: str


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_value(self) -> dict[str, Any]:
        return {"ok": self.ok, "violations": to_json_value(self.violations)}

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(f"{v.code.value} at {v.path}: {v.detail}" for v in self.violations)


class SchemaError(ValueError):
    """Raised by the strict parse_* wrappers, and by the JSONL readers on a
    line that is not JSON or not UTF-8; carries the full report."""

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

# A value parser takes (JSON value, its path, violations out) and returns the
# parsed value, or None after appending at least one violation.
_Parse = Callable[[Any, str, list], Any]


def _text(value: Any, path: str, out: list[Violation]) -> str | None:
    if not isinstance(value, str):
        out.append(Violation(Code.WRONG_TYPE, path, f"expected string, got {type(value).__name__}"))
        return None
    if not value.strip():
        out.append(Violation(Code.EMPTY_REQUIRED, path, "must be non-empty"))
        return None
    return value


def _yes_no(value: Any, path: str, out: list[Violation]) -> str | None:
    label = value.strip().lower() if isinstance(value, str) else None
    if label in ("yes", "no"):
        return label.capitalize()
    out.append(Violation(Code.WRONG_TYPE, path, f'expected "Yes" or "No", got {value!r}'))
    return None


def _span(value: Any, path: str, out: list[Violation]) -> tuple[int, int] | None:
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(type(x) is int for x in value)
        and 0 <= value[0] <= value[1]
    ):
        return value[0], value[1]
    out.append(Violation(Code.WRONG_TYPE, path, "expected [start, end] ints with 0 <= start <= end"))
    return None


def _array(item: _Parse) -> _Parse:
    def parse(value: Any, path: str, out: list[Violation]) -> tuple | None:
        if not isinstance(value, list):
            out.append(Violation(Code.WRONG_TYPE, path, "expected array"))
            return None
        return tuple(item(x, f"{path}[{i}]", out) for i, x in enumerate(value))

    return parse


def _record(
    make: Callable[..., Any],
    fields: tuple[tuple[str, _Parse, bool], ...],
    check: Callable[[Any, str, list[Violation]], None] | None = None,
) -> _Parse:
    """A parser of a JSON object into make(*values), one value per field.

    Each field is (key, value parser, required). Unknown keys are ignored.
    An optional field that is absent or null reads as None; a required one
    is MissingField or WrongType. check, when given, sees the record once
    every field has parsed, and appends what a rule across fields breaks.
    """

    def parse(value: Any, path: str, out: list[Violation]) -> Any:
        if not isinstance(value, dict):
            out.append(Violation(Code.WRONG_TYPE, path, "expected object"))
            return None
        before = len(out)
        values = []
        for key, parse_value, required in fields:
            item = value.get(key)
            if item is not None:
                item = parse_value(item, f"{path}.{key}", out)
            elif required and key in value:
                out.append(Violation(Code.WRONG_TYPE, f"{path}.{key}", f"required field {key!r} is null"))
            elif required:
                out.append(Violation(Code.MISSING_FIELD, f"{path}.{key}", f"missing required field {key!r}"))
            values.append(item)
        if len(out) > before:
            return None
        record = make(*values)
        if check is not None:
            check(record, path, out)
        return record if len(out) == before else None

    return parse


def _citation(value: Any, path: str, out: list[Violation]) -> CitationSnippet | None:
    # Both published shapes are accepted: a bare snippet string, or an
    # object carrying at least {"snippet": ...}. Canonical form is the object.
    if isinstance(value, str):
        snippet = _text(value, path, out)
        return None if snippet is None else CitationSnippet(snippet)
    if isinstance(value, dict):
        return _SNIPPET(value, path, out)
    out.append(Violation(Code.WRONG_TYPE, path, f"expected string or object, got {type(value).__name__}"))
    return None


def _needs_statements(reply: QualityEvalOutput, path: str, out: list[Violation]) -> None:
    # A failing verdict has to point at something; statements may be empty
    # only for a clean pass.
    if reply.answer == "No" and not reply.statements:
        out.append(
            Violation(Code.EMPTY_REQUIRED, f"{path}.statements", 'statements may be empty only when answer is "Yes"')
        )


def _mode_rule(mode: CitationMode) -> Callable[[RagCitationEntry, str, list[Violation]], None]:
    """Claim and snippet are each required or forbidden by the mode.

    An unsupported entry (NO_SUPPORT_ID) has no chunk to quote from, so the
    snippet requirement is waived for it.
    """

    def check(entry: RagCitationEntry, path: str, out: list[Violation]) -> None:
        waived = entry.context_id == NO_SUPPORT_ID
        for key, value, wanted in (
            ("claim", entry.claim, mode.wants_claim),
            ("snippet", entry.snippet, mode.wants_snippet),
        ):
            if wanted and value is None and not (key == "snippet" and waived):
                out.append(Violation(Code.MODE_MISMATCH, f"{path}.{key}", f"{key} required in mode {mode.value}"))
            elif not wanted and value is not None:
                out.append(Violation(Code.MODE_MISMATCH, f"{path}.{key}", f"{key} not allowed in mode {mode.value}"))

    return check


# The reply shapes: one table of (key, value parser, required) per type.
_SNIPPET = _record(CitationSnippet, (
    ("snippet", _text, True),
    ("context_id", _text, False),
    ("char_span", _span, False),
))

_STATEMENT = _record(Statement, (
    ("statement_string", _text, True),
    ("citations", _array(_citation), True),
))

_QUALITY = _record(QualityEvalOutput, (
    ("answer", _yes_no, True),
    ("feedback", _text, True),
    ("statements", _array(_STATEMENT), True),
), _needs_statements)

_RAG_ENTRY = (
    ("context_id", _text, True),
    ("claim", _text, False),
    ("snippet", _text, False),
)

_RAG = {
    mode: _record(partial(RagCitationOutput, mode=mode), (
        ("citations", _array(_record(RagCitationEntry, _RAG_ENTRY, _mode_rule(mode))), True),
    ))
    for mode in CitationMode
}

_POINTWISE = _record(PointwiseVerdict, (
    ("metriclabel", _yes_no, True),
    ("justification", _text, True),
))


def _parse(raw: str, parse: _Parse) -> tuple[Any, ValidationReport]:
    found = extract_first_json_object(raw)
    if found is None:
        return None, _NO_JSON
    out: list[Violation] = []
    value = parse(found[0], "$", out)
    return (None, ValidationReport(tuple(out))) if out else (value, ValidationReport())


def try_parse_quality_output(raw: str) -> tuple[QualityEvalOutput | None, ValidationReport]:
    """Parse a content-quality rate/explain/cite reply."""
    return _parse(raw, _QUALITY)


def parse_quality_output(raw: str) -> QualityEvalOutput:
    value, report = try_parse_quality_output(raw)
    if value is None:
        raise SchemaError(report)
    return value


def try_parse_rag_output(
    raw: str, mode: CitationMode
) -> tuple[RagCitationOutput | None, ValidationReport]:
    """Parse a retrieval-citation reply against the requested mode."""
    return _parse(raw, _RAG[mode])


def parse_rag_output(raw: str, mode: CitationMode) -> RagCitationOutput:
    value, report = try_parse_rag_output(raw, mode)
    if value is None:
        raise SchemaError(report)
    return value


def try_parse_pointwise(raw: str) -> tuple[PointwiseVerdict | None, ValidationReport]:
    """Parse a single-metric {"metriclabel", "justification"} reply."""
    return _parse(raw, _POINTWISE)


def parse_pointwise(raw: str) -> PointwiseVerdict:
    value, report = try_parse_pointwise(raw)
    if value is None:
        raise SchemaError(report)
    return value


def to_json_value(value: Any) -> Any:
    """Canonical JSON value of a record and what it holds.

    A record becomes an object of its fields that are not None, a tuple an
    array and an enum its value. A rag reply's mode belongs to the request,
    not to the reply, so it is not written.
    """
    if isinstance(value, tuple):
        fields = getattr(value, "_fields", None)
        if fields is None:
            return [to_json_value(x) for x in value]
        return {key: to_json_value(x) for key, x in zip(fields, value) if x is not None and key != "mode"}
    return value.value if isinstance(value, Enum) else value


def serialize_canonical(value: Any) -> str:
    """Deterministic text form: sorted keys, no insignificant whitespace.

    parse(serialize_canonical(x)) == x and serializing the reparse is
    byte-identical, which is what makes completions diffable and dedupable.
    """
    return json.dumps(to_json_value(value), sort_keys=True, separators=(",", ":"), ensure_ascii=False)


_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _read_numbered(
    path: str | os.PathLike[str], errors: list[Violation] | None = None
) -> Iterator[tuple[int, Any]]:
    """(line number in the file, value) for each non-blank line of a JSONL file.

    A malformed line raises SchemaError naming its line, or, when errors is
    given, is appended to it and skipped. A file that is not UTF-8 always
    raises SchemaError, naming the line of its first undecodable byte.
    """
    with io.open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    value = json.loads(line)
                except ValueError as exc:
                    violation = Violation(Code.BAD_JSON, f"line {lineno}", str(exc))
                    if errors is None:
                        raise SchemaError(ValidationReport((violation,))) from exc
                    errors.append(violation)
                    continue
                yield lineno, value
        except UnicodeDecodeError as exc:
            # The stream decodes ahead of the lines it yields. Read them again with
            # each bad byte escaped to a lone surrogate, which UTF-8 never decodes to.
            with io.open(path, "r", encoding="utf-8", errors="surrogateescape") as again:
                bad = next(n for n, text in enumerate(again, start=1) if _ESCAPED_BYTE.search(text))
            violation = Violation(Code.BAD_JSON, f"line {bad}", f"not UTF-8: {exc.reason}")
            raise SchemaError(ValidationReport((violation,))) from exc


def read_jsonl(
    path: str | os.PathLike[str],
    *,
    skip_bad: bool = False,
) -> tuple[list[Any], list[Violation]]:
    """Read one JSON value per line; blank lines are ignored.

    A malformed line raises SchemaError (with its line number) unless
    skip_bad is set, in which case it is reported in the returned violations.
    """
    errors: list[Violation] = []
    records = [value for _, value in _read_numbered(path, errors if skip_bad else None)]
    return records, errors
