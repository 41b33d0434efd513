import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rec_eval import (
    CitationMode,
    CitationSnippet,
    PointwiseVerdict,
    QualityEvalOutput,
    SchemaError,
    extract_first_json_object,
    parse_quality_output,
    parse_rag_output,
    read_jsonl,
    serialize_canonical,
    to_json_value,
    try_parse_pointwise,
    try_parse_quality_output,
    try_parse_rag_output,
)

GOOD_QUALITY = {
    "answer": "No",
    "feedback": "The summary invents a refund.",
    "statements": [
        {
            "statement_string": "The summary invents a refund.",
            "citations": ["no refunds are possible"],
        }
    ],
}


def test_extract_finds_leftmost_object():
    found = extract_first_json_object('noise {"a": 1} tail {"b": 2}')
    assert found is not None
    value, start, end = found
    assert value == {"a": 1}
    assert 'noise {"a": 1}'.rstrip().endswith('{"a": 1}')
    assert start == 6 and end == 14


def test_extract_skips_unbalanced_braces_before_real_object():
    found = extract_first_json_object('{oops {"k": [1, 2]} after')
    assert found is not None
    assert found[0] == {"k": [1, 2]}


def test_extract_handles_fenced_reply():
    text = 'Sure, here you go:\n```json\n{"answer": "Yes"}\n```\n'
    found = extract_first_json_object(text)
    assert found is not None
    assert found[0] == {"answer": "Yes"}


def test_extract_returns_none_without_object():
    assert extract_first_json_object("no json here [1, 2]") is None


def test_parse_quality_happy_path():
    out = parse_quality_output(json.dumps(GOOD_QUALITY))
    assert out.answer == "No"
    assert len(out.statements) == 1
    assert out.statements[0].citations[0].snippet == "no refunds are possible"


def test_parse_quality_accepts_prose_wrapper():
    raw = "Here is my evaluation:\n" + json.dumps(GOOD_QUALITY) + "\nHope that helps."
    out = parse_quality_output(raw)
    assert out.feedback == GOOD_QUALITY["feedback"]


def test_parse_quality_normalizes_answer_case():
    doc = dict(GOOD_QUALITY, answer="yes", statements=[])
    assert parse_quality_output(json.dumps(doc)).answer == "Yes"


def test_parse_quality_accepts_object_citations():
    doc = {
        "answer": "No",
        "feedback": "f",
        "statements": [
            {
                "statement_string": "f",
                "citations": [{"snippet": "s", "context_id": "c1", "char_span": [0, 1]}],
            }
        ],
    }
    out = parse_quality_output(json.dumps(doc))
    citation = out.statements[0].citations[0]
    assert citation.snippet == "s"
    assert citation.context_id == "c1"
    assert citation.char_span == (0, 1)


@pytest.mark.parametrize(
    "mutate,code",
    [
        (lambda d: d.pop("answer"), "MissingField"),
        (lambda d: d.pop("feedback"), "MissingField"),
        (lambda d: d.pop("statements"), "MissingField"),
        (lambda d: d.update(answer="Maybe"), "WrongType"),
        (lambda d: d.update(answer=1), "WrongType"),
        (lambda d: d.update(statements="nope"), "WrongType"),
        (lambda d: d["statements"][0].pop("statement_string"), "MissingField"),
        (lambda d: d["statements"][0].update(citations=[42]), "WrongType"),
        (lambda d: d.update(feedback=""), "EmptyRequired"),
    ],
)
def test_parse_quality_rejects_bad_documents(mutate, code):
    doc = json.loads(json.dumps(GOOD_QUALITY))
    mutate(doc)
    parsed, report = try_parse_quality_output(json.dumps(doc))
    assert parsed is None
    assert any(v.code.value == code for v in report.violations), str(report)


def test_parse_quality_flags_model_rule_no_needs_statements():
    doc = {"answer": "No", "feedback": "bad", "statements": []}
    parsed, report = try_parse_quality_output(json.dumps(doc))
    assert parsed is None
    assert [(v.code.value, v.path) for v in report.violations] == [("EmptyRequired", "$.statements")]


def test_parse_quality_accepts_yes_without_statements_and_null_optionals():
    assert parse_quality_output('{"answer": "Yes", "feedback": "All good.", "statements": []}').statements == ()
    doc = dict(GOOD_QUALITY, statements=[
        {"statement_string": "s", "citations": [{"snippet": "c", "context_id": None, "char_span": None}]}
    ])
    assert parse_quality_output(json.dumps(doc)).all_snippets() == [CitationSnippet("c")]


def _with_citation(citation):
    def mutate(d):
        d["statements"][0]["citations"][0] = citation

    return mutate


@pytest.mark.parametrize(
    "mutate,code,path",
    [
        (lambda d: d.pop("feedback"), "MissingField", "$.feedback"),
        (lambda d: d.update(feedback="  "), "EmptyRequired", "$.feedback"),
        (lambda d: d.update(answer="Maybe"), "WrongType", "$.answer"),
        (lambda d: d.update(answer=None), "WrongType", "$.answer"),
        (lambda d: d.update(statements=None), "WrongType", "$.statements"),
        (lambda d: d["statements"][0].pop("statement_string"), "MissingField", "$.statements[0].statement_string"),
        (lambda d: d["statements"][0].update(statement_string=""), "EmptyRequired", "$.statements[0].statement_string"),
        (lambda d: d["statements"][0].update(citations=None), "WrongType", "$.statements[0].citations"),
        (_with_citation(""), "EmptyRequired", "$.statements[0].citations[0]"),
        (_with_citation({"snippet": ""}), "EmptyRequired", "$.statements[0].citations[0].snippet"),
        (_with_citation({"context_id": "c"}), "MissingField", "$.statements[0].citations[0].snippet"),
        (_with_citation({"snippet": "s", "char_span": [3, 1]}), "WrongType", "$.statements[0].citations[0].char_span"),
    ],
)
def test_parse_quality_names_the_field_at_fault(mutate, code, path):
    doc = json.loads(json.dumps(GOOD_QUALITY))
    mutate(doc)
    parsed, report = try_parse_quality_output(json.dumps(doc))
    assert parsed is None
    assert [(v.code.value, v.path) for v in report.violations] == [(code, path)], str(report)


def test_parse_quality_not_json_reports_badjson():
    parsed, report = try_parse_quality_output("{{{ nope")
    assert parsed is None
    assert report.violations[0].code.value == "BadJson"


def test_parse_quality_raises_schema_error_with_paths():
    with pytest.raises(SchemaError) as err:
        parse_quality_output('{"answer": "Yes"}')
    assert "$" in str(err.value)


def test_parse_quality_ignores_unknown_fields():
    statement = dict(GOOD_QUALITY["statements"][0], score=3)
    doc = dict(GOOD_QUALITY, reasoning="chain of thought", statements=[statement])
    out = parse_quality_output(json.dumps(doc))
    assert out == parse_quality_output(json.dumps(GOOD_QUALITY))
    canon = serialize_canonical(out)
    assert "reasoning" not in canon and "score" not in canon


RAG_DOC = {
    "citations": [
        {"context_id": "12", "claim": "Water is wet."},
        {"context_id": "None", "claim": "The moon is cheese."},
    ]
}


def test_parse_rag_happy_path_inline():
    out = parse_rag_output(json.dumps(RAG_DOC), CitationMode.INLINE)
    assert out.mode is CitationMode.INLINE
    assert out.citations[0].context_id == "12"
    assert out.citations[1].claim == "The moon is cheese."


def test_parse_rag_mode_mismatch_flags_missing_claim():
    doc = {"citations": [{"context_id": "12"}]}
    parsed, report = try_parse_rag_output(json.dumps(doc), CitationMode.INLINE)
    assert parsed is None
    assert any(v.code.value == "ModeMismatch" for v in report.violations)


def test_parse_rag_mode_mismatch_flags_unwanted_snippet():
    doc = {"citations": [{"context_id": "12", "snippet": "s"}]}
    parsed, report = try_parse_rag_output(json.dumps(doc), CitationMode.POST_FIX)
    assert parsed is None
    assert any(v.code.value == "ModeMismatch" for v in report.violations)


def test_parse_rag_requires_string_context_id():
    doc = {"citations": [{"context_id": 12}]}
    parsed, report = try_parse_rag_output(json.dumps(doc), CitationMode.POST_FIX)
    assert parsed is None
    assert any(v.code.value == "WrongType" for v in report.violations)


@pytest.mark.parametrize(
    "mode,citations,expected",
    [
        (CitationMode.POST_FIX, [{"context_id": "1"}], []),
        (CitationMode.INLINE, [{"context_id": "1"}], [("ModeMismatch", "$.citations[0].claim")]),
        (CitationMode.INLINE, [{"context_id": "1", "claim": None}], [("ModeMismatch", "$.citations[0].claim")]),
        (CitationMode.INLINE, [{"context_id": "1", "claim": ""}], [("EmptyRequired", "$.citations[0].claim")]),
        (CitationMode.POST_FIX_SNIPPET, [{"context_id": "1"}], [("ModeMismatch", "$.citations[0].snippet")]),
        (CitationMode.POST_FIX_SNIPPET, [{"context_id": "None", "snippet": "s"}], []),
        (CitationMode.INLINE_SNIPPET, [{"context_id": "1", "claim": "c", "snippet": "s"}], []),
        (
            CitationMode.POST_FIX,
            [{"context_id": "1", "claim": "c", "snippet": "s"}],
            [("ModeMismatch", "$.citations[0].claim"), ("ModeMismatch", "$.citations[0].snippet")],
        ),
        (CitationMode.POST_FIX, [{"context_id": "1", "snippet": None}], []),
        (CitationMode.POST_FIX, [{"context_id": ""}], [("EmptyRequired", "$.citations[0].context_id")]),
        (CitationMode.POST_FIX, [{"claim": "c"}], [("MissingField", "$.citations[0].context_id")]),
        (CitationMode.POST_FIX, None, [("WrongType", "$.citations")]),
    ],
)
def test_parse_rag_mode_rule_and_paths(mode, citations, expected):
    parsed, report = try_parse_rag_output(json.dumps({"citations": citations}), mode)
    assert [(v.code.value, v.path) for v in report.violations] == expected
    assert (parsed is None) == bool(expected)


def test_parse_rag_snippet_waived_for_unsupported_claims():
    doc = {"citations": [{"context_id": "None", "claim": "c"}]}
    out = parse_rag_output(json.dumps(doc), CitationMode.INLINE_SNIPPET)
    assert out.citations[0].snippet is None


def test_parse_pointwise():
    parsed, report = try_parse_pointwise('{"metriclabel": "yes", "justification": "fine"}')
    assert report.ok
    assert parsed == PointwiseVerdict(metriclabel="Yes", justification="fine")
    bad, report = try_parse_pointwise('{"metriclabel": "sure", "justification": "fine"}')
    assert bad is None and not report.ok


def test_canonical_serialization_is_stable_and_compact():
    out = parse_quality_output(json.dumps(GOOD_QUALITY))
    canon = serialize_canonical(out)
    assert "\n" not in canon and ": " not in canon
    assert json.loads(canon) == to_json_value(out)
    assert serialize_canonical(parse_quality_output(canon)) == canon


def test_canonical_serialization_rag_round_trip():
    out = parse_rag_output(json.dumps(RAG_DOC), CitationMode.INLINE)
    canon = serialize_canonical(out)
    again = parse_rag_output(canon, CitationMode.INLINE)
    assert again == out
    assert serialize_canonical(again) == canon


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "data.jsonl"
    values = [{"a": 1}, {"b": [1, 2]}, {"c": "x"}]
    path.write_text("".join(json.dumps(v) + "\n" for v in values), encoding="utf-8")
    records, errors = read_jsonl(path)
    assert records == values and errors == []


def test_jsonl_bad_line_raises_with_line_number(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"a": 1}\nnot json\n', encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        read_jsonl(path)
    assert "line 2" in str(err.value)
    records, errors = read_jsonl(path, skip_bad=True)
    assert records == [{"a": 1}]
    assert len(errors) == 1


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
@pytest.mark.parametrize("skip_bad", [False, True])
def test_jsonl_not_utf8_raises_with_the_line_of_the_bad_byte(tmp_path, newline, skip_bad):
    # The first line outgrows the text stream's read-ahead, so the error
    # surfaces while decoding, before the lines around it are yielded.
    path = tmp_path / "data.jsonl"
    big = json.dumps({"a": "x" * 20000}).encode()
    path.write_bytes(newline.join([big, b"", b'{"b": "caf\xe9"}', b"{}"]) + newline)
    with pytest.raises(SchemaError) as err:
        read_jsonl(path, skip_bad=skip_bad)
    assert str(err.value) == "BadJson at line 3: not UTF-8: invalid continuation byte"


TEXTS = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=30).filter(
    lambda s: s.strip()
)


@st.composite
def quality_outputs(draw):
    def citation(snippet):
        if draw(st.booleans()):
            return snippet
        obj = {"snippet": snippet}
        if draw(st.booleans()):
            obj["context_id"] = draw(TEXTS)
        if draw(st.booleans()):
            start = draw(st.integers(0, 50))
            obj["char_span"] = [start, start + draw(st.integers(0, 50))]
        return obj

    statements = draw(
        st.lists(
            st.tuples(TEXTS, st.lists(TEXTS, min_size=0, max_size=3)),
            min_size=0,
            max_size=3,
        )
    )
    answer = "Yes" if not statements else draw(st.sampled_from(["Yes", "No"]))
    return {
        "answer": answer,
        "feedback": draw(TEXTS),
        "statements": [
            {"statement_string": s, "citations": [citation(c) for c in cites]} for s, cites in statements
        ],
    }


@st.composite
def rag_outputs(draw, mode):
    entries = []
    for _ in range(draw(st.integers(0, 3))):
        unsupported = mode.wants_claim and draw(st.booleans())
        entry = {"context_id": "None" if unsupported else draw(TEXTS)}
        if mode.wants_claim:
            entry["claim"] = draw(TEXTS)
        if mode.wants_snippet and (not unsupported or draw(st.booleans())):
            entry["snippet"] = draw(TEXTS)
        entries.append(entry)
    return {"citations": entries}


@st.composite
def pointwise_outputs(draw):
    return {"metriclabel": draw(st.sampled_from(["Yes", "No", " yes", "NO"])), "justification": draw(TEXTS)}


# (kind, citation mode, a valid reply document) for every reply type and mode.
REPLIES = st.one_of(
    quality_outputs().map(lambda doc: ("quality", None, doc)),
    pointwise_outputs().map(lambda doc: ("pointwise", None, doc)),
    *(rag_outputs(mode).map(lambda doc, mode=mode: ("rag", mode, doc)) for mode in CitationMode),
)


def _try_parse(kind, mode, raw):
    if kind == "quality":
        return try_parse_quality_output(raw)
    if kind == "rag":
        return try_parse_rag_output(raw, mode)
    return try_parse_pointwise(raw)


def _fields(kind, mode, doc):
    """(path, container, key, value kind, what dropping it breaks) of every field in doc.

    Value kinds are text, label (Yes/No), array and span. Dropping a field
    gives MissingField, ModeMismatch, or nothing (None) for an optional one.
    """
    if kind == "pointwise":
        yield "$.metriclabel", doc, "metriclabel", "label", "MissingField"
        yield "$.justification", doc, "justification", "text", "MissingField"
    elif kind == "quality":
        yield "$.answer", doc, "answer", "label", "MissingField"
        yield "$.feedback", doc, "feedback", "text", "MissingField"
        yield "$.statements", doc, "statements", "array", "MissingField"
        for i, statement in enumerate(doc["statements"]):
            at = f"$.statements[{i}]"
            yield f"{at}.statement_string", statement, "statement_string", "text", "MissingField"
            yield f"{at}.citations", statement, "citations", "array", "MissingField"
            for j, cit in enumerate(statement["citations"]):
                if isinstance(cit, str):
                    yield f"{at}.citations[{j}]", statement["citations"], j, "text", None
                    continue
                yield f"{at}.citations[{j}].snippet", cit, "snippet", "text", "MissingField"
                if "context_id" in cit:
                    yield f"{at}.citations[{j}].context_id", cit, "context_id", "text", None
                if "char_span" in cit:
                    yield f"{at}.citations[{j}].char_span", cit, "char_span", "span", None
    else:
        for i, entry in enumerate(doc["citations"]):
            at = f"$.citations[{i}]"
            yield f"{at}.context_id", entry, "context_id", "text", "MissingField"
            for key in ("claim", "snippet"):
                waived = key == "snippet" and entry["context_id"] == "None"
                if key in entry:
                    yield f"{at}.{key}", entry, key, "text", None if waived else "ModeMismatch"
        yield "$.citations", doc, "citations", "array", "MissingField"


def _expected_code(how, value_kind, dropped, in_array):
    """The code one breakage gives, or None when the reply stays valid."""
    if how == "wrong_type" or how == "empty" and value_kind != "text":
        return "WrongType"
    if how == "empty":
        return "EmptyRequired"
    if in_array:  # dropping an element leaves a valid array; null is of the wrong type
        return None if how == "drop" else "WrongType"
    return "WrongType" if how == "null" and dropped == "MissingField" else dropped


@settings(max_examples=120, deadline=None)
@given(REPLIES)
def test_property_canonical_fixpoint(reply):
    kind, mode, doc = reply
    out, report = _try_parse(kind, mode, json.dumps(doc, ensure_ascii=False))
    assert report.ok, str(report)
    canon = serialize_canonical(out)
    again, _ = _try_parse(kind, mode, canon)
    assert again == out
    assert serialize_canonical(again) == canon


@settings(max_examples=200, deadline=None)
@given(REPLIES, st.data())
def test_property_one_broken_field_gives_one_violation_at_its_path(reply, data):
    kind, mode, doc = reply
    fields = list(_fields(kind, mode, doc))
    path, container, key, value_kind, dropped = data.draw(st.sampled_from(fields))
    how = data.draw(st.sampled_from(["drop", "null", "wrong_type", "empty"]))
    code = _expected_code(how, value_kind, dropped, not isinstance(key, str))
    if code is None:
        return
    if how == "drop":
        del container[key]
    else:
        container[key] = {"null": None, "wrong_type": 42, "empty": " "}[how]
    parsed, report = _try_parse(kind, mode, json.dumps(doc, ensure_ascii=False))
    assert parsed is None
    assert [(v.code.value, v.path) for v in report.violations] == [(code, path)]
