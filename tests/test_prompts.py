import json
import re

import pytest

from rec_eval import (
    CitationMode,
    EmptyRequiredError,
    NO_SUPPORT_ID,
    TemplateError,
    TemplateSet,
    build_pairwise_prompt,
    build_pointwise_prompt,
    build_quality_prompt,
    build_rag_cite_prompt,
    metric_by_name,
    metric_catalog,
    render_chunks_block,
    try_parse_pointwise,
    try_parse_quality_output,
    try_parse_rag_output,
)
from rec_eval.prompts import TemplateId


def test_quality_prompt_embeds_inputs_and_metric():
    metric = metric_by_name("completeness")
    p = build_quality_prompt(metric, "TASK TEXT HERE", "GENERATION TEXT HERE")
    assert "TASK TEXT HERE" in p
    assert "GENERATION TEXT HERE" in p
    assert "Completeness (Yes/No)" in p
    assert metric.description in p
    assert p.count("[BEGIN DATA]") == 1
    assert p.rstrip().endswith("### Response(JSON only):")


def test_quality_prompt_mentions_output_contract():
    p = build_quality_prompt(metric_by_name("f"), "t", "g")
    for cue in ('"answer"', '"feedback"', '"statements"', '"statement_string"', '"citations"'):
        assert cue in p


def test_quality_prompt_no_leftover_slots():
    p = build_quality_prompt(metric_by_name("coherence"), "task", "gen")
    assert "{metric_name}" not in p
    assert "{task_prompt}" not in p
    assert "{generation}" not in p


def test_quality_prompt_inputs_with_braces_survive():
    # JSON-looking inputs must not be re-expanded as template slots
    task = 'Return {"answer": "{metric_name}"} exactly.'
    p = build_quality_prompt(metric_by_name("f"), task, "gen {x}")
    assert task in p
    assert "gen {x}" in p


def test_quality_prompt_rejects_empty_inputs():
    with pytest.raises(EmptyRequiredError):
        build_quality_prompt(metric_by_name("f"), "", "gen")
    with pytest.raises(EmptyRequiredError):
        build_quality_prompt(metric_by_name("f"), "task", "   ")


def test_chunks_block_layout():
    block = render_chunks_block({"12": "first body", "34": "second body"})
    assert block == "ID 12\nfirst body\n\nID 34\nsecond body"


def test_chunks_block_rejects_duplicates_and_empty():
    with pytest.raises(EmptyRequiredError):
        render_chunks_block({})
    with pytest.raises(EmptyRequiredError):
        render_chunks_block({"1": "  "})


@pytest.mark.parametrize(
    "mode,wants_claim,wants_snippet",
    [
        (CitationMode.POST_FIX, False, False),
        (CitationMode.POST_FIX_SNIPPET, False, True),
        (CitationMode.INLINE, True, False),
        (CitationMode.INLINE_SNIPPET, True, True),
    ],
)
def test_rag_prompt_varies_with_mode(mode, wants_claim, wants_snippet):
    p = build_rag_cite_prompt({"7": "chunk body"}, "the answer", mode)
    assert "RETRIEVED CHUNKS" in p
    assert "LLM GENERATED ANSWER" in p
    assert "ID 7\nchunk body" in p
    assert "the answer" in p
    assert ('"claim"' in p) == wants_claim
    assert ('"snippet"' in p) == wants_snippet
    assert '"context_id"' in p
    assert p.rstrip().endswith("Response (JSON only):")


def test_pointwise_prompt_embeds_metric_and_slots():
    metric = metric_by_name("instruction-following")
    p = build_pointwise_prompt(metric, "question with context", "model answer")
    assert "question with context" in p
    assert "model answer" in p
    assert metric.description in p
    assert '"metriclabel"' in p and '"justification"' in p


def test_pairwise_prompt_shape():
    p = build_pairwise_prompt("write a poem", "poem one", "poem two")
    assert "# Instruction:" in p
    assert "# Output (a):" in p and "poem one" in p
    assert "# Output (b):" in p and "poem two" in p
    # the anti-position-bias instruction is part of the contract
    assert "order" in p.lower()
    assert p.index("poem one") < p.index("poem two")


def test_template_override_directory(tmp_path):
    (tmp_path / "pairwise.txt").write_text(
        "I={instruction} A={output_a} B={output_b} Answer:", encoding="utf-8"
    )
    templates = TemplateSet(str(tmp_path))
    p = build_pairwise_prompt("i", "a", "b", templates)
    assert p == "I=i A=a B=b Answer:"
    # files absent from the override dir fall back to the packaged set
    q = build_pointwise_prompt(metric_by_name("coherence"), "q", "a", templates)
    assert '"metriclabel"' in q


def test_template_unknown_slot_rejected(tmp_path):
    (tmp_path / "pairwise.txt").write_text("I={instruction} {mystery}", encoding="utf-8")
    templates = TemplateSet(str(tmp_path))
    with pytest.raises(TemplateError):
        build_pairwise_prompt("i", "a", "b", templates)


def test_all_packaged_templates_load():
    templates = TemplateSet()
    for template_id in TemplateId:
        if template_id is TemplateId.RAG_CITE:
            for mode in CitationMode:
                assert templates.text(template_id, mode).strip()
        else:
            assert templates.text(template_id).strip()


# A valid value for each field a template's reply example names; any other
# field gets plain text, so a renamed field reaches the parser under its new name.
FORMAT_VALUES = {"answer": "No", "metriclabel": "Yes", "context_id": "1"}
_PLACEHOLDER = re.compile(r'"(\w+)"\s*:\s*("?)<[^>]*>\2')


def _filled_reply_example(template: str) -> str:
    """The template's JSON reply example, each <placeholder> filled with a valid value."""
    lines = template.splitlines()
    start = lines.index("{")
    block = "\n".join(lines[start : lines.index("}", start) + 1])
    return _PLACEHOLDER.sub(
        lambda m: f'"{m.group(1)}": {json.dumps(FORMAT_VALUES.get(m.group(1), "Some text."))}', block
    )


REPLY_EXAMPLES = [(TemplateId.QUALITY_EVAL, None), (TemplateId.POINTWISE, None)]
REPLY_EXAMPLES += [(TemplateId.RAG_CITE, mode) for mode in CitationMode]


@pytest.mark.parametrize(
    "template_id, mode", REPLY_EXAMPLES, ids=[(mode or template_id).value for template_id, mode in REPLY_EXAMPLES]
)
def test_each_template_reply_example_parses_under_its_own_table(template_id, mode):
    parse = {TemplateId.QUALITY_EVAL: try_parse_quality_output, TemplateId.POINTWISE: try_parse_pointwise}.get(
        template_id, lambda raw: try_parse_rag_output(raw, mode)
    )
    reply = _filled_reply_example(TemplateSet().text(template_id, mode))
    assert "<" not in reply
    value, report = parse(reply)
    assert report.ok, report
    assert value is not None


@pytest.mark.parametrize("mode", list(CitationMode), ids=lambda mode: mode.value)
def test_a_rag_row_that_cites_no_chunk_needs_no_snippet_in_every_mode(mode):
    reply = json.loads(_filled_reply_example(TemplateSet().text(TemplateId.RAG_CITE, mode)))
    for row in reply["citations"]:
        row["context_id"] = NO_SUPPORT_ID
        row.pop("snippet", None)
    value, report = try_parse_rag_output(json.dumps(reply), mode)
    assert report.ok, report
    assert [entry.context_id for entry in value.citations] == [NO_SUPPORT_ID]
