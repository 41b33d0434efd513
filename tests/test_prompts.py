import pytest

from rec_eval import (
    CitationMode,
    ContextDocument,
    DuplicateContextIdError,
    EmptyRequiredError,
    SourceKind,
    TemplateError,
    TemplateSet,
    build_pairwise_prompt,
    build_pointwise_prompt,
    build_quality_prompt,
    build_rag_cite_prompt,
    metric_by_name,
    metric_catalog,
    render_chunks_block,
)
from rec_eval.prompts import TemplateId


def _chunk(cid, body):
    return ContextDocument(body=body, context_id=cid, source_kind=SourceKind.RETRIEVED_CHUNK)


def test_quality_prompt_embeds_inputs_and_metric():
    metric = metric_by_name("completeness")
    p = build_quality_prompt(metric, "TASK TEXT HERE", "GENERATION TEXT HERE")
    assert "TASK TEXT HERE" in p.text
    assert "GENERATION TEXT HERE" in p.text
    assert "Completeness (Yes/No)" in p.text
    assert metric.description in p.text
    assert p.text.count("[BEGIN DATA]") == 1
    assert p.text.rstrip().endswith("### Response(JSON only):")


def test_quality_prompt_mentions_output_contract():
    p = build_quality_prompt(metric_by_name("f"), "t", "g")
    for cue in ('"answer"', '"feedback"', '"statements"', '"statement_string"', '"citations"'):
        assert cue in p.text


def test_quality_prompt_no_leftover_slots():
    p = build_quality_prompt(metric_by_name("coherence"), "task", "gen")
    assert "{metric_name}" not in p.text
    assert "{task_prompt}" not in p.text
    assert "{generation}" not in p.text


def test_quality_prompt_inputs_with_braces_survive():
    # JSON-looking inputs must not be re-expanded as template slots
    task = 'Return {"answer": "{metric_name}"} exactly.'
    p = build_quality_prompt(metric_by_name("f"), task, "gen {x}")
    assert task in p.text
    assert "gen {x}" in p.text


def test_quality_prompt_rejects_empty_inputs():
    with pytest.raises(EmptyRequiredError):
        build_quality_prompt(metric_by_name("f"), "", "gen")
    with pytest.raises(EmptyRequiredError):
        build_quality_prompt(metric_by_name("f"), "task", "   ")


def test_chunks_block_layout():
    block = render_chunks_block([_chunk("12", "first body"), _chunk("34", "second body")])
    assert block == "ID 12\nfirst body\n\nID 34\nsecond body"


def test_chunks_block_rejects_duplicates_and_empty():
    with pytest.raises(DuplicateContextIdError):
        render_chunks_block([_chunk("1", "a"), _chunk("1", "b")])
    with pytest.raises(EmptyRequiredError):
        render_chunks_block([])
    with pytest.raises(EmptyRequiredError):
        render_chunks_block([_chunk("1", "  ")])


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
    p = build_rag_cite_prompt([_chunk("7", "chunk body")], "the answer", mode)
    assert "RETRIEVED CHUNKS" in p.text
    assert "LLM GENERATED ANSWER" in p.text
    assert "ID 7\nchunk body" in p.text
    assert "the answer" in p.text
    assert ('"claim"' in p.text) == wants_claim
    assert ('"snippet"' in p.text) == wants_snippet
    assert '"context_id"' in p.text
    assert p.text.rstrip().endswith("Response (JSON only):")


def test_pointwise_prompt_embeds_metric_and_slots():
    metric = metric_by_name("instruction-following")
    p = build_pointwise_prompt(metric, "question with context", "model answer")
    assert "question with context" in p.text
    assert "model answer" in p.text
    assert metric.description in p.text
    assert '"metriclabel"' in p.text and '"justification"' in p.text


def test_pairwise_prompt_shape():
    p = build_pairwise_prompt("write a poem", "poem one", "poem two")
    assert "# Instruction:" in p.text
    assert "# Output (a):" in p.text and "poem one" in p.text
    assert "# Output (b):" in p.text and "poem two" in p.text
    # the anti-position-bias instruction is part of the contract
    assert "order" in p.text.lower()
    assert p.text.index("poem one") < p.text.index("poem two")


def test_template_override_directory(tmp_path):
    (tmp_path / "pairwise.txt").write_text(
        "I={instruction} A={output_a} B={output_b} Answer:", encoding="utf-8"
    )
    templates = TemplateSet(str(tmp_path))
    p = build_pairwise_prompt("i", "a", "b", templates)
    assert p.text == "I=i A=a B=b Answer:"
    # files absent from the override dir fall back to the packaged set
    q = build_pointwise_prompt(metric_by_name("coherence"), "q", "a", templates)
    assert '"metriclabel"' in q.text


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


def test_prompt_records_slots_filled():
    p = build_pairwise_prompt("i", "a", "b")
    assert p.slots_filled == {"instruction": "i", "output_a": "a", "output_b": "b"}
