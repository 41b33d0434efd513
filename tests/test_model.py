import pytest

from rec_eval import (
    NO_SUPPORT_ID,
    CitationMode,
    CitationSnippet,
    EvaluationMetric,
    MetricName,
    QualityEvalOutput,
    RagCitationEntry,
    RagCitationOutput,
    Statement,
    metric_by_name,
    metric_catalog,
    parse_citation_mode,
)


def test_catalog_has_four_metrics_in_canonical_order():
    names = [m.name for m in metric_catalog()]
    assert names == [
        MetricName.FAITHFULNESS,
        MetricName.INSTRUCTION_FOLLOWING,
        MetricName.COHERENCE,
        MetricName.COMPLETENESS,
    ]


def test_catalog_metrics_are_yes_no_scaled_and_described():
    for metric in metric_catalog():
        assert metric.scale == "Yes/No"
        assert metric.description.strip()


def test_faithfulness_description_matches_prompt_wording():
    faithfulness = metric_by_name("faithfulness")
    assert faithfulness.description == (
        "The generated answer only contains truthful content, and does not "
        "contain invented or misleading facts that are not supported by the "
        "context."
    )


@pytest.mark.parametrize(
    "alias,expected",
    [
        ("f", MetricName.FAITHFULNESS),
        ("if", MetricName.INSTRUCTION_FOLLOWING),
        ("instruction-following", MetricName.INSTRUCTION_FOLLOWING),
        ("Instruction Following", MetricName.INSTRUCTION_FOLLOWING),
        ("coh", MetricName.COHERENCE),
        ("COMPLETENESS", MetricName.COMPLETENESS),
    ],
)
def test_metric_lookup_aliases(alias, expected):
    assert metric_by_name(alias).name is expected


def test_metric_lookup_rejects_unknown():
    with pytest.raises(KeyError):
        metric_by_name("speed")


@pytest.mark.parametrize(
    "text,expected",
    [
        ("postfix", CitationMode.POST_FIX),
        ("post-fix", CitationMode.POST_FIX),
        ("inline", CitationMode.INLINE),
        ("postfix-snippet", CitationMode.POST_FIX_SNIPPET),
        ("post-fix with context snippet", CitationMode.POST_FIX_SNIPPET),
        ("inline-snippet", CitationMode.INLINE_SNIPPET),
        ("inline with context snippet", CitationMode.INLINE_SNIPPET),
    ],
)
def test_mode_aliases(text, expected):
    assert parse_citation_mode(text) is expected


def test_mode_flags():
    assert not CitationMode.POST_FIX.wants_claim
    assert not CitationMode.POST_FIX.wants_snippet
    assert CitationMode.INLINE.wants_claim
    assert CitationMode.POST_FIX_SNIPPET.wants_snippet
    assert CitationMode.INLINE_SNIPPET.wants_claim
    assert CitationMode.INLINE_SNIPPET.wants_snippet
    # content-quality output always quotes snippets
    assert CitationMode.POST_FIX_SNIPPET.valid_for_quality
    assert CitationMode.INLINE_SNIPPET.valid_for_quality
    assert not CitationMode.POST_FIX.valid_for_quality
    assert not CitationMode.INLINE.valid_for_quality


def _statement(*citations):
    return Statement(
        statement_string="ok",
        citations=tuple(CitationSnippet(snippet=c) for c in citations),
    )


def test_all_snippets_flattens_in_order():
    out = QualityEvalOutput(
        answer="No",
        feedback="bad",
        statements=(_statement("one", "two"), _statement("three")),
    )
    assert [s.snippet for s in out.all_snippets()] == ["one", "two", "three"]


def test_rag_output_cited_ids_order_and_dedup():
    out = RagCitationOutput(
        citations=(
            RagCitationEntry(context_id="2"),
            RagCitationEntry(context_id=NO_SUPPORT_ID),
            RagCitationEntry(context_id="1"),
            RagCitationEntry(context_id="2"),
        ),
        mode=CitationMode.POST_FIX,
    )
    assert out.cited_ids() == ("2", "1")


def test_frozen_dataclasses():
    metric = EvaluationMetric(name=MetricName.COHERENCE, description="d")
    with pytest.raises(AttributeError):
        metric.description = "other"
