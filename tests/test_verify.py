import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rec_eval import (
    CitationMode,
    MatchPolicy,
    SnippetNotFoundError,
    UnknownContextIdError,
    normalize,
    parse_match_policy,
    parse_quality_output,
    parse_rag_output,
    segment_sentences,
    snap_to_sentences,
    verify_quality_output,
    verify_rag_output,
    verify_snippet,
)


def test_policy_parsing():
    assert parse_match_policy("strict") is MatchPolicy.STRICT
    assert parse_match_policy("Normalized") is MatchPolicy.NORMALIZED
    with pytest.raises(KeyError):
        parse_match_policy("fuzzy")


def test_strict_exact_substring():
    res = verify_snippet("bc", "abcd", MatchPolicy.STRICT)
    assert res.found and res.char_span == (1, 3) and res.occurrence_count == 1


def test_strict_is_case_and_space_sensitive():
    assert not verify_snippet("b c", "abcd", MatchPolicy.STRICT).found
    assert not verify_snippet("BC", "abcd", MatchPolicy.STRICT).found


def test_empty_snippet_rejected():
    with pytest.raises(ValueError):
        verify_snippet("", "abc")


def test_whitespace_only_snippet_not_found_normalized():
    res = verify_snippet("   \t", "a   b", MatchPolicy.NORMALIZED)
    assert not res.found


def test_normalized_collapses_whitespace_runs():
    ctx = "alpha  beta\n\tgamma"
    res = verify_snippet("alpha beta gamma", ctx, MatchPolicy.NORMALIZED)
    assert res.found
    assert ctx[res.char_span[0] : res.char_span[1]] == ctx


def test_normalized_span_maps_back_to_source():
    ctx = "pad   the   quick   fox   pad"
    res = verify_snippet("the quick fox", ctx, MatchPolicy.NORMALIZED)
    assert res.found
    start, end = res.char_span
    assert ctx[start:end] == "the   quick   fox"


def test_normalized_nfc_composition():
    # decomposed e + combining acute matches the precomposed form
    ctx = "café open late"
    res = verify_snippet("café", ctx, MatchPolicy.NORMALIZED)
    assert res.found
    start, end = res.char_span
    assert unicodedata.normalize("NFC", ctx[start:end]) == "café"


def test_strict_misses_what_normalized_finds():
    ctx = "one  two"
    assert not verify_snippet("one two", ctx, MatchPolicy.STRICT).found
    assert verify_snippet("one two", ctx, MatchPolicy.NORMALIZED).found


def test_first_occurrence_wins_and_count_is_non_overlapping():
    res = verify_snippet("aba", "abababa", MatchPolicy.STRICT)
    assert res.char_span == (0, 3)
    assert res.occurrence_count == 2  # non-overlapping: 0..3 and 4..7
    res2 = verify_snippet("ab", "ab ab ab", MatchPolicy.NORMALIZED)
    assert res2.char_span == (0, 2) and res2.occurrence_count == 3


def test_leading_trailing_whitespace_in_snippet_tolerated_normalized():
    assert verify_snippet("  fox  ", "the fox ran", MatchPolicy.NORMALIZED).found
    assert not verify_snippet("  fox  ", "the fox ran", MatchPolicy.STRICT).found


def test_normalize_function_matches_policy():
    assert normalize("  aé   b\t") == "aé b"


def test_verify_quality_output_flattens_citations(summary_context, summary_reply_raw):
    out = parse_quality_output(summary_reply_raw)
    report = verify_quality_output(out, summary_context)
    assert report.ok
    assert report.all_citations_verbatim
    assert len(report.per_citation) == 5
    for check in report.per_citation:
        start, end = check.result.char_span
        assert summary_context[start:end] == check.snippet
    # statement extractiveness vs feedback is informational and true here
    assert report.statements_extractive


def test_verify_quality_reports_bad_citation(summary_context, summary_reply_raw):
    out = parse_quality_output(
        summary_reply_raw.replace("gift wrapped?", "gift wrapped!?")
    )
    report = verify_quality_output(out, summary_context)
    assert not report.ok
    assert sum(1 for c in report.per_citation if not c.result.found) == 1


def test_verify_rag_checks_snippets_claims_and_ids(photo_chunks, photo_answer):
    raw = (
        '{"citations": [{"context_id": "1233", '
        '"claim": "Photosynthesis is a process that converts carbon dioxide and '
        'water into glucose and oxygen using sunlight and chlorophyll.", '
        '"snippet": "facilitated by chlorophyll"}]}'
    )
    out = parse_rag_output(raw, CitationMode.INLINE_SNIPPET)
    report = verify_rag_output(out, photo_chunks, photo_answer)
    assert report.ok and report.claims_verbatim


def test_verify_rag_unknown_id_raises(photo_chunks, photo_answer):
    out = parse_rag_output(
        '{"citations": [{"context_id": "9999"}]}', CitationMode.POST_FIX
    )
    with pytest.raises(UnknownContextIdError):
        verify_rag_output(out, photo_chunks, photo_answer)


def test_verify_rag_none_id_skips_snippet_check(photo_chunks, photo_answer):
    out = parse_rag_output(
        '{"citations": [{"context_id": "None", "claim": "This process occurs in '
        'green plants and certain other organisms."}]}',
        CitationMode.INLINE_SNIPPET,
    )
    report = verify_rag_output(out, photo_chunks, photo_answer)
    assert report.ok
    assert report.per_citation == ()


def test_verify_rag_claim_mismatch_fails(photo_chunks, photo_answer):
    out = parse_rag_output(
        '{"citations": [{"context_id": "1233", "claim": "Plants sleep at night."}]}',
        CitationMode.INLINE,
    )
    report = verify_rag_output(out, photo_chunks, photo_answer)
    assert report.claims_verbatim is False
    assert not report.ok


def test_segment_sentences_basic():
    text = "One. Two! Three? Done"
    pieces = segment_sentences(text)
    assert [sent for sent, _ in pieces] == ["One.", "Two!", "Three?", "Done"]
    for sent, (a, b) in pieces:
        assert text[a:b] == sent


def test_segment_sentences_terminal_runs_and_newlines():
    text = "Wait... what?!\nNew line here\nLast"
    pieces = segment_sentences(text)
    assert [sent for sent, _ in pieces] == [
        "Wait...",
        "what?!",
        "New line here",
        "Last",
    ]


def test_segment_sentences_known_abbreviation_limitation():
    # Abbreviations split; the rule is terminal punctuation plus whitespace.
    text = "Dr. Smith arrived. He left."
    pieces = segment_sentences(text)
    assert [sent for sent, _ in pieces] == ["Dr.", "Smith arrived.", "He left."]


def test_segment_sentences_spans_are_trimmed():
    text = "  padded.   next  "
    for sent, (a, b) in segment_sentences(text):
        assert text[a:b] == sent == sent.strip()


def test_snap_expands_partial_sentence():
    ctx = "The cat sat. The dog ran fast. Birds fly south."
    assert snap_to_sentences("dog ran", ctx) == "The dog ran fast."


def test_snap_covers_multi_sentence_region():
    ctx = "The cat sat. The dog ran fast. Birds fly south."
    assert snap_to_sentences("sat. The dog", ctx) == "The cat sat. The dog ran fast."


def test_snap_is_idempotent():
    ctx = "The cat sat. The dog ran fast. Birds fly south."
    once = snap_to_sentences("dog ran", ctx)
    assert snap_to_sentences(once, ctx) == once


def test_snap_missing_snippet_raises():
    with pytest.raises(SnippetNotFoundError):
        snap_to_sentences("unicorns", "The cat sat.")


def test_snap_normalized_whitespace_still_snaps():
    ctx = "The cat   sat.  The dog ran."
    assert snap_to_sentences("cat sat", ctx) == "The cat   sat."


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_property_random_substrings_always_verify(data):
    ctx = data.draw(
        st.text(
            alphabet=st.characters(blacklist_categories=("Cs",)),
            min_size=1,
            max_size=120,
        )
    )
    start = data.draw(st.integers(0, len(ctx) - 1))
    end = data.draw(st.integers(start + 1, len(ctx)))
    snippet = ctx[start:end]
    assert verify_snippet(snippet, ctx, MatchPolicy.STRICT).found
    if snippet.strip():
        res = verify_snippet(snippet, ctx, MatchPolicy.NORMALIZED)
        assert res.found, (snippet, ctx)


@settings(max_examples=120, deadline=None)
@given(st.text(min_size=0, max_size=200))
def test_property_segmentation_partitions_content(text):
    pieces = segment_sentences(text)
    # spans are ordered, non-overlapping, trimmed, and cover all non-space text
    prev_end = 0
    covered = []
    for sent, (a, b) in pieces:
        assert 0 <= a < b <= len(text)
        assert a >= prev_end
        assert text[a:b] == sent == sent.strip()
        prev_end = b
        covered.append((a, b))
    outside = "".join(
        ch
        for i, ch in enumerate(text)
        if not any(a <= i < b for a, b in covered)
    )
    assert outside.strip() == ""
