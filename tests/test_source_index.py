"""SourceIndex against the per-char reference normalizer, and its reuse."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from rec_eval import MatchPolicy, SourceIndex, normalize, snap_to_sentences, verify, verify_snippet
from rec_eval.cli import main
from rec_eval.verify import _normalize_with_map

# Pieces the fast path must not get wrong: whitespace of several kinds,
# combining marks in and out of canonical order and right after whitespace,
# conjoining jamo and precomposed Hangul, singleton decompositions, CJK.
ALPHABET = [
    "a", "b", "e", "A", "x", ".", "?", "!", " ", "  ", "\t", "\n",
    "\u00a0", "\u3000", "\u2000",  # NBSP, ideographic space, EN QUAD (NFC: EN SPACE)
    "\u0301", "\u0300", "\u0316", "\u0327", "\u0344", "\u0301\u0316",  # marks, one pair out of order
    " \u0301", "e\u0301", "\u00e9", "d\u0307\u0323",  # mark after a space; decomposed, composed
    "\u0340", "\u212b", "\u00c5", "A\u030a", "\u2126",  # singleton decompositions and their targets
    "\u1100", "\u1161", "\u11a8", "\uac00", "\uac01", "\u1100\u1161",  # jamo and Hangul
    "\u6771", "\u4eac", "\u0b47", "\u0b3e",  # CJK; two starters that NFC joins
]

texts = st.one_of(
    st.lists(st.sampled_from(ALPHABET), max_size=30).map("".join),
    st.text(max_size=30),
)


def reference_match(snippet: str, body: str) -> tuple:
    """verify_snippet as it was before SourceIndex: renormalize per call."""
    norm, starts, ends = _normalize_with_map(body)
    target = _normalize_with_map(snippet)[0]
    idx = norm.find(target) if target else -1
    if idx < 0:
        return (False, None, 0)
    return (True, (starts[idx], ends[idx + len(target) - 1]), norm.count(target))


def as_tuple(result) -> tuple:
    return (result.found, result.char_span, result.occurrence_count)


@settings(max_examples=400, deadline=None)
@given(texts, texts, st.data())
def test_index_matches_the_per_char_reference(body, other, data):
    index = SourceIndex(body)
    assert index.body == body
    assert normalize(body) == index.norm == _normalize_with_map(body)[0]
    start = data.draw(st.integers(0, len(body)))
    stop = data.draw(st.integers(start, len(body)))
    for snippet in (body[start:stop], other):
        if snippet:
            expected = reference_match(snippet, body)
            assert as_tuple(verify_snippet(snippet, index)) == expected
            assert as_tuple(verify_snippet(snippet, body)) == expected


def test_known_spans_keep_whole_pieces():
    # A mark right after whitespace belongs to the whitespace's piece.
    assert verify_snippet("\u0301", "a \u0301").char_span == (1, 3)
    # Decomposed text maps back over the base char and all its marks.
    body = "cafe\u0301\u0316 ok"
    assert verify_snippet("caf\u00e9", body).char_span == (0, 6)
    # Conjoining jamo are not composed (known defect 3(d)).
    assert normalize("\u1100\u1161") == "\u1100\u1161"


def test_index_is_accepted_wherever_a_context_is():
    body = "First one.  Second  one here. Third."
    index = SourceIndex(body)
    assert SourceIndex.of(index) is index
    assert snap_to_sentences("Second one", index) == "Second  one here."
    strict = verify_snippet("Second  one", index, MatchPolicy.STRICT)
    assert strict.char_span == (12, 23)


def test_score_indexes_and_segments_each_context_once(tmp_path, monkeypatch, capsys):
    body = "The cat sat on the mat. The dog ran far away. Birds sang."
    preds = [
        {"metric": metric, "context_ref": "doc", "gold": ["The cat sat", "Birds sang"],
         "predicted_citations": ["cat sat on", "The dog ran", "nowhere to be seen"]}
        for metric in ("faithfulness", "coherence", "completeness")
    ]
    pred, ctx = tmp_path / "pred.jsonl", tmp_path / "ctx.jsonl"
    pred.write_text("".join(json.dumps(p) + "\n" for p in preds), encoding="utf-8")
    ctx.write_text(json.dumps({"context_id": "doc", "body": body}) + "\n", encoding="utf-8")

    built: list[str] = []
    segmented: list[str] = []
    init, segment = SourceIndex.__init__, verify.segment_sentences

    def counting_init(self, text):
        built.append(text)
        init(self, text)

    def counting_segment(text):
        segmented.append(text)
        return segment(text)

    monkeypatch.setattr(SourceIndex, "__init__", counting_init)
    monkeypatch.setattr(verify, "segment_sentences", counting_segment)
    assert main(["score", "--pred", str(pred), "--contexts", str(ctx)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [m["citation_prf"]["n_scored"] for m in report["per_metric"].values()] == [1, 1, 1]
    assert built.count(body) == 1
    assert segmented == [body]
