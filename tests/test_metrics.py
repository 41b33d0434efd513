import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rec_eval import (
    EmptyInputError,
    GoldCitationSet,
    HaluGoldError,
    LengthMismatchError,
    PRF,
    PairwiseJudgment,
    Verdict,
    binary_accuracy,
    citation_prf,
    gold_intersection,
    order_bias,
    parse_pairwise_verdict,
    win_rate,
)


def test_prf_worked_example():
    prf = PRF.from_counts(tp=2, fp=1, fn=0)
    assert abs(prf.precision - 2 / 3) < 1e-12
    assert abs(prf.recall - 1.0) < 1e-12
    assert abs(prf.f1 - 0.8) < 1e-12


def test_prf_empty_both_sides_is_perfect():
    prf = PRF.from_counts(tp=0, fp=0, fn=0)
    assert (prf.precision, prf.recall, prf.f1) == (1.0, 1.0, 1.0)


def test_prf_zero_denominator_conventions():
    # an empty side is perfect only when the other side is empty too
    only_fn = PRF.from_counts(tp=0, fp=0, fn=3)
    assert only_fn.precision == 0.0
    assert only_fn.recall == 0.0
    assert only_fn.f1 == 0.0
    only_fp = PRF.from_counts(tp=0, fp=2, fn=0)
    assert only_fp.precision == 0.0
    assert only_fp.recall == 0.0
    assert only_fp.f1 == 0.0


CTX = "The cat sat on the mat. The dog ran far away. Birds fly south in winter."


def test_citation_prf_exact_sets():
    gold = GoldCitationSet(frozenset({"The cat sat on the mat.", "The dog ran far away."}))
    prf = citation_prf(["The cat sat on the mat.", "The dog ran far away."], gold, CTX)
    assert (prf.precision, prf.recall, prf.f1) == (1.0, 1.0, 1.0)


def test_citation_prf_snaps_fragments_to_sentences():
    gold = GoldCitationSet(frozenset({"The dog ran far away."}))
    prf = citation_prf(["dog ran far"], gold, CTX)
    assert (prf.precision, prf.recall, prf.f1) == (1.0, 1.0, 1.0)


def test_citation_prf_counts_false_positives_and_negatives():
    gold = GoldCitationSet(
        frozenset({"The cat sat on the mat.", "Birds fly south in winter."})
    )
    prf = citation_prf(["The cat sat on the mat.", "The dog ran far away."], gold, CTX)
    assert abs(prf.precision - 0.5) < 1e-12
    assert abs(prf.recall - 0.5) < 1e-12
    assert abs(prf.f1 - 0.5) < 1e-12


def test_citation_prf_dedups_normalized_variants():
    gold = GoldCitationSet(frozenset({"The cat sat on the mat."}))
    prf = citation_prf(
        ["The cat sat on the mat.", "The cat  sat on the mat.", "cat sat"], gold, CTX
    )
    assert (prf.precision, prf.recall, prf.f1) == (1.0, 1.0, 1.0)


def test_citation_prf_unmatchable_gold_falls_back_to_raw_key():
    gold = GoldCitationSet(frozenset({"Totally absent sentence."}))
    prf = citation_prf(["The cat sat on the mat."], gold, CTX)
    assert prf.tp == 0 and prf.fp == 1 and prf.fn == 1


def test_citation_prf_rejects_halu_gold():
    with pytest.raises(HaluGoldError):
        citation_prf(["x"], GoldCitationSet(frozenset(), halu=True), CTX)


def test_gold_intersection_surfaces_and_halu():
    a = GoldCitationSet(frozenset({"The cat  sat on the mat.", "The dog ran far away."}))
    b = GoldCitationSet(frozenset({"The cat sat on the mat."}))
    merged = gold_intersection(a, b)
    assert merged.snippets == frozenset({"The cat  sat on the mat."})
    assert not merged.halu
    halu = gold_intersection(a, GoldCitationSet(frozenset(), halu=True))
    assert halu.halu and halu.snippets == frozenset()


def test_binary_accuracy_and_agreement():
    assert binary_accuracy(["Yes", "no", "Yes"], ["yes", "No", "no"]) == pytest.approx(2 / 3)
    with pytest.raises(LengthMismatchError):
        binary_accuracy(["Yes"], ["Yes", "No"])
    with pytest.raises(EmptyInputError):
        binary_accuracy([], [])


@pytest.mark.parametrize(
    "reply,expected",
    [
        ("[[A]]", Verdict.A),
        ("[[b]]", Verdict.B),
        ("I prefer [[A]] though [[B]] is close", Verdict.B),  # last bracket wins
        ("Output (a)", Verdict.A),
        ("output (B) is better", Verdict.B),
        ("Output (a) and Output (b) are equal", Verdict.UNPARSEABLE),
        ("Both are great", Verdict.UNPARSEABLE),
        ("", Verdict.UNPARSEABLE),
        ("Output (a) is weaker, so [[B]]", Verdict.B),  # brackets outrank mentions
        ('The better response is "Output (b)".', Verdict.B),
    ],
)
def test_parse_pairwise_verdict(reply, expected):
    assert parse_pairwise_verdict(reply) is expected


def _judgment(verdict):
    return PairwiseJudgment(
        instruction="i", response_a="a", response_b="b", verdict=verdict
    )


def test_win_rate_counts_unparseable_as_loss():
    judgments = [_judgment(Verdict.A), _judgment(Verdict.B), _judgment(Verdict.UNPARSEABLE)]
    truths = [Verdict.A, Verdict.A, Verdict.A]
    assert win_rate(judgments, truths) == pytest.approx(1 / 3)


def test_win_rate_accepts_verdict_lists():
    assert win_rate([_judgment(Verdict.B)], ["B"]) == 1.0
    with pytest.raises(LengthMismatchError):
        win_rate([_judgment(Verdict.A)], [])


def test_order_bias_extremes():
    always_first = [(Verdict.A, Verdict.A)] * 10
    assert order_bias(always_first).rate == 1.0
    content_driven = [(Verdict.A, Verdict.B)] * 10
    assert order_bias(content_driven).rate == 0.0


def test_order_bias_excludes_unparseable_pairs():
    pairs = [
        (Verdict.A, Verdict.A),
        (Verdict.UNPARSEABLE, Verdict.B),
        (Verdict.B, Verdict.A),
    ]
    result = order_bias(pairs)
    assert result.pairs_counted == 2
    assert result.pairs_excluded == 1
    assert result.rate == 0.5


def test_order_bias_needs_at_least_one_usable_pair():
    with pytest.raises(EmptyInputError):
        order_bias([(Verdict.UNPARSEABLE, Verdict.A)])


# Independent re-implementation used to cross-check citation_prf: match by
# case-preserving whitespace-collapsed keys after expanding each snippet to
# full sentences by scanning the context directly.
def _oracle_prf(predicted, gold_snippets, context):
    import re

    def norm(s):
        return " ".join(s.split())

    def sentences():
        parts = []
        for line in context.split("\n"):
            for m in re.finditer(r"[^.?!]*[.?!]+(?=\s|$)|[^.?!]+$", line):
                if m.group().strip():
                    parts.append((m.start(), m.end(), m.group().strip()))
        return parts

    def expand(snippet):
        n = norm(snippet)
        if not n:
            return None
        # locate via normalized scan over every start offset
        target = None
        for i in range(len(context)):
            window = context[i : i + 4 * len(snippet) + 8]
            for j in range(len(window), 0, -1):
                if norm(window[:j]) == n:
                    target = (i, i + j)
                    break
            if target:
                break
        if target is None:
            return norm(snippet)
        s, e = target
        covering = [c for c in sentences() if c[0] < e and c[1] > s]
        if not covering:
            return norm(context[s:e])
        return norm(context[covering[0][0] : covering[-1][1]])

    pred_keys = {k for k in (expand(p) for p in predicted) if k}
    gold_keys = {k for k in (expand(g) for g in gold_snippets) if k}
    tp = len(pred_keys & gold_keys)
    fp = len(pred_keys - gold_keys)
    fn = len(gold_keys - pred_keys)
    precision = tp / (tp + fp) if (tp + fp) else (1.0 if not fn else 0.0)
    recall = tp / (tp + fn) if (tp + fn) else (1.0 if not fp else 0.0)
    f1 = (
        2 * precision * recall / (precision + recall)
        if (precision + recall)
        else 0.0
    )
    return precision, recall, f1


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_property_citation_prf_matches_oracle(data):
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    n_sent = data.draw(st.integers(2, 6))
    sentences = []
    for i in range(n_sent):
        k = data.draw(st.integers(1, 4))
        body = " ".join(data.draw(st.sampled_from(words)) for _ in range(k))
        sentences.append(f"{body} s{i}.")
    context = " ".join(sentences)
    pred = data.draw(st.lists(st.sampled_from(sentences), max_size=4))
    gold = frozenset(data.draw(st.lists(st.sampled_from(sentences), max_size=4)))
    ours = citation_prf(pred, GoldCitationSet(gold), context)
    oracle = _oracle_prf(pred, gold, context)
    assert ours.precision == pytest.approx(oracle[0], abs=1e-12)
    assert ours.recall == pytest.approx(oracle[1], abs=1e-12)
    assert ours.f1 == pytest.approx(oracle[2], abs=1e-12)
