"""Scoring: citation precision/recall/F1, rating accuracy, pairwise verdicts.

Citation comparison always happens on whole sentences: both sides are
snapped to full context sentences and deduplicated under normalized
equality before set arithmetic, so a substring citation and its containing
sentence count as the same thing.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Sequence

from .errors import EmptyInputError, HaluGoldError, LengthMismatchError, SnippetNotFoundError
from .model import CitationSnippet, ContextDocument, Verdict
from .verify import MatchPolicy, SourceIndex, normalize, snap_to_sentences


class PRF(NamedTuple):
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "PRF":
        """Counts to scores, with the empty-side conventions.

        An empty denominator scores 1.0 only when everything is empty
        (predicting nothing against empty gold is exactly right) and 0.0
        otherwise; F1 is 0.0 whenever precision + recall is 0.
        """
        if tp + fp == 0:
            precision = 1.0 if fn == 0 else 0.0
        else:
            precision = tp / (tp + fp)
        if tp + fn == 0:
            recall = 1.0 if fp == 0 else 0.0
        else:
            recall = tp / (tp + fn)
        f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
        return cls(precision=precision, recall=recall, f1=f1, tp=tp, fp=fp, fn=fn)


class GoldCitationSet(NamedTuple):
    """Annotator-agreed citations, or a hallucination marker with none."""

    snippets: frozenset[str]
    halu: bool = False


def _snap_key(snippet: str, context: SourceIndex, policy: MatchPolicy) -> str:
    """Dedup/set key: the normalized full-sentence form of a snippet.

    A snippet that cannot be located keeps its own normalized text as the
    key rather than failing the whole comparison.
    """
    try:
        return normalize(snap_to_sentences(snippet, context, policy))
    except SnippetNotFoundError:
        return normalize(snippet)


def citation_prf(
    predicted: Sequence[CitationSnippet | str],
    gold: GoldCitationSet,
    context: str | ContextDocument | SourceIndex,
    policy: MatchPolicy = MatchPolicy.NORMALIZED,
) -> PRF:
    """Sentence-level precision/recall/F1 of predicted citations against gold.

    Raises HaluGoldError for hallucination-marked gold: those items are
    excluded upstream, never scored. Pass a SourceIndex to score many items
    against one context without renormalizing it.
    """
    if gold.halu:
        raise HaluGoldError("gold set is hallucination-marked; item must be excluded, not scored")
    context = SourceIndex.of(context)
    pred_keys = {
        _snap_key(p.snippet if isinstance(p, CitationSnippet) else p, context, policy)
        for p in predicted
    }
    pred_keys.discard("")
    gold_keys = {_snap_key(g, context, policy) for g in gold.snippets}
    gold_keys.discard("")
    tp = len(pred_keys & gold_keys)
    return PRF.from_counts(tp=tp, fp=len(pred_keys - gold_keys), fn=len(gold_keys - pred_keys))


def gold_intersection(a: GoldCitationSet, b: GoldCitationSet) -> GoldCitationSet:
    """Snippets both annotators kept, compared under normalized equality.

    Surface forms come from the first set. A hallucination marker on either
    side wins: the intersection is then empty and hallucination-marked too.
    """
    if a.halu or b.halu:
        return GoldCitationSet(frozenset(), halu=True)
    b_norms = {normalize(s) for s in b.snippets}
    kept = [s for s in a.snippets if normalize(s) in b_norms]
    return GoldCitationSet(frozenset(kept))


def _label_key(value: object) -> object:
    return value.strip().casefold() if isinstance(value, str) else value


def binary_accuracy(preds: Sequence[object], golds: Sequence[object]) -> float:
    """Fraction of positions where the labels agree (case-insensitive for strings)."""
    if len(preds) != len(golds):
        raise LengthMismatchError(f"{len(preds)} predictions vs {len(golds)} golds")
    if not preds:
        raise EmptyInputError("no labels to compare")
    hits = sum(1 for p, g in zip(preds, golds) if _label_key(p) == _label_key(g))
    return hits / len(preds)


_BRACKET_CUE = re.compile(r"\[\[([AB])\]\]", re.IGNORECASE)
_OUTPUT_CUE = re.compile(r"output\s*\(([ab])\)", re.IGNORECASE)


def parse_pairwise_verdict(judge_text: str) -> Verdict:
    """Extract the judged side from free-form judge text.

    Terminal bracket verdicts ([[A]]/[[B]]) outrank "Output (x)" mentions,
    since explanations routinely name both outputs before concluding; among
    brackets the last occurrence wins. Without brackets, the text must name
    exactly one side or it is Unparseable.
    """
    brackets = _BRACKET_CUE.findall(judge_text)
    if brackets:
        return Verdict.A if brackets[-1].upper() == "A" else Verdict.B
    sides = {m.upper() for m in _OUTPUT_CUE.findall(judge_text)}
    if sides == {"A"}:
        return Verdict.A
    if sides == {"B"}:
        return Verdict.B
    return Verdict.UNPARSEABLE


def win_rate(
    verdicts: Sequence[Verdict],
    chosen_is: Sequence[Verdict | str],
) -> float:
    """Fraction of verdicts that picked the ground-truth side.

    Unparseable verdicts count as losses: a judge that cannot be parsed did
    not pick the right answer.
    """
    if len(verdicts) != len(chosen_is):
        raise LengthMismatchError(f"{len(verdicts)} verdicts vs {len(chosen_is)} truths")
    if not verdicts:
        raise EmptyInputError("no verdicts")
    hits = sum(1 for verdict, truth in zip(verdicts, chosen_is) if verdict is Verdict(truth))
    return hits / len(verdicts)


class OrderBiasResult(NamedTuple):
    rate: float
    pairs_counted: int
    pairs_excluded: int

    def to_json_value(self) -> dict:
        return self._asdict()


def order_bias(pairs: Iterable[tuple[Verdict, Verdict]]) -> OrderBiasResult:
    """How often both presentation orders of a pair picked the same position.

    Verdicts are position labels, so a judge that follows content flips its
    letter when the order flips (rate 0.0) and a judge that follows position
    repeats it (rate 1.0). Pairs with an Unparseable side are excluded from
    the denominator and counted separately.
    """
    counted = 0
    excluded = 0
    same_position = 0
    for v_ab, v_ba in pairs:
        if Verdict.UNPARSEABLE in (v_ab, v_ba):
            excluded += 1
            continue
        counted += 1
        if v_ab is v_ba:
            same_position += 1
    if counted == 0:
        raise EmptyInputError("no fully parseable order pairs")
    return OrderBiasResult(
        rate=same_position / counted, pairs_counted=counted, pairs_excluded=excluded
    )
