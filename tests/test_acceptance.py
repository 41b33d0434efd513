"""Acceptance gate: six criteria, one PASS/FAIL line each.

The verdict lines are collected in conftest.ACCEPTANCE_LINES and echoed in
the terminal summary so they survive output capture. Every criterion runs
offline against the scripted mock backend only.
"""

import json
import random
import time
import unicodedata
from contextlib import contextmanager

import conftest

from rec_eval import (
    PRF,
    CitationMode,
    CompletionRequest,
    FilterStatus,
    Gateway,
    GoldCitationSet,
    MatchPolicy,
    MockBackend,
    PipelineConfig,
    SourceRecord,
    TaskType,
    Verdict,
    build_pairwise_prompt,
    citation_prf,
    filter_one,
    generate,
    metric_by_name,
    order_bias,
    parse_pairwise_verdict,
    parse_quality_output,
    parse_rag_output,
    render_quality,
    script_responder,
    serialize_canonical,
    verify_snippet,
    win_rate,
)
from conftest import fixture_text


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        conftest.ACCEPTANCE_LINES.append(f"FAIL  {name}")
        raise
    conftest.ACCEPTANCE_LINES.append(f"PASS  {name}")


def _ws(text):
    return " ".join(text.split())


def test_criterion_1_golden_fixtures():
    """Fixture replies parse into the documented structures and render to the
    golden postfix/inline texts; exact after whitespace normalization, < 1 s."""
    t0 = time.perf_counter()
    with criterion("1 golden fixtures parse and render"):
        reply = parse_quality_output(fixture_text("summary_eval_reply.json"))
        assert reply.answer == "Yes"
        assert len(reply.statements) == 2
        assert [len(st.citations) for st in reply.statements] == [3, 2]

        postfix_cite = parse_rag_output(
            fixture_text("cite_postfix.json"), CitationMode.POST_FIX
        )
        assert len(postfix_cite.citations) == 1
        entry = postfix_cite.citations[0]
        assert entry.context_id == "1233"
        assert entry.claim is None and entry.snippet is None

        full_cite = parse_rag_output(
            fixture_text("cite_inline_snippet.json"), CitationMode.INLINE_SNIPPET
        )
        full = full_cite.citations[0]
        assert full.context_id == "1233"
        assert full.claim.startswith("Photosynthesis is a process")
        assert full.snippet.endswith("facilitated by chlorophyll")

        rendered_postfix = render_quality(reply, CitationMode.POST_FIX_SNIPPET).as_text()
        assert _ws(rendered_postfix) == _ws(fixture_text("golden_postfix.txt"))
        rendered_inline = render_quality(reply, CitationMode.INLINE_SNIPPET).as_text()
        assert _ws(rendered_inline) == _ws(fixture_text("golden_inline.txt"))
        # stricter than required: byte-exact, modulo the files' trailing newline
        assert rendered_postfix == fixture_text("golden_postfix.txt").rstrip("\n")
        assert rendered_inline == fixture_text("golden_inline.txt").rstrip("\n")

        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def _fixture_snippet_pairs():
    reply = json.loads(fixture_text("summary_eval_reply.json"))
    context = fixture_text("summary_context.txt")
    pairs = [
        (cite, context)
        for st in reply["statements"]
        for cite in st["citations"]
    ]
    chunks = {c["context_id"]: c["body"] for c in json.loads(fixture_text("photosynthesis_chunks.json"))}
    rag = json.loads(fixture_text("cite_inline_snippet.json"))["citations"][0]
    pairs.append((rag["snippet"], chunks[rag["context_id"]]))
    pairs.append((rag["claim"], fixture_text("photosynthesis_answer.txt")))
    return pairs


def test_criterion_2_verbatim_verification():
    """All fixture snippets verify; every single-word mutation fails both
    policies; 1,000 random substrings always verify; < 5 s."""
    t0 = time.perf_counter()
    with criterion("2 verbatim verification and mutations"):
        pairs = _fixture_snippet_pairs()
        assert len(pairs) == 7
        for snippet, context in pairs:
            assert verify_snippet(snippet, context, MatchPolicy.STRICT).found, snippet
            assert verify_snippet(snippet, context, MatchPolicy.NORMALIZED).found, snippet

        mutations = 0
        for snippet, context in pairs:
            words = snippet.split(" ")
            for i in range(len(words)):
                mutated = " ".join(words[:i] + ["qqqzz"] + words[i + 1 :])
                assert not verify_snippet(mutated, context, MatchPolicy.STRICT).found, mutated
                assert not verify_snippet(mutated, context, MatchPolicy.NORMALIZED).found, mutated
                mutations += 1
        assert mutations >= 60  # one per word of every fixture snippet

        rng = random.Random(20260818)
        # the corpus carries decomposed sequences (n + combining acute) so
        # NFC chunking is exercised; slices snap to grapheme boundaries since
        # a quote that splits a grapheme is not text anyone could have cited
        alphabet = "abc defg \n\thij.k?! lme\u0301n\u0301op "
        failures = 0
        for _ in range(1000):
            n = rng.randint(1, 160)
            context = "".join(rng.choice(alphabet) for _ in range(n))
            start = rng.randrange(n)
            end = rng.randint(start + 1, n)
            while start > 0 and unicodedata.combining(context[start]):
                start -= 1
            while end < n and unicodedata.combining(context[end]):
                end += 1
            snippet = context[start:end]
            if not verify_snippet(snippet, context, MatchPolicy.STRICT).found:
                failures += 1
            if snippet.strip():
                res = verify_snippet(snippet, context, MatchPolicy.NORMALIZED)
                if not res.found:
                    failures += 1
        assert failures == 0

        # negative control: a slice that detaches a combining mark from its
        # base is correctly rejected under the normalized policy
        broken = verify_snippet("\u0301 b", "a e\u0301 b", MatchPolicy.NORMALIZED)
        assert not broken.found

        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.3f}s"


def _oracle_prf(pred, gold, sentences):
    """Brute-force scorer sharing no code with the library: expand each
    snippet to its (unique) containing sentence by direct scan, then set math."""

    def norm(s):
        return " ".join(s.split())

    normalized_sentences = [norm(s) for s in sentences]

    def key(snippet):
        n = norm(snippet)
        if not n:
            return None
        hits = [s for s in normalized_sentences if n in s]
        return hits[0] if len(hits) == 1 else n

    pred_keys = {k for k in (key(p) for p in pred) if k}
    gold_keys = {k for k in (key(g) for g in gold) if k}
    tp = len(pred_keys & gold_keys)
    fp = len(pred_keys - gold_keys)
    fn = len(gold_keys - pred_keys)
    if tp + fp == 0:
        precision = 1.0 if fn == 0 else 0.0
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        recall = 1.0 if fp == 0 else 0.0
    else:
        recall = tp / (tp + fn)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def test_criterion_3_metrics_oracle_equivalence():
    """citation_prf equals an independent brute-force matcher on 1,000 random
    set pairs; the worked example holds to 1e-12."""
    with criterion("3 citation_prf matches brute-force oracle"):
        worked = citation_prf(
            ["One two.", "Three four."],
            GoldCitationSet(frozenset({"Three four."})),
            "One two. Three four.",
        )
        prf = PRF.from_counts(tp=2, fp=1, fn=0)
        assert abs(prf.precision - 2 / 3) < 1e-12
        assert abs(prf.recall - 1.0) < 1e-12
        assert abs(prf.f1 - 0.8) < 1e-12
        # and citation_prf reproduces those counts from actual snippet sets
        ctx = "Alpha beta. Gamma delta. Epsilon zeta."
        scored = citation_prf(
            ["Alpha beta.", "Gamma delta.", "Epsilon zeta."],
            GoldCitationSet(frozenset({"Alpha beta.", "Gamma delta."})),
            ctx,
        )
        assert abs(scored.precision - 2 / 3) < 1e-12
        assert abs(scored.recall - 1.0) < 1e-12
        assert abs(scored.f1 - 0.8) < 1e-12
        assert worked.tp == 1 and worked.fp == 1 and worked.fn == 0

        rng = random.Random(97)
        vocab = ["red", "blue", "green", "small", "large", "bird", "stone", "river"]
        for trial in range(1000):
            n_sent = rng.randint(3, 8)
            sentences = []
            for i in range(n_sent):
                words = [rng.choice(vocab) for _ in range(rng.randint(2, 5))]
                sentences.append(" ".join(words) + f" tag{trial}x{i}.")
            context = " ".join(sentences)

            def sample_set():
                out = []
                for _ in range(rng.randint(0, 8)):
                    sent = rng.choice(sentences)
                    if rng.random() < 0.35:
                        # fragment: contiguous word slice that keeps the
                        # unique trailing tag so the oracle scan is unambiguous
                        words = sent.split(" ")
                        lo = rng.randrange(len(words))
                        out.append(" ".join(words[lo:]))
                    else:
                        out.append(sent)
                return out

            pred = sample_set()
            gold = sample_set()
            ours = citation_prf(pred, GoldCitationSet(frozenset(gold)), context)
            oracle = _oracle_prf(pred, gold, sentences)
            assert (ours.precision, ours.recall, ours.f1) == oracle, (
                trial,
                pred,
                gold,
            )


BATCH_CTX = (
    "The library opens at eight in the morning. Returns go in the front slot. "
    "Late fees stop after thirty days. Staff can renew cards at the desk."
)

GOOD_BATCH_REPLY = json.dumps(
    {
        "answer": "No",
        "feedback": "The summary invents a second branch location.",
        "statements": [
            {
                "statement_string": "The summary invents a second branch location.",
                "citations": ["Returns go in the front slot."],
            }
        ],
    }
)

FABRICATED_REPLY = GOOD_BATCH_REPLY.replace(
    "Returns go in the front slot.", "The branch on Fifth Street closed."
)

LONG_REPLY = json.dumps(
    {
        "answer": "No",
        "feedback": "padding " * 6000,
        "statements": [
            {
                "statement_string": "padding",
                "citations": ["Late fees stop after thirty days."],
            }
        ],
    }
)


def _batch_sources():
    sources = []
    for i in range(100):
        if i < 10:
            marker = f"PLANT-BADJSON-{i:02d}"
        elif i < 20:
            marker = f"PLANT-FABRICATED-{i:02d}"
        elif i < 25:
            marker = f"PLANT-OVERLONG-{i:02d}"
        else:
            marker = f"clean-{i:02d}"
        sources.append(
            SourceRecord(
                source_dataset="batch-demo",
                task_type=TaskType.CITATION,
                inputs={"task_prompt": BATCH_CTX, "generation": f"summary {marker}"},
            )
        )
    return sources


def _batch_gateway():
    script = {
        "rules": [
            {"contains": "PLANT-BADJSON-", "text": "here is { broken json"},
            {"contains": "PLANT-FABRICATED-", "text": FABRICATED_REPLY},
            {"contains": "PLANT-OVERLONG-", "text": LONG_REPLY},
        ],
        "default": GOOD_BATCH_REPLY,
    }
    return Gateway(MockBackend(script_responder(script)), backoff_s=0.0)


def test_criterion_4_filter_pipeline():
    """100-record mock batch with planted failures filters to exactly
    (75, 10, 10, 5); every kept record re-validates; deterministic."""
    with criterion("4 filter pipeline counts, closure, determinism"):
        sources = _batch_sources()

        def run():
            records, stats = generate(
                sources,
                [metric_by_name("completeness")],
                _batch_gateway(),
                MatchPolicy.NORMALIZED,
                PipelineConfig(parallelism=8, seed=3),
            )
            return records, stats

        records, stats = run()
        assert stats.total == 100
        assert stats.kept == 75
        assert stats.rejected_bad_json == 10
        assert stats.rejected_non_verbatim == 10
        assert stats.rejected_too_long == 5
        assert stats.rejected_transport == 0
        assert stats.cancelled == 0
        assert stats.conserved()

        status_by_marker = {
            "PLANT-BADJSON-": FilterStatus.REJECTED_BAD_JSON,
            "PLANT-FABRICATED-": FilterStatus.REJECTED_NON_VERBATIM,
            "PLANT-OVERLONG-": FilterStatus.REJECTED_TOO_LONG,
        }
        assert len(records) == 100
        for source, record in zip(sources, records):
            marker = source.inputs["generation"]
            expected = next(
                (st for key, st in status_by_marker.items() if key in marker),
                FilterStatus.KEPT,
            )
            assert record.filter_status is expected, marker
            if record.filter_status is FilterStatus.KEPT:
                # closure: the stored canonical completion passes the same
                # filter again and is already in canonical form
                again = filter_one(
                    record.completion,
                    source,
                    MatchPolicy.NORMALIZED,
                    metric=metric_by_name("completeness"),
                )
                assert again.kept
                assert again.record.completion == record.completion

        records2, stats2 = run()
        assert stats2 == stats
        assert [serialize_canonical(r) for r in records2] == [
            serialize_canonical(r) for r in records
        ]


def test_criterion_5_pairwise_order_bias_extremes():
    """Always-first mock scores order_bias 1.0, a content-deterministic mock
    0.0 with win_rate 1.0 over 50 pairs; < 2 s on the mock backend."""
    t0 = time.perf_counter()
    with criterion("5 pairwise win rate and order bias extremes"):
        pairs = [
            (f"instruction {i}", f"GOOD response {i}", f"weak response {i}")
            for i in range(50)
        ]

        def judge_all(script):
            gateway = Gateway(MockBackend(script_responder(script)), backoff_s=0.0)
            requests = []
            for instruction, chosen, rejected in pairs:
                requests.append(CompletionRequest(prompt=build_pairwise_prompt(instruction, chosen, rejected)))
                requests.append(CompletionRequest(prompt=build_pairwise_prompt(instruction, rejected, chosen)))
            slots = gateway.complete_batch(requests, parallelism=8)
            verdicts = [parse_pairwise_verdict(s.text) for s in slots]
            truths = [Verdict.A, Verdict.B] * len(pairs)  # chosen is shown first, then second
            return verdicts, truths, list(zip(verdicts[0::2], verdicts[1::2]))

        biased = {"rules": [], "default": "Output (a)"}
        verdicts, truths, verdict_pairs = judge_all(biased)
        bias = order_bias(verdict_pairs)
        assert bias.rate == 1.0
        assert bias.pairs_counted == 50 and bias.pairs_excluded == 0

        oracle = {"rules": [{"choose_output_containing": "GOOD"}]}
        verdicts, truths, verdict_pairs = judge_all(oracle)
        bias = order_bias(verdict_pairs)
        assert bias.rate == 0.0
        assert win_rate(verdicts, truths) == 1.0

        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0, f"took {elapsed:.3f}s"


def _random_quality_doc(rng):
    def words(lo, hi):
        pool = ["quick", "brown", "fox", "lazy", "dog", "jumps", "over", "the"]
        return " ".join(rng.choice(pool) for _ in range(rng.randint(lo, hi)))

    statements = []
    for _ in range(rng.randint(0, 3)):
        statements.append(
            {
                "statement_string": words(2, 6),
                "citations": [
                    words(1, 5) if rng.random() < 0.6 else {"snippet": words(1, 5)}
                    for _ in range(rng.randint(0, 3))
                ],
            }
        )
    return {
        "answer": "Yes" if not statements else rng.choice(["Yes", "No"]),
        "feedback": words(3, 10),
        "statements": statements,
        **({"note": words(1, 3)} if rng.random() < 0.3 else {}),
    }


def _random_rag_doc(rng, mode):
    citations = []
    for _ in range(rng.randint(1, 4)):
        entry = {"context_id": rng.choice(["1", "2", "None", "41"])}
        if mode.wants_claim:
            entry["claim"] = "claim " + str(rng.randint(0, 99))
        if mode.wants_snippet and entry["context_id"] != "None":
            entry["snippet"] = "snippet " + str(rng.randint(0, 99))
        citations.append(entry)
    return {"citations": citations}


def test_criterion_6_round_trip_and_concurrency():
    """serialize/parse is a fixpoint on 1,000 generated outputs, and
    complete_batch keeps input order at parallelism 8 over 500 trials."""
    with criterion("6 round-trip fixpoint and batch order"):
        rng = random.Random(1234)
        modes = list(CitationMode)
        for i in range(1000):
            if i % 2 == 0:
                doc = _random_quality_doc(rng)
                first = parse_quality_output(json.dumps(doc, ensure_ascii=False))
                canon = serialize_canonical(first)
                second = parse_quality_output(canon)
            else:
                mode = rng.choice(modes)
                doc = _random_rag_doc(rng, mode)
                first = parse_rag_output(json.dumps(doc, ensure_ascii=False), mode)
                canon = serialize_canonical(first)
                second = parse_rag_output(canon, mode)
            assert second == first
            assert serialize_canonical(second) == canon

        rng2 = random.Random(99)
        max_peak = 0
        for trial in range(500):
            backend = MockBackend(
                lambda prompt: f"echo:{prompt}",
                latency_fn=lambda _p: rng2.uniform(0.0, 0.002),
            )
            gateway = Gateway(backend, backoff_s=0.0)
            requests = [
                CompletionRequest(prompt=f"t{trial}-r{i}") for i in range(10)
            ]
            slots = gateway.complete_batch(requests, parallelism=8)
            assert [s.text for s in slots] == [
                f"echo:t{trial}-r{i}" for i in range(10)
            ]
            max_peak = max(max_peak, backend.peak_concurrency)
        assert max_peak <= 8
        assert max_peak >= 2  # parallelism actually engaged at least once
