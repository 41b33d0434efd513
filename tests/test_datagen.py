import json
import threading

import pytest

from rec_eval import (
    CancelledError,
    FilterStats,
    FilterStatus,
    Gateway,
    MatchPolicy,
    MockBackend,
    PipelineConfig,
    SourceRecord,
    TaskType,
    TransportError,
    estimate_tokens,
    filter_one,
    generate,
    metric_by_name,
    metric_catalog,
    parse_quality_output,
    script_responder,
    serialize_canonical,
)

CTX = "The store opens at nine. Refunds take three days. Shipping is free over fifty dollars."

GOOD_REPLY = json.dumps(
    {
        "answer": "No",
        "feedback": "The summary invents a loyalty program.",
        "statements": [
            {
                "statement_string": "The summary invents a loyalty program.",
                "citations": ["Refunds take three days."],
            }
        ],
    }
)


def _quality_source(generation="A summary.", dataset="demo"):
    return SourceRecord(
        source_dataset=dataset,
        task_type=TaskType.CITATION,
        inputs={"task_prompt": CTX, "generation": generation},
    )


def _gateway(script, **kw):
    kw.setdefault("backoff_s", 0.0)
    return Gateway(MockBackend(script_responder(script)), **kw)


def test_source_record_flavors():
    assert _quality_source().kind == "quality"
    rag = SourceRecord(
        source_dataset="d",
        task_type=TaskType.CITATION,
        inputs={"chunks": [{"context_id": "1", "body": "b"}], "answer": "a"},
    )
    assert rag.kind == "rag"


def test_source_record_violations():
    missing = SourceRecord(source_dataset="d", task_type=TaskType.CITATION, inputs={})
    assert missing.violations()
    pointwise = SourceRecord(
        source_dataset="d",
        task_type=TaskType.POINTWISE_EVAL,
        inputs={"query_with_context": "q", "answer": "a"},
    )
    assert pointwise.violations() == []


def test_estimate_tokens_rule():
    assert estimate_tokens("one two three four") == pytest.approx(4 * 1.3)
    assert estimate_tokens("") == 0.0


def test_filter_one_keeps_and_canonicalizes():
    outcome = filter_one(GOOD_REPLY, _quality_source(), MatchPolicy.NORMALIZED)
    assert outcome.kept
    record = outcome.record
    assert record.filter_status is FilterStatus.KEPT
    assert record.task_type is TaskType.CITATION
    # completion is the canonical serialization, not the raw reply
    assert record.completion == serialize_canonical(parse_quality_output(GOOD_REPLY))
    # closure: the stored completion re-validates
    assert filter_one(record.completion, _quality_source(), MatchPolicy.NORMALIZED).kept


def test_filter_one_rejects_bad_json():
    outcome = filter_one("{{{", _quality_source(), MatchPolicy.NORMALIZED)
    assert outcome.record.filter_status is FilterStatus.REJECTED_BAD_JSON
    assert outcome.record.completion == "{{{"


POINTWISE_INPUTS = {"query_with_context": CTX, "answer": "a"}
RAG_INPUTS = {"chunks": [{"context_id": "1", "body": CTX}], "answer": "a"}
QUALITY_INPUTS = {"task_prompt": CTX, "generation": "g"}


@pytest.mark.parametrize(
    "task_type,inputs,reply,key",
    [
        (TaskType.POINTWISE_EVAL, POINTWISE_INPUTS, {"metriclabel": None, "justification": "fine"}, "metriclabel"),
        (TaskType.CITATION, RAG_INPUTS, {"citations": None}, "citations"),
        (TaskType.CITATION, QUALITY_INPUTS, {"answer": "Yes", "feedback": "f", "statements": None}, "statements"),
    ],
)
def test_filter_one_rejects_null_in_a_required_field(task_type, inputs, reply, key):
    task = SourceRecord(source_dataset="d", task_type=task_type, inputs=inputs)
    outcome = filter_one(json.dumps(reply), task, metric=metric_by_name("faithfulness"))
    assert outcome.record.filter_status is FilterStatus.REJECTED_BAD_JSON
    assert outcome.detail == f"WrongType at $.{key}: required field {key!r} is null"


def test_filter_one_rejects_non_verbatim():
    fabricated = GOOD_REPLY.replace("Refunds take three days.", "We never do refunds.")
    outcome = filter_one(fabricated, _quality_source(), MatchPolicy.NORMALIZED)
    assert outcome.record.filter_status is FilterStatus.REJECTED_NON_VERBATIM


def test_filter_one_rejects_over_length():
    outcome = filter_one(
        GOOD_REPLY, _quality_source(), MatchPolicy.NORMALIZED, max_tokens=10
    )
    assert outcome.record.filter_status is FilterStatus.REJECTED_TOO_LONG


def test_filter_one_policy_is_respected():
    spaced = GOOD_REPLY.replace("Refunds take three days.", "Refunds  take three days.")
    strict = filter_one(spaced, _quality_source(), MatchPolicy.STRICT)
    assert strict.record.filter_status is FilterStatus.REJECTED_NON_VERBATIM
    normalized = filter_one(spaced, _quality_source(), MatchPolicy.NORMALIZED)
    assert normalized.kept


def test_filter_order_json_before_verbatim_before_length():
    # a reply that is bad JSON and would also be over-length: bad JSON wins
    outcome = filter_one(
        "{{{ " + "word " * 50, _quality_source(), MatchPolicy.NORMALIZED, max_tokens=5
    )
    assert outcome.record.filter_status is FilterStatus.REJECTED_BAD_JSON
    # non-verbatim and over-length: non-verbatim wins
    fabricated = GOOD_REPLY.replace("Refunds take three days.", "Fabricated quote.")
    outcome = filter_one(fabricated, _quality_source(), MatchPolicy.NORMALIZED, max_tokens=5)
    assert outcome.record.filter_status is FilterStatus.REJECTED_NON_VERBATIM


def test_filter_stats_conservation():
    stats = FilterStats(
        total=10,
        kept=6,
        rejected_bad_json=1,
        rejected_non_verbatim=2,
        rejected_too_long=1,
        rejected_transport=0,
    )
    assert stats.conserved()
    assert not FilterStats(total=3, kept=1).conserved()


def test_generate_pointwise_fans_out_over_metrics():
    sources = [
        SourceRecord(
            source_dataset="d",
            task_type=TaskType.POINTWISE_EVAL,
            inputs={"query_with_context": "q", "answer": "a"},
        )
    ]
    gw = _gateway({"default": '{"metriclabel": "Yes", "justification": "fine"}'})
    records, stats = generate(sources, metric_catalog(), gw, MatchPolicy.NORMALIZED, PipelineConfig())
    assert stats.total == 4 and stats.kept == 4
    assert len(records) == 4
    prompts = [r.prompt for r in records]
    for metric in metric_catalog():
        assert any(metric.description in p for p in prompts)


def test_generate_citation_one_per_record():
    gw = _gateway({"default": GOOD_REPLY})
    records, stats = generate(
        [_quality_source(), _quality_source()],
        [metric_by_name("f")],
        gw,
        MatchPolicy.NORMALIZED,
        PipelineConfig(),
    )
    assert stats.total == 2 and stats.kept == 2
    assert all(r.filter_status is FilterStatus.KEPT for r in records)
    assert all(r.task_type is TaskType.CITATION for r in records)


def test_generate_rag_citation_uses_requested_mode():
    chunks = [{"context_id": "9", "body": "Lizards bask in the sun."}]
    reply = json.dumps(
        {"citations": [{"context_id": "9", "claim": "Lizards bask."}]}
    )
    sources = [
        SourceRecord(
            source_dataset="d",
            task_type=TaskType.CITATION,
            inputs={"chunks": chunks, "answer": "Lizards bask.", "mode": "inline"},
        )
    ]
    gw = _gateway({"default": reply})
    records, stats = generate(sources, [], gw, MatchPolicy.NORMALIZED, PipelineConfig())
    assert stats.kept == 1
    assert "Lizards bask in the sun." in records[0].prompt


def test_generate_counts_transport_failures():
    script = {
        "rules": [{"contains": "flaky marker", "error": "transport"}],
        "default": GOOD_REPLY,
    }
    sources = [_quality_source(), _quality_source(generation="flaky marker")]
    gw = _gateway(script, max_retries=0)
    records, stats = generate(
        sources, [metric_by_name("f")], gw, MatchPolicy.NORMALIZED, PipelineConfig()
    )
    assert stats.total == 2
    assert stats.kept == 1
    assert stats.rejected_transport == 1
    assert stats.conserved()
    # a transport failure yields no completion, so no record either
    assert len(records) == 1


def test_generate_cancellation_partial_counts():
    event = threading.Event()
    event.set()  # cancel before anything runs
    gw = _gateway({"default": GOOD_REPLY})
    records, stats = generate(
        [_quality_source()],
        [metric_by_name("f")],
        gw,
        MatchPolicy.NORMALIZED,
        PipelineConfig(),
        cancel_event=event,
    )
    assert stats.cancelled == 1
    assert stats.total == 0
    assert stats.conserved()
    assert records == []


def test_generate_is_deterministic():
    sources = [_quality_source(generation=f"gen {i}") for i in range(6)]
    def run():
        gw = _gateway({"default": GOOD_REPLY})
        records, stats = generate(
            sources, [metric_by_name("f")], gw, MatchPolicy.NORMALIZED,
            PipelineConfig(parallelism=3, seed=11),
        )
        return [serialize_canonical(r) for r in records], stats
    first_records, first_stats = run()
    second_records, second_stats = run()
    assert first_records == second_records
    assert first_stats == second_stats
