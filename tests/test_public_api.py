import rec_eval

# Every name the package exported through its former hand-kept __all__,
# less inter_rater_agreement (an alias of binary_accuracy, removed on purpose).
EXPORTED = """
API_KEY_ENV AuthFailureError Backend BackendRefusalError BackendReply CancelledError
CitationMode CitationSnippet ClaimNotFoundError CompletionRequest CompletionResult
ContextDocument DEFAULT_TOKENS_PER_WORD DuplicateContextIdError EmptyInputError
EmptyRequiredError EvaluationMetric FilterStats FilterStatus Gateway GatewayError
GoldCitationSet HaluGoldError HttpBackend InvalidModelError LengthMismatchError
MatchPolicy MatchResult MetricName MockBackend ModeMismatchError NO_SUPPORT_ID
OrderBiasResult PRF PairwiseJudgment PipelineConfig PointwiseVerdict PresentationOrder
PromptText QualityEvalOutput RagCitationEntry RagCitationOutput RecError Reference
RenderedText SchemaError SnippetNotFoundError SourceKind SourceRecord Statement TaskType
TemplateError TemplateId TemplateSet TransportError UnifiedTaskRecord
UnknownContextIdError UsageError ValidationReport Verdict VerificationReport Violation
assign_reference_numbers binary_accuracy build_grounding_prompt build_pairwise_prompt
build_pointwise_prompt build_quality_prompt build_rag_cite_prompt citation_prf
estimate_tokens extract_first_json_object filter_one generate gold_intersection
load_mock_script metric_by_name metric_catalog normalize order_bias parse_citation_mode
parse_match_policy parse_pairwise_verdict parse_pointwise parse_quality_output
parse_rag_output prompt_sha256 read_jsonl render_chunks_block render_quality render_rag
segment_sentences serialize_canonical snap_to_sentences to_json_value
try_parse_pointwise try_parse_quality_output try_parse_rag_output verify_quality_output
verify_rag_output verify_snippet win_rate write_jsonl
""".split()


def test_exported_names_still_import():
    assert len(EXPORTED) == 103
    missing = [name for name in EXPORTED if not hasattr(rec_eval, name)]
    assert missing == []
    namespace: dict = {}
    exec("from rec_eval import *", namespace)
    assert [name for name in EXPORTED if name not in namespace] == []
