"""Rate/explain/cite evaluation pipeline with verbatim citation checking."""

from .datagen import FilterStats, PipelineConfig, SourceRecord, filter_one, generate
from .errors import (
    ClaimNotFoundError,
    EmptyInputError,
    EmptyRequiredError,
    HaluGoldError,
    LengthMismatchError,
    ModeMismatchError,
    RecError,
    SnippetNotFoundError,
    SourceRecordError,
    TemplateError,
    UnknownContextIdError,
    UsageError,
)
from .gateway import (
    API_KEY_ENV,
    AuthFailureError,
    Backend,
    BackendRefusalError,
    BackendReply,
    CancelledError,
    CompletionRequest,
    CompletionResult,
    Gateway,
    GatewayError,
    HttpBackend,
    MockBackend,
    TransportError,
    load_mock_script,
    prompt_sha256,
    script_responder,
)
from .metrics import (
    PRF,
    GoldCitationSet,
    OrderBiasResult,
    binary_accuracy,
    citation_prf,
    gold_intersection,
    order_bias,
    parse_pairwise_verdict,
    win_rate,
)
from .model import (
    NO_SUPPORT_ID,
    CitationMode,
    CitationSnippet,
    EvaluationMetric,
    FilterStatus,
    MetricName,
    PointwiseVerdict,
    QualityEvalOutput,
    RagCitationEntry,
    RagCitationOutput,
    Statement,
    TaskType,
    UnifiedTaskRecord,
    Verdict,
    metric_by_name,
    metric_catalog,
    parse_citation_mode,
)
from .prompts import (
    TemplateId,
    TemplateSet,
    build_pairwise_prompt,
    build_pointwise_prompt,
    build_quality_prompt,
    build_rag_cite_prompt,
    render_chunks_block,
)
from .render import (
    Reference,
    RenderedText,
    assign_reference_numbers,
    render_quality,
    render_rag,
)
from .schema_io import (
    SchemaError,
    ValidationReport,
    Violation,
    extract_first_json_object,
    parse_pointwise,
    parse_quality_output,
    parse_rag_output,
    read_jsonl,
    serialize_canonical,
    to_json_value,
    try_parse_pointwise,
    try_parse_quality_output,
    try_parse_rag_output,
)
from .tokens import DEFAULT_TOKENS_PER_WORD, estimate_tokens
from .verify import (
    MatchPolicy,
    MatchResult,
    ReplyCheck,
    SourceIndex,
    VerificationReport,
    check_reply,
    normalize,
    parse_match_policy,
    segment_sentences,
    snap_to_sentences,
    verify_quality_output,
    verify_rag_output,
    verify_snippet,
)

__version__ = "0.1.0"
