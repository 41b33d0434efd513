import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest

import rec_eval

# Every name the package exported through its former hand-kept __all__,
# less inter_rater_agreement (an alias of binary_accuracy) and the names that
# nothing in the package used (build_grounding_prompt, write_jsonl,
# InvalidModelError, PromptText, SourceKind, PairwiseJudgment,
# PresentationOrder), all removed on purpose. ContextDocument and
# DuplicateContextIdError went when chunks became a {context_id: body} map.
EXPORTED = """
API_KEY_ENV AuthFailureError Backend BackendRefusalError BackendReply CancelledError
CitationMode CitationSnippet ClaimNotFoundError CompletionRequest CompletionResult
DEFAULT_TOKENS_PER_WORD EmptyInputError
EmptyRequiredError EvaluationMetric FilterStats FilterStatus Gateway GatewayError
GoldCitationSet HaluGoldError HttpBackend LengthMismatchError
MatchPolicy MatchResult MetricName MockBackend ModeMismatchError NO_SUPPORT_ID
OrderBiasResult PRF PipelineConfig PointwiseVerdict QualityEvalOutput RagCitationEntry RagCitationOutput RecError Reference
RenderedText SchemaError SnippetNotFoundError SourceRecord Statement TaskType
TemplateError TemplateId TemplateSet TransportError UnifiedTaskRecord
UnknownContextIdError UsageError ValidationReport Verdict VerificationReport Violation
assign_reference_numbers binary_accuracy build_pairwise_prompt
build_pointwise_prompt build_quality_prompt build_rag_cite_prompt citation_prf
estimate_tokens extract_first_json_object filter_one generate gold_intersection
load_mock_script metric_by_name metric_catalog normalize order_bias parse_citation_mode
parse_match_policy parse_pairwise_verdict parse_pointwise parse_quality_output
parse_rag_output prompt_sha256 read_jsonl render_chunks_block render_quality render_rag
segment_sentences serialize_canonical snap_to_sentences to_json_value
try_parse_pointwise try_parse_quality_output try_parse_rag_output verify_quality_output
verify_rag_output verify_snippet win_rate
""".split()


def test_exported_names_still_import():
    assert len(EXPORTED) == 94
    missing = [name for name in EXPORTED if not hasattr(rec_eval, name)]
    assert missing == []
    namespace: dict = {}
    exec("from rec_eval import *", namespace)
    assert [name for name in EXPORTED if name not in namespace] == []


# The console script is reached from outside the package.
ENTRY_POINTS = {"cli.entry"}


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _used_names(stmt: ast.stmt) -> set[str]:
    used = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_public_name_is_used_or_exported():
    # A public top-level name must be imported by rec_eval/__init__.py or
    # referenced somewhere in the package outside its own definition.
    definitions, uses = [], []
    for path in sorted(Path(rec_eval.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            uses.append((stmt, _used_names(stmt)))
            definitions += [(f"{path.stem}.{name}", name, stmt) for name in _defined_names(stmt)]
    dead = [
        qualified
        for qualified, name, own in definitions
        if not name.startswith("_")
        and qualified not in ENTRY_POINTS
        and not any(name in used for stmt, used in uses if stmt is not own)
    ]
    assert dead == []


# Library surface kept on purpose though no package code reads it, and the
# records that schema_io.to_json_value or _asdict() write out whole.
MEMBERS_KEPT = {"PRF.tp", "PRF.fp", "PRF.fn", "FilterStats.conserved"}
WRITTEN_WHOLE = {"PointwiseVerdict", "UnifiedTaskRecord", "OrderBiasResult"}


def _declared_members(cls: ast.ClassDef) -> list[tuple[str, ast.stmt]]:
    """The fields, methods and properties a class body declares."""
    members = []
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            members.append((stmt.target.id, stmt))
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            members.append((stmt.name, stmt))
    return members


def _attribute_reads(tree: ast.AST) -> list[tuple[str, ast.Attribute]]:
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
            reads.append((node.target.attr, node.target))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.append((node.attr, node))
    return reads


def test_every_public_class_member_is_read():
    # A public field, method or property must be read as an attribute
    # somewhere in the package, outside its own definition.
    members, reads = [], {}
    for path in sorted(Path(rec_eval.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for attr, node in _attribute_reads(tree):
            reads.setdefault(attr, []).append(node)
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name not in WRITTEN_WHOLE:
                members += [(f"{cls.name}.{name}", name, own) for name, own in _declared_members(cls)]
    unread = []
    for qualified, name, own in members:
        if name.startswith("_") or qualified in MEMBERS_KEPT:
            continue
        inside = set(ast.walk(own))
        if all(node in inside for node in reads.get(name, ())):
            unread.append(qualified)
    assert unread == []


def _classes_defined_in_package() -> list[type]:
    modules = [importlib.import_module(f"rec_eval.{info.name}") for info in pkgutil.iter_modules(rec_eval.__path__)]
    return [
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
    ]


RECORDS = [cls for cls in _classes_defined_in_package() if issubclass(cls, tuple) and hasattr(cls, "_fields")]


def test_only_the_records_that_need_dataclass_features_are_dataclasses():
    # Each dataclass costs about 0.5 ms of `import rec_eval`; a named tuple
    # a seventh of that. FilterStats is mutable, and SourceRecord needs
    # field(default_factory=dict) for its inputs.
    dataclasses_ = sorted(cls.__name__ for cls in _classes_defined_in_package() if dataclasses.is_dataclass(cls))
    assert dataclasses_ == ["FilterStats", "SourceRecord"]
    assert len(RECORDS) == 25


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_immutable_and_repr_their_fields(cls):
    values = [f"v{i}" for i in range(len(cls._fields))]
    record = cls(*values)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, "other")
    with pytest.raises(AttributeError):
        record.not_a_field = "other"
    assert list(record) == values
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, values))
    assert repr(record) == f"{cls.__name__}({fields})"
