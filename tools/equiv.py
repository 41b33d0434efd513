#!/usr/bin/env python3
"""Run one fixed list of cases on a parent commit and on this checkout, and compare.

    python3 tools/equiv.py --parent REV [--allow FILE]

The parent is exported with ``git archive`` into a temporary directory; the
change is the checkout this script lives in, as it is on disk. Each tree
runs every case in one fresh process, with ``PYTHONPATH=<tree>/src``,
``PYTHONHASHSEED=0`` and ``COLUMNS=100``. The inputs come from this
checkout for both trees: its ``perfbench/`` corpus and workload runners and
its ``tests/fixtures``. The cases are:

- ``perfbench/<workload>/s<seed>/b<batch>``: batches 0-3 of the four
  perfbench workloads on seeds 1-3. A datagen batch is one case: its
  records, its ``FilterStats`` and every ``filter_one`` outcome with its
  detail, as ``generate`` called it. ``datagen-overlap`` runs without the
  mock's sleeps, and the log lines of a datagen batch are sorted, as its
  workers log in any order. A ``score`` or ``evaluate`` batch is one case
  per ``rec`` call (``.../c<j>``), with the ``--out`` sidecar.
- ``help/<command>``: ``rec --help`` and every subcommand's ``--help``.
- ``fixtures/<command>/...``: ``rec`` runs on ``tests/fixtures`` in every
  mode, both match policies and both output formats, with ``--out`` and
  ``--audit-log`` (its lines sorted, each without ``ts`` and ``latency_ms``).
- ``edge/...``: chunks and contexts files that are malformed or empty.
- ``library/s<seed>/b<batch>/c<j>``: ``segment_sentences`` spans of each
  context of ``score`` batches 0-1, and the ``MatchResult`` of
  ``verify_snippet`` and the ``snap_to_sentences`` text of every snippet
  its records cite, under both policies.

A ``rec`` call runs in-process, the way a fresh shell run would see it.
For each case the runner writes one JSON line with the sha256 of its
stdout, its stderr, its exit code and each file it wrote, after the paths
of the tree and of the work directory are replaced by ``<TREE>`` and
``<WORK>`` and traceback line numbers by ``N``. The comparison prints the
ids that differ and a diff of the first differing output that ``--allow``
does not name. ``--allow`` is a file of case ids, or ``fnmatch`` patterns,
one a line, ``#`` starting a comment. The exit code is 0 when every
difference is allowed, 1 otherwise. Stdlib only.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import fnmatch
import functools
import hashlib
import io
import json
import logging
import os
import re
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Iterator

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"

SUBCOMMANDS = ("evaluate", "cite", "validate", "render", "score", "judge", "datagen")
WORKLOADS = ("datagen-cite", "datagen-overlap", "score", "evaluate")
SEEDS = (1, 2, 3)
BATCHES = (0, 1, 2, 3)
LIBRARY_BATCHES = (0, 1)
MODES = ("postfix", "inline", "postfix-snippet", "inline-snippet")
POLICIES = ("strict", "normalized")
FORMATS = ("text", "json")

Outputs = dict[str, Any]  # {"stdout": str, "stderr": str, "exit": int | str, "files": {name: str}}
Group = Callable[[Path], Iterator[tuple[str, Outputs]]]


# --------------------------------------------------------------------------
# Running the cases (in the worker process, on one tree's package)


def _fresh_logging() -> None:
    # Each case logs as a fresh `rec` process would: cli.main (or the case)
    # installs the handler on the stderr that is current when it runs.
    root = logging.getLogger()
    for handler in list(root.handlers):
        root.removeHandler(handler)


def _captured(fn: Callable[[], Any]) -> tuple[Any, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        _fresh_logging()
        logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - a raising case is an output too
            result = f"raised {type(exc).__name__}: {exc}"
    return result, out.getvalue(), err.getvalue()


def _audit_text(path: Path) -> str:
    """The audit log's lines without ts and latency_ms, sorted: concurrent calls append in any order."""
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        entry = json.loads(line)
        entry.pop("ts", None)
        entry.pop("latency_ms", None)
        lines.append(json.dumps(entry, sort_keys=True))
    return "\n".join(sorted(lines))


def _cli(argv: list[str], files: dict[str, Path] | None = None) -> Outputs:
    """Run `rec argv` in this process; the files it may write are read back after."""
    from rec_eval.cli import main

    files = files or {}
    for path in files.values():
        path.unlink(missing_ok=True)
    code, stdout, stderr = _captured(lambda: main(argv))
    written = {}
    for name, path in files.items():
        if not path.exists():
            written[name] = "<absent>"
        elif name == "audit":
            written[name] = _audit_text(path)
        else:
            written[name] = path.read_text(encoding="utf-8")
    return {"stdout": stdout, "stderr": stderr, "exit": code, "files": written}


def _write(path: Path, value: Any) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = value if isinstance(value, str) else json.dumps(value, ensure_ascii=False)
    path.write_text(text, encoding="utf-8")
    return path


def _script(path: Path, default: Any = None, rules: list | None = None) -> str:
    script: dict[str, Any] = {"rules": rules or []}
    if default is not None:
        script["default"] = default
    return "mock:" + str(_write(path, script))


def _fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def _help(work: Path) -> Iterator[tuple[str, Outputs]]:
    yield "help/rec", _cli(["--help"])
    for command in SUBCOMMANDS:
        yield f"help/{command}", _cli([command, "--help"])


def _evaluate(work: Path) -> Iterator[tuple[str, Outputs]]:
    d = work / "evaluate"
    context = str(_write(d / "context.txt", _fixture("summary_context.txt")))
    generation = str(_write(d / "generation.txt", _fixture("summary_generation.txt")))
    bad_snippet = {"answer": "No", "feedback": "Off.", "statements": [
        {"statement_string": "Off.", "citations": ["Not a sentence of the context."]}]}
    replies = {
        "fixture": _fixture("summary_eval_reply.json"),
        "not-verbatim": json.dumps(bad_snippet),
        "not-json": "I cannot rate this.",
    }
    files = {"out": d / "out.json", "audit": d / "audit.jsonl"}
    for reply, raw in replies.items():
        backend = _script(d / f"{reply}.json", raw)
        for mode in MODES:
            for policy in POLICIES:
                for fmt in FORMATS if reply == "fixture" else ("text",):
                    argv = ["evaluate", "--context", context, "--generation", generation,
                            "--metric", "faithfulness", "--mode", mode, "--policy", policy,
                            "--format", fmt, "--backend", backend,
                            "--out", str(files["out"]), "--audit-log", str(files["audit"])]
                    yield f"fixtures/evaluate/{reply}/{mode}/{policy}/{fmt}", _cli(argv, files)


def _cite(work: Path) -> Iterator[tuple[str, Outputs]]:
    d = work / "cite"
    chunks = json.loads(_fixture("photosynthesis_chunks.json"))
    chunk_files = {
        "json": _write(d / "chunks.json", chunks),
        "jsonl": _write(d / "chunks.jsonl", "".join(json.dumps(c) + "\n" for c in chunks)),
    }
    answer = str(_write(d / "answer.txt", _fixture("photosynthesis_answer.txt")))
    files = {"out": d / "out.json", "audit": d / "audit.jsonl"}
    for reply_mode in MODES:
        backend = _script(d / f"{reply_mode}.json", _fixture(f"cite_{reply_mode.replace('-', '_')}.json"))
        for mode in MODES:
            for policy in POLICIES:
                for fmt in FORMATS if mode == reply_mode else ("text",):
                    for form in chunk_files if mode == reply_mode else ("json",):
                        argv = ["cite", "--chunks", str(chunk_files[form]), "--answer", answer,
                                "--mode", mode, "--policy", policy, "--format", fmt, "--backend", backend,
                                "--out", str(files["out"]), "--audit-log", str(files["audit"])]
                        case = f"fixtures/cite/{reply_mode}-reply/{mode}/{policy}/{fmt}/{form}"
                        yield case, _cli(argv, files)


def _render(work: Path) -> Iterator[tuple[str, Outputs]]:
    d = work / "render"
    quality = str(_write(d / "quality.json", _fixture("summary_eval_reply.json")))
    answer = str(_write(d / "answer.txt", _fixture("photosynthesis_answer.txt")))
    chunks = str(_write(d / "chunks.json", _fixture("photosynthesis_chunks.json")))
    for mode in MODES:
        for fmt in FORMATS:
            argv = ["render", "--raw", quality, "--kind", "quality", "--mode", mode, "--format", fmt]
            yield f"fixtures/render/quality/{mode}/{fmt}", _cli(argv)
            raw = str(_write(d / f"{mode}.json", _fixture(f"cite_{mode.replace('-', '_')}.json")))
            argv = ["render", "--raw", raw, "--kind", "rag", "--mode", mode, "--answer", answer, "--format", fmt]
            yield f"fixtures/render/rag/{mode}/{fmt}", _cli(argv)
            yield f"fixtures/render/rag/{mode}/{fmt}/chunks", _cli(argv + ["--chunks", chunks])


def _contexts_jsonl() -> str:
    contexts = [{"context_id": "summary", "body": _fixture("summary_context.txt")}]
    contexts += json.loads(_fixture("photosynthesis_chunks.json"))
    return "".join(json.dumps(c, ensure_ascii=False) + "\n" for c in contexts)


def _validate(work: Path) -> Iterator[tuple[str, Outputs]]:
    d = work / "validate"
    contexts = str(_write(d / "contexts.jsonl", _contexts_jsonl()))
    ids = [c["context_id"] for c in json.loads(_fixture("photosynthesis_chunks.json"))]
    answer = _fixture("photosynthesis_answer.txt").rstrip("\n")
    records = [
        {"kind": "quality", "context_id": "summary", "raw": _fixture("summary_eval_reply.json")},
        {"kind": "quality", "context_id": "summary", "raw": json.loads(_fixture("summary_eval_reply.json"))},
        {"kind": "quality", "context_id": "summary", "raw": "not json"},
        {"kind": "quality", "context_id": "elsewhere", "raw": "{}"},
        {"kind": "other"},
        5,
    ]
    for mode in MODES:
        raw = _fixture(f"cite_{mode.replace('-', '_')}.json")
        records.append({"kind": "rag", "mode": mode, "answer": answer, "context_ids": ids, "raw": raw})
        records.append({"kind": "rag", "mode": mode, "answer": answer, "context_ids": ["missing"], "raw": raw})
    records.append({"kind": "rag", "mode": "sideways", "answer": answer, "context_ids": ids, "raw": "{}"})
    path = str(_write(d / "records.jsonl", "".join(json.dumps(r) + "\n\n" for r in records)))
    for policy in POLICIES:
        yield f"fixtures/validate/{policy}", _cli(["validate", "--records", path, "--contexts", contexts, "--policy", policy])


def _score(work: Path) -> Iterator[tuple[str, Outputs]]:
    d = work / "score"
    contexts = str(_write(d / "contexts.jsonl", _contexts_jsonl()))
    reply = json.loads(_fixture("summary_eval_reply.json"))
    cited = [c if isinstance(c, str) else c["snippet"] for st in reply["statements"] for c in st["citations"]]
    sentences = [s.strip() + "." for s in _fixture("summary_context.txt").split(".") if s.strip()]
    preds = [
        {"context_ref": "summary", "metric": "faithfulness", "predicted_citations": cited, "gold": sentences[:3],
         "rating_pred": "Yes", "rating_gold": ["yes", "No"], "explain_pred": "Yes", "explain_gold": "yes"},
        {"context_ref": "summary", "metric": "coh", "predicted_citations": cited[:1],
         "gold_a": sentences[:4], "gold_b": sentences[2:6]},
        {"context_ref": "summary", "predicted_citations": cited, "gold": [], "halu": True},
        {"context_ref": "nowhere", "metric": "Made-up", "predicted_citations": cited, "gold": sentences[:1]},
        {"context_ref": "1233", "predicted_citations": [_fixture("photosynthesis_answer.txt")], "gold_a": [], "gold_b": []},
    ]
    pred = str(_write(d / "pred.jsonl", "".join(json.dumps(p) + "\n" for p in preds)))
    for policy in POLICIES:
        yield f"fixtures/score/{policy}", _cli(["score", "--pred", pred, "--contexts", contexts, "--policy", policy])
    yield "fixtures/score/no-contexts", _cli(["score", "--pred", pred])


def _judge(work: Path) -> Iterator[tuple[str, Outputs]]:
    d = work / "judge"
    pairs = [
        {"instruction": "Summarize the first conversation.", "chosen": "GOOD summary one.", "rejected": "weak one"},
        {"instruction": "Summarize the second conversation.", "chosen": "GOOD summary two.", "rejected": "weak two"},
        {"instruction": "Summarize the third conversation.", "chosen": "GOOD summary three.", "rejected": "weak three"},
    ]
    path = str(_write(d / "pairs.jsonl", "".join(json.dumps(p) + "\n" for p in pairs)))
    scripts = {
        "oracle": _script(d / "oracle.json", rules=[{"choose_output_containing": "GOOD"}]),
        "first": _script(d / "first.json", "Output (a)"),
        "unparseable": _script(d / "unparseable.json", "[[B]]", [{"contains": "second", "text": "no idea"}]),
        "refused": _script(d / "refused.json", "[[A]]", [{"contains": "third", "error": "auth"}]),
    }
    for name, backend in scripts.items():
        for both in (False, True):
            for parallelism in ("1", "3"):
                argv = ["judge", "--pairs", path, "--backend", backend, "--parallelism", parallelism]
                argv += ["--both-orders"] if both else []
                yield f"fixtures/judge/{name}/{'both' if both else 'ab'}/p{parallelism}", _cli(argv)


def _datagen(work: Path) -> Iterator[tuple[str, Outputs]]:
    d = work / "datagen"
    files = {"out": d / "out.jsonl", "stats": d / "stats.json", "audit": d / "audit.jsonl"}
    quality = {"source_dataset": "summary", "inputs": {
        "task_prompt": _fixture("summary_context.txt"), "generation": _fixture("summary_generation.txt"),
        "metric": "faithfulness"}}
    pointwise = {"source_dataset": "summary", "inputs": {
        "query_with_context": _fixture("summary_context.txt"), "answer": _fixture("summary_generation.txt")}}
    verdict = json.dumps({"metriclabel": "Yes", "justification": "It follows the context."})
    runs = {
        "quality": ("cite-quality", [quality], _fixture("summary_eval_reply.json"), []),
        "quality/too-long": ("cite-quality", [quality], _fixture("summary_eval_reply.json"), ["--max-tokens", "300"]),
        "pointwise": ("pointwise", [pointwise], verdict, ["--metrics", "f,coh", "--parallelism", "2"]),
        "pointwise/not-json": ("pointwise", [pointwise, pointwise], "Yes.", []),
    }
    chunks = json.loads(_fixture("photosynthesis_chunks.json"))
    answer = _fixture("photosynthesis_answer.txt")
    for mode in MODES:
        rag = {"source_dataset": "photosynthesis", "inputs": {"chunks": chunks, "answer": answer, "mode": mode}}
        runs[f"rag/{mode}"] = ("cite-rag", [rag], _fixture(f"cite_{mode.replace('-', '_')}.json"), [])
    for name, (task, sources, reply, extra) in runs.items():
        source = str(_write(d / "sources.jsonl", "".join(json.dumps(s) + "\n" for s in sources)))
        for keep in (False, True):
            argv = ["datagen", "--input", source, "--task", task, "--backend", _script(d / "script.json", reply),
                    "--out", str(files["out"]), "--stats", str(files["stats"]), "--audit-log", str(files["audit"])]
            argv += extra + (["--keep-rejected"] if keep else [])
            yield f"fixtures/datagen/{name}/{'all' if keep else 'kept'}", _cli(argv, files)


def _edge(work: Path) -> Iterator[tuple[str, Outputs]]:
    """Chunks and contexts files that are malformed or hold nothing."""
    d = work / "edge"
    answer = str(_write(d / "answer.txt", _fixture("photosynthesis_answer.txt")))
    backend = _script(d / "script.json", json.dumps({"citations": [{"context_id": "1"}]}))
    chunk_files = {
        "null-body": [{"context_id": "1", "body": None}],
        "number-body": [{"context_id": "1", "body": 5}],
        "null-id": [{"context_id": None, "body": "Cats purr."}],
        "bool-id": [{"context_id": True, "body": "Cats purr."}],
        "integer-id": [{"context_id": 1, "body": "Cats purr."}],
        "empty": [],
    }
    for name, chunks in chunk_files.items():
        path = str(_write(d / f"{name}.json", chunks))
        argv = ["cite", "--chunks", path, "--answer", answer, "--mode", "postfix", "--backend", backend]
        yield f"edge/cite/{name}", _cli(argv)
        raw = str(_write(d / "raw.json", {"citations": [{"context_id": "1"}]}))
        argv = ["render", "--raw", raw, "--kind", "rag", "--mode", "postfix", "--answer", answer, "--chunks", path]
        yield f"edge/render/{name}", _cli(argv)
    blank = str(_write(d / "blank.jsonl", "\n\n"))
    yield "edge/cite/blank-lines", _cli(["cite", "--chunks", blank, "--answer", answer, "--backend", backend])

    reply = {"answer": "No", "feedback": "x", "statements": [{"statement_string": "x", "citations": ["None"]}]}
    records = str(_write(d / "records.jsonl", json.dumps({"kind": "quality", "context_id": "a", "raw": reply}) + "\n"))
    pred = str(_write(d / "pred.jsonl", json.dumps({"context_ref": "a", "predicted_citations": ["Dogs bark."],
                                                     "gold": ["Cats purr."]}) + "\n"))
    context_files = {
        "null-body": [{"context_id": "a", "body": None}],
        "null-id": [{"context_id": None, "body": "Cats purr. Dogs bark."}],
        "integer-id": [{"context_id": 7, "body": "Cats purr. Dogs bark."}],
        "duplicate-id": [{"context_id": "a", "body": "Cats purr."}, {"context_id": "a", "body": "Cats purr. Dogs bark."}],
        "blank-body": [{"context_id": "a", "body": ""}],
        "empty": [],
    }
    for name, contexts in context_files.items():
        path = str(_write(d / f"{name}.jsonl", "".join(json.dumps(c) + "\n" for c in contexts)))
        yield f"edge/validate/{name}", _cli(["validate", "--records", records, "--contexts", path])
        yield f"edge/score/{name}", _cli(["score", "--pred", pred, "--contexts", path])


# perfbench batches and the library results drawn from them


@functools.cache
def _perfbench() -> Any:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return workloads


@functools.cache
def _workload(name: str, seed: int, work: Path) -> Any:
    workload = _perfbench().WORKLOADS[name](seed, work / "perfbench" / f"{name}-s{seed}")
    workload.latency = False  # the mock's sleeps change no output
    _captured(workload.setup)
    return workload


def _datagen_batch(workload: Any, prep: Any) -> Outputs:
    datagen, schema_io = workload.pkg["datagen"], workload.pkg["schema_io"]
    outcomes = []
    filter_one = datagen.filter_one

    def recorded(*args: Any, **kwargs: Any) -> Any:
        outcome = filter_one(*args, **kwargs)
        outcomes.append([schema_io.serialize_canonical(outcome.record), outcome.detail])
        return outcome

    datagen.filter_one = recorded
    try:
        ran, _, stderr = _captured(lambda: workload.run(prep, lambda: 1.0))
    finally:
        datagen.filter_one = filter_one
    if isinstance(ran, str):
        return {"stdout": "", "stderr": stderr, "exit": ran, "files": {}}
    (records, stats), _ = ran
    return {
        "stdout": "".join(schema_io.serialize_canonical(r) + "\n" for r in records),
        "stderr": "".join(sorted(stderr.splitlines(keepends=True))),
        "exit": 0,
        "files": {
            "stats": json.dumps(stats.to_json_value(), sort_keys=True),
            "filter_one": "".join(json.dumps(o, ensure_ascii=False) + "\n" for o in outcomes),
        },
    }


def _perfbench_batch(name: str, seed: int, b: int) -> Group:
    def run(work: Path) -> Iterator[tuple[str, Outputs]]:
        workload = _workload(name, seed, work)
        workload.workdir = work / "perfbench" / f"{name}-s{seed}-b{b}"
        prep, _, stderr = _captured(lambda: workload.prepare(b))
        case = f"perfbench/{name}/s{seed}/b{b}"
        if isinstance(prep, str):
            yield case, {"stdout": "", "stderr": stderr, "exit": prep, "files": {}}
            return
        if name.startswith("datagen"):
            yield case, _datagen_batch(workload, prep)
            return
        sidecars = getattr(prep, "sidecars", None)
        for j, argv in enumerate(prep.argvs):
            yield f"{case}/c{j}", _cli(argv, {"out": sidecars[j]} if sidecars else None)

    return run


def _library(seed: int, b: int) -> Group:
    def run(work: Path) -> Iterator[tuple[str, Outputs]]:
        from rec_eval import verify

        batch = _perfbench().corpus.score_batch(seed, b)
        for j, call in enumerate(batch.calls):
            def results(call: Any = call) -> None:
                index = verify.SourceIndex(call.body)
                print(json.dumps([span for _, span in verify.segment_sentences(call.body)]))
                snippets = [s for r in call.records for key in ("predicted_citations", "gold", "gold_a", "gold_b")
                            for s in r.get(key) or ()]
                for snippet in dict.fromkeys(snippets):
                    for policy in verify.MatchPolicy:
                        print(repr(_result(lambda: verify.verify_snippet(snippet, index, policy))))
                        print(repr(_result(lambda: verify.snap_to_sentences(snippet, index, policy))))

            raised, stdout, stderr = _captured(results)
            yield f"library/s{seed}/b{b}/c{j}", {"stdout": stdout, "stderr": stderr, "exit": raised or 0, "files": {}}

    return run


def _result(fn: Callable[[], Any]) -> Any:
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - which error is part of the result
        return f"raises {type(exc).__name__}: {exc}"


def groups() -> dict[str, Group]:
    """Every case group by id, in run order."""
    out: dict[str, Group] = {"help": _help}
    for name, group in (("evaluate", _evaluate), ("cite", _cite), ("render", _render), ("validate", _validate),
                        ("score", _score), ("judge", _judge), ("datagen", _datagen)):
        out[f"fixtures/{name}"] = group
    out["edge"] = _edge
    for name in WORKLOADS:
        for seed in SEEDS:
            for b in BATCHES:
                out[f"perfbench/{name}/s{seed}/b{b}"] = _perfbench_batch(name, seed, b)
    for seed in SEEDS:
        for b in LIBRARY_BATCHES:
            out[f"library/s{seed}/b{b}"] = _library(seed, b)
    return out


_TRACEBACK_LINE = re.compile(r'(File "<TREE>[^"]*", line )\d+')


def _worker(tree: Path, out: Path, select: list[str] | None) -> int:
    import rec_eval

    package = Path(rec_eval.__file__).resolve()
    if tree.resolve() / "src" not in package.parents:
        print(f"equiv: rec_eval was imported from {package}, not from {tree}/src", file=sys.stderr)
        return 2
    work = out / "work"
    work.mkdir(parents=True, exist_ok=True)
    replace = sorted({str(p): "<WORK>" for p in (out, out.resolve())}.items(), key=lambda kv: -len(kv[0]))
    replace += sorted({str(p): "<TREE>" for p in (tree, tree.resolve(), ROOT)}.items(), key=lambda kv: -len(kv[0]))

    def normal(text: str) -> str:
        for old, new in replace:
            text = text.replace(old, new)
        return _TRACEBACK_LINE.sub(r"\g<1>N", text)

    def sha(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()

    with open(out / "digests.jsonl", "w", encoding="utf-8") as digests, \
            open(out / "outputs.jsonl", "w", encoding="utf-8") as outputs:
        for group_id, group in groups().items():
            if select is not None and not any(group_id.startswith(prefix) for prefix in select):
                continue
            for case, result in group(work):
                streams = {"stdout": normal(result["stdout"]), "stderr": normal(result["stderr"]),
                           "exit": normal(str(result["exit"]))}
                streams.update({f"file:{name}": normal(text) for name, text in sorted(result["files"].items())})
                digests.write(json.dumps({"id": case, **{k: sha(v) for k, v in streams.items()}}) + "\n")
                outputs.write(json.dumps({"id": case, **streams}, ensure_ascii=False) + "\n")
    return 0


# --------------------------------------------------------------------------
# Comparing two trees


def _export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def _start(tree: Path, out: Path, select: list[str] | None) -> subprocess.Popen:
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0", COLUMNS="100")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--run-cases", str(tree), str(out)]
    cmd += ["--select", *select] if select is not None else []
    return subprocess.Popen(cmd, cwd=out, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _digests(proc: subprocess.Popen, out: Path) -> dict[str, dict]:
    stdout, stderr = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"the case runner exited {proc.returncode}: {(stdout + stderr)[-3000:]}")
    lines = (out / "digests.jsonl").read_text(encoding="utf-8").splitlines()
    return {d.pop("id"): d for d in map(json.loads, lines)}


def run_tree(tree: Path, out: Path, select: list[str] | None = None) -> dict[str, dict]:
    """Every case's digests on tree's package, by case id; select keeps the groups with these id prefixes."""
    return _digests(_start(tree, out, select), out)


def differing(parent: dict[str, dict], change: dict[str, dict]) -> list[str]:
    """The case ids whose digests differ, or that only one side ran, in run order."""
    ids = list(parent) + [case for case in change if case not in parent]
    return [case for case in ids if parent.get(case) != change.get(case)]


def _read_allow(path: str | None) -> list[str]:
    if not path:
        return []
    lines = (line.split("#", 1)[0].strip() for line in Path(path).read_text(encoding="utf-8").splitlines())
    return [line for line in lines if line]


def _outputs(out: Path, case: str) -> dict[str, str]:
    with open(out / "outputs.jsonl", encoding="utf-8") as fh:
        for line in fh:
            entry = json.loads(line)
            if entry["id"] == case:
                return entry
    return {}


def _diff(parent_out: Path, change_out: Path, case: str, limit: int = 80) -> list[str]:
    parent, change = _outputs(parent_out, case), _outputs(change_out, case)
    for stream in [k for k in parent if k != "id"] + [k for k in change if k not in parent]:
        if parent.get(stream) != change.get(stream):
            lines = list(difflib.unified_diff(
                (parent.get(stream) or "").splitlines(), (change.get(stream) or "").splitlines(),
                f"parent {case} {stream}", f"change {case} {stream}", lineterm=""))
            return lines[:limit] + ([f"... {len(lines) - limit} more lines"] if len(lines) > limit else [])
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="git revision to compare this checkout with")
    parser.add_argument("--allow", help="file of case ids (or fnmatch patterns) expected to differ")
    parser.add_argument("--run-cases", nargs=2, metavar=("TREE", "OUT"), help=argparse.SUPPRESS)
    parser.add_argument("--select", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.run_cases:
        tree, out = map(Path, args.run_cases)
        return _worker(tree, out, args.select)
    if not args.parent:
        parser.error("--parent is required")
    allow = _read_allow(args.allow)
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="equiv-") as tmp:
        parent_tree, parent_out, change_out = Path(tmp) / "parent", Path(tmp) / "out-parent", Path(tmp) / "out-change"
        _export(args.parent, parent_tree)
        procs = [(_start(parent_tree, parent_out, args.select), parent_out),
                 (_start(ROOT, change_out, args.select), change_out)]
        try:
            parent, change = (_digests(proc, out) for proc, out in procs)
        finally:
            for proc, _ in procs:
                if proc.poll() is None:  # the other tree's runner failed first
                    proc.kill()
                    proc.communicate()
        differ = differing(parent, change)
        unexpected = [case for case in differ if not any(fnmatch.fnmatchcase(case, p) for p in allow)]
        for case in differ:
            print(f"differs{'' if case in unexpected else ' (allowed)'}: {case}")
        if unexpected:
            print("\n".join(_diff(parent_out, change_out, unexpected[0])))
    for pattern in allow:
        if not any(fnmatch.fnmatchcase(case, pattern) for case in differ):
            print(f"allowed but identical: {pattern}")
    print(f"equiv: {len(set(parent) | set(change))} cases in {time.perf_counter() - started:.1f} s; "
          f"{len(differ)} differ, {len(differ) - len(unexpected)} of them allowed")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
