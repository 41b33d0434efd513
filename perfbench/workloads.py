"""Workload runners: set-up, one timed batch, and the check of its outputs.

A runner prepares batch ``b`` (generate inputs, write files: untimed), runs
it (timed: the client calls into the package), then checks every item
against the outcome the corpus planted (untimed). An item that disagrees is
a known failure when it carries a ROADMAP defect tag and an unexpected
failure otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import math
import os
import re
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import corpus

_KEY_RE = re.compile(r"Item (\d+x\d+)\.")


class _Discard(io.TextIOBase):
    def write(self, s: str) -> int:
        return len(s)


@dataclass(frozen=True)
class Call:
    """Timing of one client call, with the reference time measured around it."""

    wall: float
    cpu: float
    ref: float


def timed_calls(fns: list[Callable[[], Any]], probe: Callable[[], float]) -> tuple[list[Any], list[Call]]:
    """Run each call, timing it, with reference probes between calls.

    After a long call the reference is probed more often (about 1% of the
    call's CPU time, up to five probes) and the median is kept, so the speed
    estimate for long calls is less noisy.
    """
    results, calls = [], []
    before = probe()
    for fn in fns:
        c0 = time.process_time()
        t0 = time.perf_counter()
        results.append(fn())
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        after = statistics.median(probe() for _ in range(min(5, 1 + int(cpu / 0.1))))
        calls.append(Call(wall, cpu, (before + after) / 2))
        before = after
    return results, calls


@dataclass
class Checked:
    items: int = 0
    failed: int = 0  # disagreements on items with no known-defect tag
    known: dict[str, int] = field(default_factory=dict)  # ROADMAP id -> disagreements
    notes: list[str] = field(default_factory=list)

    def fail(self, known: str | None, note: str) -> None:
        if known:
            self.known[known] = self.known.get(known, 0) + 1
        else:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(note)


def _import_package():
    import rec_eval  # noqa: F401
    from rec_eval import cli, datagen, gateway, metrics, model, prompts, render, schema_io, verify

    return {
        "cli": cli, "datagen": datagen, "gateway": gateway, "metrics": metrics, "model": model,
        "prompts": prompts, "render": render, "schema_io": schema_io, "verify": verify,
    }


def _quiet_logging() -> None:
    # The CLI configures logging only when the root logger has no handler;
    # giving it one that discards keeps warnings off the benchmark's output
    # while still formatting them as a terminal run would.
    root = logging.getLogger()
    for handler in list(root.handlers):
        root.removeHandler(handler)
    logging.basicConfig(stream=_Discard(), level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")


def trace_targets(pkg: dict[str, Any]) -> list:
    """Wrap points, at the names callers bind, for each layer."""
    cli, datagen, gateway = pkg["cli"], pkg["datagen"], pkg["gateway"]
    metrics, prompts, render = pkg["metrics"], pkg["prompts"], pkg["render"]
    schema_io, verify = pkg["schema_io"], pkg["verify"]
    normalized = verify.MatchPolicy.NORMALIZED

    def parse_tag(args, kwargs, result):
        return result[0] is not None

    def snippet_tag(args, kwargs, result):
        policy = args[2] if len(args) > 2 else kwargs.get("policy", normalized)
        context = args[1] if len(args) > 1 else kwargs["context"]
        body = context if isinstance(context, str) else context.body
        return (len(body) if policy is normalized else 0, result.found)

    def generate_tag(args, kwargs, result):
        stats = result[1]
        return (stats.kept, stats.total)

    targets = []
    for owner in (datagen, cli):
        for attr in ("build_pointwise_prompt", "build_quality_prompt", "build_rag_cite_prompt"):
            if hasattr(owner, attr):
                targets.append((owner, attr, "prompts.build", None))
    targets.append((prompts, "_fill", "prompts.fill", None))
    targets += [
        (gateway.Gateway, "complete_batch", "gateway.batch", None),
        (gateway.Gateway, "complete", "gateway.complete", None),
        (gateway.MockBackend, "send", "gateway.send", None),
        (schema_io, "try_parse_quality_output", "schema_io.parse", parse_tag),
        (schema_io, "try_parse_rag_output", "schema_io.parse", parse_tag),
        (schema_io, "try_parse_pointwise", "schema_io.parse", parse_tag),
        (schema_io, "serialize_canonical", "schema_io.serialize", None),
    ]
    for owner in (datagen, cli):
        targets.append((owner, "verify_quality_output", "verify.output", None))
        targets.append((owner, "verify_rag_output", "verify.output", None))
    targets += [
        (verify, "verify_snippet", "verify.snippet", snippet_tag),
        (render, "verify_snippet", "verify.snippet", snippet_tag),
        (verify, "segment_sentences", "verify.segment", None),
        (cli, "render_quality", "render", None),
        (cli, "render_rag", "render", None),
        (cli, "citation_prf", "metrics.prf", None),
        (cli, "gold_intersection", "metrics.gold", None),
        (metrics, "snap_to_sentences", "metrics.snap", None),
        (datagen, "generate", "datagen.generate", generate_tag),
        (datagen, "filter_one", "datagen.filter", None),
        (cli, "main", "cli.main", None),
    ]
    return targets


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.pkg: dict[str, Any] = {}

    def setup(self) -> None:
        """Import the package, build the backend, prepare the first batch."""
        self.pkg = _import_package()
        _quiet_logging()
        self.build()
        self.first = self.prepare(0)

    def build(self) -> None:
        pass

    def prepare(self, b: int) -> Any:
        raise NotImplementedError

    def run(self, prep: Any, probe: Callable[[], float]) -> tuple[Any, list[Call]]:
        """Make the batch's client calls; return the results and their timings.

        ``probe`` measures the machine-speed reference; it runs between
        calls, outside their timings.
        """
        raise NotImplementedError

    def items(self, prep: Any) -> int:
        raise NotImplementedError

    def check(self, prep: Any, results: Any) -> Checked:
        raise NotImplementedError


# --------------------------------------------------------------------------
# datagen


def job_for(jobs: dict[str, corpus.Job], prompt: str) -> corpus.Job:
    """The job a prompt was built for, from its item marker and metric name."""
    key = _KEY_RE.search(prompt).group(1)
    job = jobs.get(key)
    if job is None:
        for metric in corpus.METRICS:
            if metric in prompt:
                return jobs[f"{key}:{metric}"]
    return job


class _ScriptedModel:
    """Mock model: finds the job named in the prompt and answers for it."""

    def __init__(self, gateway_mod):
        self.jobs: dict[str, corpus.Job] = {}
        self._attempts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._gw = gateway_mod

    def start(self, jobs: dict[str, corpus.Job]) -> None:
        self.jobs = jobs
        self._attempts.clear()

    def latency(self, prompt: str) -> float:
        return job_for(self.jobs, prompt).latency_s

    def respond(self, prompt: str) -> str:
        job = job_for(self.jobs, prompt)
        if job.error == "refusal":
            raise self._gw.BackendRefusalError("planted refusal")
        if job.error == "flaky":
            with self._lock:
                attempt = self._attempts.get(job.key, 0)
                self._attempts[job.key] = attempt + 1
            if attempt == 0:
                raise self._gw.TransportError("planted transport fault")
        return job.reply


class DatagenWorkload(Workload):
    parallelism = 1
    latency = False
    calls_per_batch = 1

    def build(self) -> None:
        gw = self.pkg["gateway"]
        self.model = _ScriptedModel(gw)
        self.backend = gw.MockBackend(
            self.model.respond, latency_fn=self.model.latency if self.latency else None
        )
        self.gateway = gw.Gateway(self.backend, max_retries=2, backoff_s=0.002)
        self.metrics = self.pkg["model"].metric_catalog()

    def prepare(self, b: int) -> Any:
        batch = corpus.make_batch(self.name, self.seed, b)
        datagen = self.pkg["datagen"]
        task_type = self.pkg["model"].TaskType
        types = {"citation": task_type.CITATION, "pointwise": task_type.POINTWISE_EVAL}
        batch.sources = [
            datagen.SourceRecord(r["source_dataset"], types[r["task_type"]], r["inputs"])
            for r in batch.records
        ]
        batch.config = datagen.PipelineConfig(
            parallelism=self.parallelism, max_tokens=batch.max_tokens
        )
        return batch

    def run(self, prep: Any, probe: Callable[[], float]) -> tuple[Any, list[Call]]:
        self.model.start(prep.jobs)
        # MockBackend keeps every prompt it is sent, for test assertions; a
        # real backend does not, so drop them lest peak RSS grow with run length.
        self.backend.calls.clear()
        generate = self.pkg["datagen"].generate
        # Record j goes to call j % n, so every call spans the size strata.
        n = self.calls_per_batch
        groups = [prep.sources[k::n] for k in range(n)]
        results, calls = timed_calls(
            [lambda g=g: generate(g, self.metrics, self.gateway, config=prep.config) for g in groups],
            probe,
        )
        out = [record for records, _ in results for record in records]
        stats = self.pkg["datagen"].FilterStats()
        for _, part in results:
            for name, value in part.to_json_value().items():
                setattr(stats, name, getattr(stats, name) + value)
        return (out, stats), calls

    def items(self, prep: Any) -> int:
        return len(prep.jobs)

    def check(self, prep: Any, results: Any) -> Checked:
        out, stats = results
        c = Checked(items=len(prep.jobs))
        seen = {job_for(prep.jobs, record.prompt).key: record for record in out}
        actual_counts = {k: 0 for k in prep.expected_stats()}
        actual_counts["total"] = len(prep.jobs)
        for key, job in prep.jobs.items():
            record = seen.get(key)
            if record is None:
                bucket = "transport"
            else:
                bucket = {
                    "Kept": "kept", "RejectedBadJson": "bad_json",
                    "RejectedNonVerbatim": "non_verbatim", "RejectedTooLong": "too_long",
                }.get(record.filter_status.value, record.filter_status.value)
            actual_counts["kept" if bucket == "kept" else "rejected_" + bucket] += 1
            if bucket != job.bucket:
                c.fail(job.known, f"{key}: bucket {bucket}, planted {job.bucket}")
            elif bucket == "kept" and record.completion != job.canonical:
                c.fail(job.known, f"{key}: kept completion differs from the canonical reply")
        if stats.to_json_value() != actual_counts:
            c.fail(None, f"FilterStats {stats.to_json_value()} disagree with the records {actual_counts}")
        return c


class DatagenCite(DatagenWorkload):
    name = "datagen-cite"
    # Shorter calls let the speed probes between them track the machine.
    calls_per_batch = 3


class DatagenOverlap(DatagenWorkload):
    name = "datagen-overlap"
    latency = True

    @property
    def parallelism(self) -> int:  # type: ignore[override]
        return nproc()


# --------------------------------------------------------------------------
# CLI workloads


def _call_cli(cli_mod, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_mod.main(argv)
    return code, out.getvalue()


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


class CliWorkload(Workload):
    """A workload whose client calls are `rec` command lines, run in-process."""

    def run(self, prep: Any, probe: Callable[[], float]) -> tuple[Any, list[Call]]:
        cli = self.pkg["cli"]
        return timed_calls([lambda argv=argv: _call_cli(cli, argv) for argv in prep.argvs], probe)


class ScoreWorkload(CliWorkload):
    name = "score"

    def prepare(self, b: int) -> Any:
        batch = corpus.score_batch(self.seed, b)
        d = self.workdir / "batch"
        d.mkdir(parents=True, exist_ok=True)
        batch.argvs = []
        for j, call in enumerate(batch.calls):
            pred = _write(d / f"pred{j}.jsonl", "".join(
                json.dumps(r, ensure_ascii=False) + "\n" for r in call.records))
            ctx = _write(d / f"ctx{j}.jsonl", json.dumps(
                {"context_id": call.context_id, "body": call.body}, ensure_ascii=False) + "\n")
            batch.argvs.append(["score", "--pred", pred, "--contexts", ctx])
        return batch

    def items(self, prep: Any) -> int:
        return sum(len(c.records) for c in prep.calls)

    def check(self, prep: Any, results: Any) -> Checked:
        c = Checked(items=self.items(prep))
        for call, (code, out) in zip(prep.calls, results):
            expected = call.expected()
            try:
                got = json.loads(out) if code == 0 else None
            except ValueError:
                got = None
            if got is None or got.get("n") != expected["n"] or got.get("excluded_halu") != expected["excluded_halu"]:
                for _ in call.records:
                    c.fail(None, f"{call.context_id}: exit {code} or report totals differ")
                continue
            for name, want in expected["per_metric"].items():
                have = got["per_metric"].get(name)
                if have is None or not _close(have, want):
                    c.fail(call.known.get(name), f"{call.context_id}/{name}: {have} != {want}")
        return c


def _close(a: Any, b: Any) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, float) or isinstance(b, float):
        return a is not None and b is not None and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    return a == b


class EvaluateWorkload(CliWorkload):
    name = "evaluate"

    def prepare(self, b: int) -> Any:
        batch = corpus.evaluate_batch(self.seed, b)
        d = self.workdir / "batch"
        d.mkdir(parents=True, exist_ok=True)
        batch.argvs, batch.sidecars = [], []
        for j, call in enumerate(batch.calls):
            script = _write(d / f"script{j}.json", json.dumps(
                {"rules": [], "default": call.reply}, ensure_ascii=False))
            sidecar = d / f"sidecar{j}.json"
            if sidecar.exists():
                sidecar.unlink()
            if call.command == "evaluate":
                argv = ["evaluate",
                        "--context", _write(d / f"context{j}.txt", call.files["context"]),
                        "--generation", _write(d / f"generation{j}.txt", call.files["generation"]),
                        "--metric", call.metric]
            else:
                argv = ["cite",
                        "--chunks", _write(d / f"chunks{j}.json", call.files["chunks"]),
                        "--answer", _write(d / f"answer{j}.txt", call.files["answer"])]
            argv += ["--mode", call.mode, "--backend", "mock:" + script,
                     "--format", "json", "--out", str(sidecar)]
            batch.argvs.append(argv)
            batch.sidecars.append(sidecar)
        return batch

    def items(self, prep: Any) -> int:
        return len(prep.calls)

    def check(self, prep: Any, results: Any) -> Checked:
        c = Checked(items=len(prep.calls))
        for j, (call, (code, out)) in enumerate(zip(prep.calls, results)):
            where = f"call {j} ({call.command} {call.mode}, {call.hostile or 'benign'})"
            if code != call.exit_code:
                c.fail(call.known, f"{where}: exit {code}, planted {call.exit_code}")
                continue
            if code != 0:
                continue
            try:
                rendered = json.loads(out)
                sidecar = json.loads(prep.sidecars[j].read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                c.fail(call.known, f"{where}: unreadable output ({exc})")
                continue
            refs = rendered.get("references", [])
            if call.command == "evaluate":
                got = [r["snippet"] for r in refs]
                verdict = json.loads(sidecar["completion_canonical"])["answer"]
            else:
                got = [r["label"] for r in refs]
                verdict = None
            if got != call.references or verdict != call.verdict:
                c.fail(call.known, f"{where}: references {got} / verdict {verdict} differ")
        return c


WORKLOADS = {w.name: w for w in (DatagenCite, DatagenOverlap, ScoreWorkload, EvaluateWorkload)}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1
