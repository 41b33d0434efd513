"""Span recorder for the traced run.

Spans are recorded by wrappers installed at runtime on the names that
callers bind (``datagen.filter_one``, ``Gateway.complete``,
``metrics.snap_to_sentences``, ...); the package itself is never edited.
Each span holds its name, start and end (``perf_counter_ns``), its parent
span on the same thread, the client call it belongs to, and a small result
tag. Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable

# (owner, attribute, span name, tag function or None). The tag function
# receives (args, kwargs, result) and returns a small JSON value.
Target = tuple[Any, str, str, "Callable[[tuple, dict, Any], Any] | None"]

# Spans whose time is spent waiting on other threads: they are children for
# their parent's self time but count towards no layer's busy time.
WAIT_SPANS = frozenset({"gateway.batch"})

# Counts and times are per traced item; fractions are shares of calls.
LAYER_UNITS = {
    "prompts.calls": "calls/item",
    "prompts.busy_ms": "ms/item",
    "gateway.calls": "calls/item",
    "gateway.retries": "calls/item",
    "gateway.failed": "calls/item",
    "gateway.self_ms": "ms/item",
    "gateway.backend_wait_ms": "ms/item",
    "gateway.concurrency_mean": "calls",
    "schema_io.parse_calls": "calls/item",
    "schema_io.parse_busy_ms": "ms/item",
    "schema_io.parse_ok_frac": "frac",
    "schema_io.parse_raised": "calls/item",
    "schema_io.serialize_busy_ms": "ms/item",
    "verify.snippet_calls": "calls/item",
    "verify.busy_ms": "ms/item",
    "verify.context_chars_per_item": "chars/item",
    "verify.segment_calls": "calls/item",
    "verify.verbatim_frac": "frac",
    "render.calls": "calls/item",
    "render.busy_ms": "ms/item",
    "metrics.prf_calls": "calls/item",
    "metrics.prf_busy_ms": "ms/item",
    "metrics.snap_calls": "calls/item",
    "metrics.snap_miss_frac": "frac",
    "datagen.busy_ms": "ms/item",
    "datagen.io_wall_ms": "ms/item",
    "datagen.filter_busy_ms": "ms/item",
    "datagen.overlap_frac": "frac",
    "datagen.kept_frac": "frac",
    "cli.calls": "calls/item",
    "cli.busy_ms": "ms/item",
    "trace.overhead_ms_per_item": "ms/item",
    "trace.overhead_frac": "frac",
}


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[list[Any]] = []  # [name, start, end, parent, item, thread, tag, raised]
        self.item: Any = None
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, original: Callable, name: str, tag: Callable | None) -> Callable:
        spans = self.spans
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = [name, clock(), 0, stack[-1] if stack else None, self.item,
                    threading.get_ident(), None, None]
            spans.append(span)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span[7] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if tag is not None:
                span[6] = tag(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper

    def install(self) -> None:
        for owner, attr, name, tag in self.targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, tag))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, item, thread, tag, raised) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start_ns": start, "end_ns": end,
                    "parent": index.get(id(parent)) if parent is not None else None,
                    "item": item, "thread": thread, "tag": tag, "raised": raised,
                }, ensure_ascii=False))
                fh.write("\n")


def _union_ns(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    merged: list[list[int]] = []
    for s, e in sorted(intervals):
        if merged and s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    return [(s, e) for s, e in merged]


def _covered_ns(interval: tuple[int, int], union: list[tuple[int, int]]) -> int:
    s, e = interval
    return sum(max(0, min(e, ue) - max(s, us)) for us, ue in union)


def layer_metrics(spans: list[list[Any]], items: int) -> dict[str, float]:
    """Per-layer metrics, normalized per traced item where they are counts."""
    child_ns: dict[int, int] = {}
    for span in spans:
        parent = span[3]
        if parent is not None:
            child_ns[id(parent)] = child_ns.get(id(parent), 0) + span[2] - span[1]

    count: dict[str, int] = {}
    dur_ms: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    raised: dict[str, int] = {}
    for span in spans:
        name = span[0]
        d = span[2] - span[1]
        count[name] = count.get(name, 0) + 1
        dur_ms[name] = dur_ms.get(name, 0.0) + d / 1e6
        self_ms[name] = self_ms.get(name, 0.0) + (d - child_ns.get(id(span), 0)) / 1e6
        if span[7] is not None:
            raised[name] = raised.get(name, 0) + 1

    def layer_self(prefix: str) -> float:
        return sum(v for k, v in self_ms.items() if k.startswith(prefix) and k not in WAIT_SPANS)

    def tags(name: str) -> list[Any]:
        return [s[6] for s in spans if s[0] == name and s[7] is None]

    per = 1.0 / items if items else 0.0
    n = count.get

    def frac(a: float, b: float) -> float:
        return a / b if b else 0.0

    sends = [(s[1], s[2]) for s in spans if s[0] == "gateway.send"]
    send_union = _union_ns(sends)
    union_len = sum(e - s for s, e in send_union)
    outstanding = _union_ns([(s[1], s[2]) for s in spans if s[0] == "gateway.complete"])
    filters = [(s[1], s[2]) for s in spans if s[0] == "datagen.filter"]
    filter_ns = sum(e - s for s, e in filters)
    overlap_ns = sum(_covered_ns(f, outstanding) for f in filters)

    parse_tags = tags("schema_io.parse")
    snippet_tags = tags("verify.snippet")
    gen_tags = tags("datagen.generate")
    snap_calls = n("metrics.snap", 0)

    return {
        "prompts.calls": n("prompts.build", 0) * per,
        "prompts.busy_ms": layer_self("prompts.") * per,
        "gateway.calls": n("gateway.complete", 0) * per,
        "gateway.retries": (n("gateway.send", 0) - n("gateway.complete", 0)) * per,
        "gateway.failed": raised.get("gateway.complete", 0) * per,
        "gateway.self_ms": self_ms.get("gateway.complete", 0.0) * per,
        "gateway.backend_wait_ms": dur_ms.get("gateway.send", 0.0) * per,
        "gateway.concurrency_mean": frac(sum(e - s for s, e in sends), union_len),
        "schema_io.parse_calls": n("schema_io.parse", 0) * per,
        "schema_io.parse_busy_ms": self_ms.get("schema_io.parse", 0.0) * per,
        "schema_io.parse_ok_frac": frac(sum(1 for t in parse_tags if t), n("schema_io.parse", 0)),
        "schema_io.parse_raised": raised.get("schema_io.parse", 0) * per,
        "schema_io.serialize_busy_ms": self_ms.get("schema_io.serialize", 0.0) * per,
        "verify.snippet_calls": n("verify.snippet", 0) * per,
        "verify.busy_ms": layer_self("verify.") * per,
        "verify.context_chars_per_item": sum(t[0] for t in snippet_tags) * per,
        "verify.segment_calls": n("verify.segment", 0) * per,
        "verify.verbatim_frac": frac(sum(1 for t in snippet_tags if t[1]), len(snippet_tags)),
        "render.calls": n("render", 0) * per,
        "render.busy_ms": layer_self("render") * per,
        "metrics.prf_calls": n("metrics.prf", 0) * per,
        "metrics.prf_busy_ms": dur_ms.get("metrics.prf", 0.0) * per,
        "metrics.snap_calls": snap_calls * per,
        "metrics.snap_miss_frac": frac(raised.get("metrics.snap", 0), snap_calls),
        "datagen.busy_ms": layer_self("datagen.") * per,
        "datagen.io_wall_ms": sum(
            s[2] - s[1] for s in spans
            if s[0] == "gateway.batch" and s[3] is not None and s[3][0] == "datagen.generate"
        ) / 1e6 * per,
        "datagen.filter_busy_ms": dur_ms.get("datagen.filter", 0.0) * per,
        "datagen.overlap_frac": frac(overlap_ns, filter_ns),
        "datagen.kept_frac": frac(sum(t[0] for t in gen_tags), sum(t[1] for t in gen_tags)),
        "cli.calls": n("cli.main", 0) * per,
        "cli.busy_ms": layer_self("cli.") * per,
    }
