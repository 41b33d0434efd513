"""Seeded synthetic corpus for the benchmark, with planted expected outcomes.

Every workload reads an endless sequence of batches; batch ``b`` of a
workload is a pure function of ``(workload, seed, b)``, so the same seed
always gives byte-identical inputs and no run ever sees the same batch twice
(a cache keyed on input text cannot score hits from repetition).

Each batch is stratified: its items take context sizes from evenly spaced
quantiles of the workload's size distribution, shifted per batch along a van
der Corput sequence. Every batch, and every prefix of the batch sequence,
therefore covers the whole size range. What sets an item's cost (its size
stratum, citation count, chunk count, and whether it carries a planted
fault) is a function of its position in the batch, not of the seed; the seed
changes the text, the snippets cited and the replies. This keeps per-batch
cost, and so the per-run medians, steady across seeds.

The generator plants the outcome that correct code must produce:

* datagen: the FilterStats bucket of every job and the canonical completion
  of every kept record;
* score: a reference oracle (``score_oracle``) computes the expected report
  from the spec (NFC plus collapsed whitespace, sentence segmentation,
  snap-then-compare) with code that shares nothing with the package;
* evaluate/cite: the exit code, and for exit 0 the verdict and the reference
  list the renderer must print.

Items that exercise a defect the seed code is known to have carry a
``known`` tag naming the ROADMAP item (3a, 3b, 3d). Their planted outcome is
still the correct one, so the program disagrees on them until it is fixed.
"""

from __future__ import annotations

import json
import random
import re
import unicodedata
from dataclasses import dataclass, field
from typing import Any

WORKLOADS = ("datagen-cite", "datagen-overlap", "score", "evaluate")

METRICS = ("Faithfulness", "InstructionFollowing", "Coherence", "Completeness")
RAG_MODES = ("postfix", "inline", "postfix-snippet", "inline-snippet")
QUALITY_MODES = ("postfix-snippet", "inline-snippet")
NO_SUPPORT = "None"

# datagen-cite runs with this budget so that the largest kept record fits;
# planted too-long replies are padded past it.
CITE_MAX_TOKENS = 14000
_TOKENS_PER_WORD = 1.3
_TEMPLATE_WORDS_MAX = 600  # upper bound on any packaged template's word count
_TOKEN_MARGIN = 300

_SYLLABLES = (
    "ka", "lo", "ren", "ti", "mar", "so", "vel", "dun", "pa", "qui", "ber",
    "nol", "fi", "gar", "us", "te", "li", "mon", "ar", "ek", "zo", "han",
    "bri", "tal", "om", "sef", "ru", "cai", "dor", "ni",
)

# Words whose NFD form differs from their NFC form (combining marks after a
# base letter). The package composes these correctly.
_DECOMPOSABLE = (
    "café", "naïve", "Zürich", "São", "Ångström", "Dvořák", "façade",
    "jalapeño", "crème", "brûlée", "über", "résumé", "Málaga", "Łódź",
    "Ελλάδα", "λόγος", "Йорк", "ёлка",
)
_OTHER_NON_ASCII = ("東京", "日本語", "Øresund", "straße", "Kraków", "Ξάνθη")
# Precomposed Hangul. Its NFD form is conjoining jamo, which the seed's
# normalizer never recomposes (ROADMAP 3d), so Hangul stays NFC except in
# items planted to show that defect.
_HANGUL = ("한국어", "서울", "바다", "하늘", "사람", "도서관")

_NOT_IN_ANY_CONTEXT = "nonverbatim7"  # contains a digit; vocabulary words never do


def _nfc(words: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(unicodedata.normalize("NFC", w) for w in words)


def _build_vocab() -> tuple[str, ...]:
    rng = random.Random("perfbench-vocab")
    words: set[str] = set()
    while len(words) < 4000:
        words.add("".join(rng.choice(_SYLLABLES) for _ in range(rng.choice((1, 2, 2, 3, 3, 4)))))
    return tuple(sorted(words))


VOCAB = _build_vocab()
DECOMPOSABLE = _nfc(_DECOMPOSABLE)
NON_ASCII_NFD_SAFE = DECOMPOSABLE + _nfc(_OTHER_NON_ASCII)
NON_ASCII_ALL = NON_ASCII_NFD_SAFE + _nfc(_HANGUL)
HANGUL = _nfc(_HANGUL)


def ref_normalize(text: str) -> str:
    """The spec's Normalized form: exactly NFC plus collapsed whitespace."""
    return " ".join(unicodedata.normalize("NFC", text).split())


def vdc(n: int) -> float:
    """Van der Corput radical inverse of n in base 2, in [0, 1)."""
    out, denom = 0.0, 1.0
    while n:
        denom *= 2.0
        n, bit = divmod(n, 2)
        out += bit / denom
    return out


def _stratified(b: int, m: int, seed: int) -> list[float]:
    """m quantiles in [0, 1), one per stratum, shifted by batch b."""
    shift = (vdc(b + 1) + (seed % 97) / 97.0 / m) % 1.0
    return [(j + shift) / m for j in range(m)]


def _rng(workload: str, seed: int, b: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{b}")


def canonical(value: Any) -> str:
    """The package's documented canonical JSON text form."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


@dataclass
class Shares:
    """Measured input properties of a batch, summed over the batch."""

    words: int = 0
    non_ascii_words: int = 0
    contexts: int = 0
    non_nfc_contexts: int = 0
    replies: int = 0
    malformed_replies: int = 0
    items: int = 0
    shared_context_items: int = 0

    def add(self, other: "Shares") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def fractions(self) -> dict[str, float]:
        def frac(a: int, b: int) -> float:
            return a / b if b else 0.0

        return {
            "non_ascii_word_frac": frac(self.non_ascii_words, self.words),
            "non_nfc_context_frac": frac(self.non_nfc_contexts, self.contexts),
            "malformed_reply_frac": frac(self.malformed_replies, self.replies),
            "shared_context_frac": frac(self.shared_context_items, self.items),
        }


class TextMaker:
    """Random prose from a fixed vocabulary, with a share of non-ASCII words."""

    def __init__(self, rng: random.Random, shares: Shares, non_ascii: float = 0.10):
        self.rng = rng
        self.shares = shares
        self.non_ascii = non_ascii

    def words(self, n: int, pool: tuple[str, ...] = NON_ASCII_ALL) -> list[str]:
        rng = self.rng
        out = rng.choices(VOCAB, k=n)
        hits = 0
        for i in range(n):
            if rng.random() < self.non_ascii:
                out[i] = rng.choice(pool)
                hits += 1
        self.shares.words += n
        self.shares.non_ascii_words += hits
        return out

    def sentence(self, lo: int = 8, hi: int = 18, pool: tuple[str, ...] = NON_ASCII_ALL) -> str:
        words = self.words(self.rng.randint(lo, hi), pool)
        words[0] = words[0][:1].upper() + words[0][1:]
        return " ".join(words) + self.rng.choice(".....?!")

    def sentences_until(self, chars: int, pool: tuple[str, ...] = NON_ASCII_ALL) -> list[str]:
        out: list[str] = []
        total = 0
        while total < chars or not out:
            s = self.sentence(pool=pool)
            out.append(s)
            total += len(s) + 1
        return out

    def join(self, sentences: list[str]) -> str:
        """Sentences as a body: varied whitespace, paragraph breaks, no mid-sentence newline."""
        rng = self.rng
        parts: list[str] = []
        for i, s in enumerate(sentences):
            if rng.random() < 0.04:
                s = s.replace(" ", "  ", 1)
            if i:
                r = rng.random()
                parts.append("\n\n" if r < 0.12 else "  " if r < 0.2 else " ")
            parts.append(s)
        return "".join(parts)

    def snippet(self, sentence: str, whole: float = 0.35) -> str:
        """A whole sentence, or a run of at least five of its words."""
        words = sentence.split(" ")
        if len(words) <= 6 or self.rng.random() < whole:
            return sentence
        k = self.rng.randint(5, min(10, len(words) - 1))
        start = self.rng.randint(0, len(words) - k)
        return " ".join(words[start : start + k])


def _hangul_sentence(text: TextMaker) -> str:
    """A sentence that carries a Hangul word, in NFC."""
    words = text.words(text.rng.randint(8, 14), NON_ASCII_NFD_SAFE)
    words[0] = words[0][:1].upper() + words[0][1:]
    words[text.rng.randint(2, len(words) - 1)] = text.rng.choice(HANGUL)
    return " ".join(words) + "."


def _hangul_snippet(sentence: str) -> str:
    """A run of words of the sentence that includes its Hangul word."""
    words = sentence.rstrip(".").split(" ")
    pos = next(i for i, w in enumerate(words) if w in HANGUL)
    lo = max(0, pos - 3)
    return " ".join(words[lo : lo + 6])


# --------------------------------------------------------------------------
# datagen


@dataclass
class Job:
    """One datagen job: its planted reply, latency and expected bucket."""

    key: str  # "<batch>x<record>" or "<batch>x<record>:<metric>"
    reply: str | None  # None with error set
    error: str | None = None  # "refusal": no retry; "flaky": one transport fault, then reply
    latency_s: float = 0.0
    bucket: str = "kept"  # kept | bad_json | non_verbatim | too_long | transport
    canonical: str | None = None  # expected completion of a kept record
    known: str | None = None  # ROADMAP id of a seed defect this job exercises


@dataclass
class DatagenBatch:
    records: list[dict[str, Any]]  # {"source_dataset", "task_type", "inputs"}
    jobs: dict[str, Job]
    shares: Shares
    max_tokens: float

    def expected_stats(self) -> dict[str, int]:
        stats = {"total": len(self.jobs), "kept": 0, "rejected_bad_json": 0,
                 "rejected_non_verbatim": 0, "rejected_too_long": 0,
                 "rejected_transport": 0, "cancelled": 0}
        for job in self.jobs.values():
            stats["kept" if job.bucket == "kept" else "rejected_" + job.bucket] += 1
        return stats

    def to_json_value(self) -> dict[str, Any]:
        return {
            "records": self.records,
            "jobs": {k: vars(j) for k, j in sorted(self.jobs.items())},
            "max_tokens": self.max_tokens,
        }


def _tokens(words: int) -> float:
    return _TOKENS_PER_WORD * words


def _wc(text: str) -> int:
    return len(text.split())


def _wrap_prose(rng: random.Random, body: str) -> str:
    r = rng.random()
    if r < 0.15:
        return "Here is my evaluation.\n```json\n" + body + "\n```\nLet me know if anything is unclear."
    if r < 0.3:
        return "Sure! " + body
    return body


def _quality_reply(
    text: TextMaker,
    sentences: list[str],
    n_cit: int,
    *,
    forced: list[str] | None = None,
) -> dict[str, Any]:
    """A valid rate/explain/cite object citing distinct snippets of sentences."""
    rng = text.rng
    n_st = rng.randint(2, 4)
    statements = [text.sentence(6, 12) for _ in range(n_st)]
    snippets: list[str] = list(forced or [])
    seen = {ref_normalize(s) for s in snippets}
    tries = 0
    while len(snippets) < n_cit and tries < 10 * n_cit:
        tries += 1
        s = text.snippet(rng.choice(sentences))
        if ref_normalize(s) not in seen:
            seen.add(ref_normalize(s))
            snippets.append(s)
    rng.shuffle(snippets)
    groups: list[list[Any]] = [[] for _ in statements]
    for i, s in enumerate(snippets):
        groups[i % n_st if i < n_st else rng.randrange(n_st)].append(
            s if rng.random() < 0.5 else {"snippet": s}
        )
    feedback = " ".join(statements)
    if rng.random() < 0.5:
        feedback += " " + text.sentence(6, 10)
    return {
        "answer": rng.choice(("Yes", "No")),
        "feedback": feedback,
        "statements": [
            {"statement_string": st, "citations": cits} for st, cits in zip(statements, groups)
        ],
    }


def _quality_canonical(obj: dict[str, Any]) -> str:
    return canonical({
        "answer": obj["answer"],
        "feedback": obj["feedback"],
        "statements": [
            {
                "statement_string": st["statement_string"],
                "citations": [
                    {"snippet": c if isinstance(c, str) else c["snippet"]} for c in st["citations"]
                ],
            }
            for st in obj["statements"]
        ],
    })


def _rag_reply(
    text: TextMaker,
    chunks: list[tuple[str, list[str]]],
    claims: list[str],
    mode: str,
    n_cit: int,
) -> dict[str, Any]:
    rng = text.rng
    wants_claim = mode in ("inline", "inline-snippet")
    wants_snippet = mode in ("postfix-snippet", "inline-snippet")
    entries: list[dict[str, Any]] = []
    for i in range(n_cit):
        cid, sents = chunks[i % len(chunks)] if i < len(chunks) else rng.choice(chunks)
        entry: dict[str, Any] = {"context_id": cid}
        if wants_claim:
            entry["claim"] = rng.choice(claims)
        if wants_snippet:
            entry["snippet"] = text.snippet(rng.choice(sents))
        entries.append(entry)
    if wants_claim and rng.random() < 0.3:
        entries.append({"context_id": NO_SUPPORT, "claim": rng.choice(claims)})
    return {"citations": entries}


def _rag_canonical(obj: dict[str, Any]) -> str:
    out = []
    for e in obj["citations"]:
        c: dict[str, Any] = {"context_id": e["context_id"]}
        if "claim" in e:
            c["claim"] = e["claim"]
        if "snippet" in e:
            c["snippet"] = e["snippet"]
        out.append(c)
    return canonical({"citations": out})


def _truncate(body: str, rng: random.Random) -> str:
    """Cut a JSON text inside its outer object (never at a closing brace)."""
    cut = int(len(body) * rng.uniform(0.4, 0.8))
    return body[:cut].rstrip("}")


def _break_quality(obj: dict[str, Any]) -> None:
    st = obj["statements"][0]
    c = st["citations"][0]
    bad = (c if isinstance(c, str) else c["snippet"]) + " " + _NOT_IN_ANY_CONTEXT
    st["citations"][0] = bad if isinstance(c, str) else {"snippet": bad}


def _break_rag(obj: dict[str, Any], mode: str) -> None:
    entry = obj["citations"][0]
    if mode in ("postfix-snippet", "inline-snippet"):
        entry["snippet"] += " " + _NOT_IN_ANY_CONTEXT
    elif mode == "inline":
        entry["claim"] += " " + _NOT_IN_ANY_CONTEXT
    else:
        entry["context_id"] = "missing-" + entry["context_id"]


def _split_chunks(sentences: list[str], k: int, prefix: str) -> list[tuple[str, list[str]]]:
    k = max(1, min(k, len(sentences)))
    step = -(-len(sentences) // k)
    return [
        (f"{prefix}{i}", sentences[i * step : (i + 1) * step])
        for i in range(k)
        if sentences[i * step : (i + 1) * step]
    ]


def datagen_cite_batch(seed: int, b: int, m: int = 12) -> DatagenBatch:
    """Content-quality and retrieval citation records, contexts 1-64 KB.

    Per batch: one reply in each of two rejection buckets (rotating through
    bad_json, non_verbatim, too_long and transport), one Hangul item (3d),
    and a quarter of the contexts stored in NFD.
    """
    rng = _rng("datagen-cite", seed, b)
    shares = Shares()
    text = TextMaker(rng, shares)
    sizes = [int(1024 * 64 ** u) for u in _stratified(b, m, seed)]
    buckets = ("bad_json", "non_verbatim", "too_long", "transport")
    quality_slots = [j for j in range(m) if (j + b) % 2 == 0]
    plan: dict[int, str] = {}
    for slot, bucket in zip((3, 6), (buckets[(2 * b) % 4], buckets[(2 * b + 1) % 4])):
        # Padding a reply past the budget is cheapest on the largest prompt.
        plan[quality_slots[-1] if bucket == "too_long" else slot] = bucket
    hangul_slot = quality_slots[2]
    nfd_slots = {1, 7, 9}

    records: list[dict[str, Any]] = []
    jobs: dict[str, Job] = {}
    for j in range(m):
        key = f"{b}x{j}"
        bucket = plan.get(j, "kept")
        nfd = j in nfd_slots
        pool = NON_ASCII_NFD_SAFE if nfd or j == hangul_slot else NON_ASCII_ALL
        sentences = text.sentences_until(sizes[j], pool)
        stored = [unicodedata.normalize("NFD", s) for s in sentences] if nfd else list(sentences)
        known = None
        forced: list[str] = []
        if j == hangul_slot:
            hs = _hangul_sentence(text)
            at = rng.randrange(len(sentences) + 1)
            sentences.insert(at, hs)
            stored.insert(at, unicodedata.normalize("NFD", hs))
            forced = [_hangul_snippet(hs)]
            known = "3d"
        generation = f"Item {key}. " + " ".join(text.sentence() for _ in range(rng.randint(2, 4)))
        n_cit = 4 + (5 * j + 3 * b) % 9
        if j in quality_slots:
            body = text.join(stored)
            shares.contexts += 1
            shares.non_nfc_contexts += not unicodedata.is_normalized("NFC", body)
            inputs: dict[str, Any] = {"task_prompt": body, "generation": generation, "metric": METRICS[(b + j) % 4]}
            obj = _quality_reply(text, sentences, n_cit, forced=forced)
            if bucket == "non_verbatim":
                _break_quality(obj)
            prompt_words = _wc(body) + _wc(generation)
            if bucket == "too_long":
                need = (CITE_MAX_TOKENS + _TOKEN_MARGIN - _tokens(prompt_words)) / _TOKENS_PER_WORD
                obj["feedback"] += " " + " ".join(text.words(int(need) + 1))
            canon = _quality_canonical(obj)
        else:
            mode = RAG_MODES[(b + j) % 4]
            chunks = _split_chunks(sentences, 2 + (j + b) % 3, f"{b}-{j}-")
            stored_chunks = _split_chunks(stored, len(chunks), f"{b}-{j}-")
            bodies = {cid: text.join(sents) for cid, sents in stored_chunks}
            shares.contexts += len(bodies)
            shares.non_nfc_contexts += sum(not unicodedata.is_normalized("NFC", v) for v in bodies.values())
            claims = [text.sentence(6, 12) for _ in range(rng.randint(3, 6))]
            answer = f"Item {key}. " + " ".join(claims)
            inputs = {
                "chunks": [{"context_id": cid, "body": v} for cid, v in bodies.items()],
                "answer": answer,
                "mode": mode,
            }
            obj = _rag_reply(text, chunks, claims, mode, n_cit)
            if bucket == "non_verbatim":
                _break_rag(obj, mode)
            canon = _rag_canonical(obj)
            prompt_words = sum(_wc(v) + 2 for v in bodies.values()) + _wc(answer)
        raw = json.dumps(obj, ensure_ascii=False, indent=rng.choice((None, 2)))
        if bucket == "bad_json":
            if rng.random() < 0.5:
                raw = _truncate(raw, rng)
            else:
                raw = "I could not produce JSON for this one: " + raw.replace("{", "(")
        elif bucket != "transport":
            raw = _wrap_prose(rng, raw)
        if bucket == "kept":
            upper = _tokens(prompt_words + _TEMPLATE_WORDS_MAX + _wc(canon))
            if upper > CITE_MAX_TOKENS - _TOKEN_MARGIN:
                raise RuntimeError(f"kept item {key} would not fit the token budget")
        shares.replies += 1
        shares.malformed_replies += bucket != "kept"
        shares.items += 1
        records.append({"source_dataset": f"bench-{key}", "task_type": "citation", "inputs": inputs})
        jobs[key] = Job(
            key=key,
            reply=None if bucket == "transport" else raw,
            error="refusal" if bucket == "transport" else None,
            bucket=bucket,
            canonical=canon if bucket == "kept" else None,
            known=known,
        )
    return DatagenBatch(records=records, jobs=jobs, shares=shares, max_tokens=CITE_MAX_TOKENS)


def _pointwise_truncated_outer(justification: str) -> str:
    """ROADMAP 3(b): an unterminated outer object around a complete inner one."""
    return (
        'Sure! {"reasoning": {"metriclabel": "No", "justification": "inner"}, '
        f'"metriclabel": "Yes", "justification": "{justification}'
    )


def datagen_overlap_batch(seed: int, b: int, n_pointwise: int = 4, n_rag: int = 8) -> DatagenBatch:
    """Pointwise records fanned out over all four metrics, plus retrieval
    citations over chunks under 2 KB, with 5-40 ms of backend latency each.

    Per batch: one bad_json pointwise reply, one truncated outer pointwise
    reply (3b), one non-verbatim citation, and one job whose first attempt
    hits a transport fault and whose retry succeeds.
    """
    rng = _rng("datagen-overlap", seed, b)
    shares = Shares()
    text = TextMaker(rng, shares)
    records: list[dict[str, Any]] = []
    planned: list[tuple[str, dict[str, Any] | None, str, str | None, str]] = []
    # (key, obj-or-None, raw, known, bucket)
    pw_sizes = [int(300 * 6 ** u) for u in _stratified(b, n_pointwise, seed)]
    pw_keys = [f"{b}x{j}:{metric}" for j in range(n_pointwise) for metric in METRICS]
    bad_key, trunc_key = rng.sample(pw_keys, 2)
    for j in range(n_pointwise):
        key = f"{b}x{j}"
        nfd = rng.random() < 0.25
        pool = NON_ASCII_NFD_SAFE if nfd else NON_ASCII_ALL
        ctx = text.join(text.sentences_until(pw_sizes[j], pool))
        if nfd:
            ctx = unicodedata.normalize("NFD", ctx)
        shares.contexts += 1
        shares.non_nfc_contexts += not unicodedata.is_normalized("NFC", ctx)
        answer = " ".join(text.sentence() for _ in range(rng.randint(2, 4)))
        records.append({
            "source_dataset": f"bench-{key}",
            "task_type": "pointwise",
            "inputs": {"query_with_context": f"Item {key}. " + ctx, "answer": answer},
        })
        for metric in METRICS:
            jkey = f"{key}:{metric}"
            obj = {"metriclabel": rng.choice(("Yes", "No")), "justification": text.sentence(6, 14)}
            if jkey == trunc_key:
                planned.append((jkey, None, _pointwise_truncated_outer(obj["justification"]), "3b", "bad_json"))
            elif jkey == bad_key:
                raw = json.dumps(obj, ensure_ascii=False)
                planned.append((jkey, None, _truncate(raw, rng), None, "bad_json"))
            else:
                raw = _wrap_prose(rng, json.dumps(obj, ensure_ascii=False))
                planned.append((jkey, obj, raw, None, "kept"))
            shares.items += 1
            shares.shared_context_items += 1  # the four metric jobs share one prompt context
    rag_sizes = [int(256 * 8 ** u) for u in _stratified(b + 7, n_rag, seed)]
    nv_slot = rng.randrange(n_rag)
    for j in range(n_rag):
        key = f"{b}x{n_pointwise + j}"
        mode = RAG_MODES[(b + j) % 4]
        nfd = rng.random() < 0.25
        pool = NON_ASCII_NFD_SAFE if nfd else NON_ASCII_ALL
        chunks = []
        for i in range(rng.randint(2, 3)):
            sents = text.sentences_until(max(120, rag_sizes[(j + i) % n_rag] // 2), pool)
            while len(text.join(sents)) >= 2000 and len(sents) > 1:
                sents.pop()
            chunks.append((f"{b}-{j}-{i}", sents))
        bodies = {cid: text.join(sents) for cid, sents in chunks}
        if nfd:
            bodies = {cid: unicodedata.normalize("NFD", v) for cid, v in bodies.items()}
        shares.contexts += len(bodies)
        shares.non_nfc_contexts += sum(not unicodedata.is_normalized("NFC", v) for v in bodies.values())
        claims = [text.sentence(6, 12) for _ in range(rng.randint(2, 4))]
        answer = f"Item {key}. " + " ".join(claims)
        records.append({
            "source_dataset": f"bench-{key}",
            "task_type": "citation",
            "inputs": {
                "chunks": [{"context_id": cid, "body": bodies[cid]} for cid, _ in chunks],
                "answer": answer,
                "mode": mode,
            },
        })
        obj = _rag_reply(text, chunks, claims, mode, rng.randint(2, 5))
        if j == nv_slot:
            _break_rag(obj, mode)
            planned.append((key, None, json.dumps(obj, ensure_ascii=False), None, "non_verbatim"))
        else:
            planned.append((key, obj, _wrap_prose(rng, json.dumps(obj, ensure_ascii=False)), None, "kept"))
        shares.items += 1

    n = len(planned)
    ranks = list(range(n))
    rng.shuffle(ranks)
    flaky = 5
    jobs: dict[str, Job] = {}
    for i, (key, obj, raw, known, bucket) in enumerate(planned):
        canon = None
        if obj is not None:
            canon = _rag_canonical(obj) if "citations" in obj else canonical(
                {"metriclabel": obj["metriclabel"], "justification": obj["justification"]}
            )
        jobs[key] = Job(
            key=key,
            reply=raw,
            error="flaky" if i == flaky else None,
            latency_s=0.005 + 0.035 * (ranks[i] + 0.5) / n,
            bucket=bucket,
            canonical=canon,
            known=known,
        )
        shares.replies += 1
        shares.malformed_replies += bucket != "kept"
    return DatagenBatch(records=records, jobs=jobs, shares=shares, max_tokens=6144)


# --------------------------------------------------------------------------
# score


def ref_segment(text: str) -> list[tuple[int, int]]:
    """Sentence spans per the spec, written independently of the package.

    A sentence ends after a run of '.', '?' or '!' that is followed by
    whitespace or the end of the text, and at every newline; spans carry no
    surrounding whitespace.
    """
    spans: list[tuple[int, int]] = []
    for m in re.finditer(r"[^\n]+", text):
        line_start = m.start()
        line = m.group()
        pos = 0
        for t in re.finditer(r"[.?!]+(?=\s|$)", line):
            piece = line[pos : t.end()]
            lead = len(piece) - len(piece.lstrip())
            if piece.strip():
                spans.append((line_start + pos + lead, line_start + t.end()))
            pos = t.end()
        rest = line[pos:]
        if rest.strip():
            lead = len(rest) - len(rest.lstrip())
            spans.append((line_start + pos + lead, line_start + len(rest.rstrip()) + pos))
    return spans


class ContextOracle:
    """Reference snapping over one context: normalize each sentence once."""

    def __init__(self, body: str):
        self.spans = ref_segment(body)
        self.norm = [ref_normalize(body[s:e]) for s, e in self.spans]
        self.starts: list[int] = []
        pos = 0
        for n in self.norm:
            self.starts.append(pos)
            pos += len(n) + 1
        self.joined = " ".join(self.norm)

    def key(self, snippet: str) -> str:
        """Normalized text of the whole sentences covering the snippet's
        first occurrence, or the normalized snippet when it does not occur."""
        target = ref_normalize(snippet)
        if not target:
            return ""
        idx = self.joined.find(target)
        if idx < 0:
            return target
        end = idx + len(target)
        covered = [
            n for n, s in zip(self.norm, self.starts) if s < end and s + len(n) > idx
        ]
        return " ".join(covered)


def _label_score(pred: Any, gold: Any) -> float:
    golds = gold if isinstance(gold, list) else [gold]
    if not golds:
        return 0.0

    def k(v: Any) -> Any:
        return v.strip().casefold() if isinstance(v, str) else v

    return sum(1.0 for g in golds if k(pred) == k(g)) / len(golds)


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = (1.0 if fn == 0 else 0.0) if tp + fp == 0 else tp / (tp + fp)
    r = (1.0 if fp == 0 else 0.0) if tp + fn == 0 else tp / (tp + fn)
    f = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return p, r, f


def _mean(xs: list[float]) -> float | None:
    return sum(xs) / len(xs) if xs else None


def score_oracle(records: list[dict[str, Any]], contexts: dict[str, str]) -> dict[str, Any]:
    """Expected `rec score` report, computed from the spec alone."""
    oracles = {cid: ContextOracle(body) for cid, body in contexts.items()}
    buckets: dict[str, dict[str, list]] = {}
    excluded = 0
    for rec in records:
        name = rec.get("metric") or "overall"
        bucket = buckets.setdefault(name, {"rate": [], "explain": [], "prf": []})
        if "rating_pred" in rec and "rating_gold" in rec:
            bucket["rate"].append(_label_score(rec["rating_pred"], rec["rating_gold"]))
        if rec.get("halu_a") or rec.get("halu_b"):
            excluded += 1
            continue
        oracle = oracles[rec["context_ref"]]
        b_norms = {ref_normalize(s) for s in rec["gold_b"]}
        gold = [s for s in set(rec["gold_a"]) if ref_normalize(s) in b_norms]
        pred_keys = {oracle.key(s) for s in rec["predicted_citations"]} - {""}
        gold_keys = {oracle.key(s) for s in gold} - {""}
        tp = len(pred_keys & gold_keys)
        bucket["prf"].append(_prf(tp, len(pred_keys - gold_keys), len(gold_keys - pred_keys)))
    per_metric = {}
    for name, bucket in sorted(buckets.items()):
        prfs = bucket["prf"]
        per_metric[name] = {
            "rate_acc": _mean(bucket["rate"]),
            "explain_acc": _mean(bucket["explain"]),
            "citation_prf": {
                "precision": _mean([p[0] for p in prfs]),
                "recall": _mean([p[1] for p in prfs]),
                "f1": _mean([p[2] for p in prfs]),
                "n_scored": len(prfs),
            },
        }
    return {"per_metric": per_metric, "n": len(records), "excluded_halu": excluded}


@dataclass
class ScoreCall:
    """One `rec score` call: one context and the records that share it."""

    context_id: str
    body: str
    records: list[dict[str, Any]]
    known: dict[str, str] = field(default_factory=dict)  # metric bucket -> ROADMAP id

    def expected(self) -> dict[str, Any]:
        return score_oracle(self.records, {self.context_id: self.body})


@dataclass
class ScoreBatch:
    calls: list[ScoreCall]
    shares: Shares

    def to_json_value(self) -> dict[str, Any]:
        return {"calls": [vars(c) for c in self.calls]}


def _crossing(rng: random.Random, sentences: list[str], skip: str | None, unique) -> str:
    """The last words of one sentence and the first of the next, occurring once."""
    start = rng.randrange(len(sentences) - 1)
    for i in list(range(start, len(sentences) - 1)) + list(range(start)):
        if skip in (sentences[i], sentences[i + 1]):
            continue
        crossing = " ".join(sentences[i].split(" ")[-3:] + sentences[i + 1].split(" ")[:3])
        if unique(crossing):
            return crossing
    return sentences[0]


def score_batch(seed: int, b: int, m: int = 5) -> ScoreBatch:
    """Contexts of 1-200 KB, each shared by three records.

    Every record sits in its own metric bucket, so the per-bucket means of the
    report are per-record values and each record is checked on its own.
    Each record predicts one of its two gold citations, one other sentence
    and one snippet absent from the context; one record per call adds a
    snippet that crosses a sentence boundary. Per batch one record cites a Hangul
    sentence stored as jamo (3d) and two of fifteen records have
    hallucination-marked gold.
    """
    rng = _rng("score", seed, b)
    shares = Shares()
    text = TextMaker(rng, shares)
    sizes = [int(1024 * 200 ** u) for u in _stratified(b, m, seed)]
    hangul_call = 2
    calls: list[ScoreCall] = []
    for j in range(m):
        cid = f"ctx-{b}-{j}"
        nfd = j in (1, 4) and j != hangul_call
        pool = NON_ASCII_NFD_SAFE if nfd or j == hangul_call else NON_ASCII_ALL
        sentences = text.sentences_until(sizes[j], pool)
        hs = None
        if j == hangul_call:
            hs = _hangul_sentence(text)
            sentences.insert(rng.randrange(len(sentences) + 1), hs)
        stored = [
            unicodedata.normalize("NFD", s) if nfd or s == hs else s for s in sentences
        ]
        body = text.join(stored)
        shares.contexts += 1
        shares.non_nfc_contexts += not unicodedata.is_normalized("NFC", body)
        norm_body = ref_normalize(body)

        def unique(snip: str) -> bool:
            return norm_body.count(ref_normalize(snip)) == 1

        def cite(sentence: str) -> str:
            s = text.snippet(sentence)
            return s if unique(s) else sentence

        names = rng.sample(list(METRICS) + [None], 3)
        records = []
        known: dict[str, str] = {}
        for k, name in enumerate(names):
            rec: dict[str, Any] = {"context_ref": cid}
            if name is not None:
                rec["metric"] = name
            # Only the planted record may cite the jamo sentence.
            citable = [s for s in sentences if s is not hs]
            picks = rng.sample(citable, min(len(citable), 5))
            gold_sents = picks[:2]
            gold_a = [cite(s) if rng.random() < 0.5 else s for s in gold_sents]
            gold_b = list(gold_a)
            if k == 1:
                gold_b[0] = picks[-1]  # the annotators disagree on one citation
            pred = [gold_sents[0] if rng.random() < 0.5 else cite(gold_sents[0])]
            pred.append(cite(rng.choice(picks[len(gold_sents) :] or picks)))
            pred.append(" ".join(text.words(7)) + ".")  # not in the context
            if k == 1:
                pred.append(_crossing(rng, sentences, hs, unique))
            if hs is not None and k == 0:
                snip = _hangul_snippet(hs)
                pred.append(snip)
                gold_a.append(hs)
                gold_b.append(hs)
                known[name or "overall"] = "3d"
            rng.shuffle(pred)
            rec["predicted_citations"] = pred
            if k == 2 and j in (1, 4):
                rec["halu_a"] = True
                rec["gold_a"] = []
            else:
                rec["gold_a"] = gold_a
            rec["gold_b"] = gold_b
            if rng.random() < 0.5:
                rec["rating_pred"] = rng.choice(("Yes", "No"))
                rec["rating_gold"] = rng.choice(("Yes", "No", ["Yes", "No"], ["yes", "Yes"]))
            records.append(rec)
            shares.items += 1
            shares.shared_context_items += len(names) > 1
        calls.append(ScoreCall(context_id=cid, body=body, records=records, known=known))
    return ScoreBatch(calls=calls, shares=shares)


# --------------------------------------------------------------------------
# evaluate / cite


@dataclass
class EvalCall:
    """One `rec evaluate` or `rec cite` call over files it needs."""

    command: str  # "evaluate" | "cite"
    mode: str
    metric: str | None
    files: dict[str, str]  # role -> content: context/generation or chunks/answer
    reply: str
    exit_code: int
    verdict: str | None = None  # expected "answer" of a quality reply (exit 0)
    references: list[str] | None = None  # expected reference labels/snippets (exit 0)
    hostile: str | None = None
    known: str | None = None


@dataclass
class EvalBatch:
    calls: list[EvalCall]
    shares: Shares

    def to_json_value(self) -> dict[str, Any]:
        return {"calls": [vars(c) for c in self.calls]}


_COMBOS = tuple(("evaluate", m) for m in QUALITY_MODES) + tuple(("cite", m) for m in RAG_MODES)
_HOSTILE = ("prose", "truncated", "deep", "non_verbatim")


def _deep_nesting(depth: int = 5000) -> str:
    """ROADMAP 3(a): a reply nested deeper than the JSON decoder recurses."""
    return 'Here you go: ' + '{"a": ' * depth + "1" + "}" * depth


def evaluate_batch(seed: int, b: int, m: int = 10) -> EvalBatch:
    """Single-reply CLI calls cycling through every (command, mode) pair.

    Contexts are 0.5-16 KB. One call in ten gets a hostile reply, cycling by
    batch through prose-wrapped, truncated outer object, deep nesting (3a)
    and non-verbatim citations.
    """
    rng = _rng("evaluate", seed, b)
    shares = Shares()
    text = TextMaker(rng, shares)
    sizes = [int(512 * 32 ** u) for u in _stratified(b, m, seed)]
    hostile_slot = 5
    hostile_kind = _HOSTILE[b % len(_HOSTILE)]
    calls: list[EvalCall] = []
    for j in range(m):
        command, mode = _COMBOS[(b * m + j) % len(_COMBOS)]
        hostile = hostile_kind if j == hostile_slot else None
        nfd = rng.random() < 0.25
        pool = NON_ASCII_NFD_SAFE if nfd else NON_ASCII_ALL
        sentences = text.sentences_until(sizes[j], pool)
        n_cit = 3 + (3 * j + b) % 6
        if command == "evaluate":
            body = text.join(sentences)
            if nfd:
                body = unicodedata.normalize("NFD", body)
            shares.contexts += 1
            shares.non_nfc_contexts += not unicodedata.is_normalized("NFC", body)
            generation = " ".join(text.sentence() for _ in range(rng.randint(2, 4)))
            files = {"context": body, "generation": generation}
            obj = _quality_reply(text, sentences, n_cit)
            metric: str | None = METRICS[(b + j) % 4]
            refs = [c if isinstance(c, str) else c["snippet"] for st in obj["statements"] for c in st["citations"]]
            verdict: str | None = obj["answer"]
        else:
            chunks = _split_chunks(sentences, 2 + (j + b) % 3, f"{b}{j}")
            bodies = [(cid, text.join(s)) for cid, s in chunks]
            if nfd:
                bodies = [(cid, unicodedata.normalize("NFD", v)) for cid, v in bodies]
            shares.contexts += len(bodies)
            shares.non_nfc_contexts += sum(not unicodedata.is_normalized("NFC", v) for _, v in bodies)
            claims = [text.sentence(6, 12) for _ in range(rng.randint(3, 6))]
            files = {
                "chunks": json.dumps([{"context_id": c, "body": v} for c, v in bodies], ensure_ascii=False),
                "answer": " ".join(claims),
            }
            obj = _rag_reply(text, chunks, claims, mode, n_cit)
            metric = None
            refs = []
            for e in obj["citations"]:
                if e["context_id"] != NO_SUPPORT and e["context_id"] not in refs:
                    refs.append(e["context_id"])
            verdict = None
        raw = json.dumps(obj, ensure_ascii=False, indent=rng.choice((None, 2)))
        exit_code, known = 0, None
        if hostile == "prose":
            raw = "Thanks for the task! My verdict follows.\n```json\n" + raw + "\n```\nHope it helps."
        elif hostile == "truncated":
            raw, exit_code = "Sure! " + _truncate(raw, rng), 2
        elif hostile == "deep":
            raw, exit_code, known = _deep_nesting(), 2, "3a"
        elif hostile == "non_verbatim":
            (_break_quality(obj) if command == "evaluate" else _break_rag(obj, mode))
            raw, exit_code = json.dumps(obj, ensure_ascii=False), 2
        shares.replies += 1
        shares.malformed_replies += hostile is not None and hostile != "prose"
        shares.items += 1
        calls.append(EvalCall(
            command=command,
            mode=mode,
            metric=metric,
            files=files,
            reply=raw,
            exit_code=exit_code,
            verdict=verdict if exit_code == 0 else None,
            references=refs if exit_code == 0 else None,
            hostile=hostile,
            known=known,
        ))
    return EvalBatch(calls=calls, shares=shares)


BATCH_MAKERS = {
    "datagen-cite": datagen_cite_batch,
    "datagen-overlap": datagen_overlap_batch,
    "score": score_batch,
    "evaluate": evaluate_batch,
}


def make_batch(workload: str, seed: int, b: int):
    """Batch b of a workload for a seed; deterministic in all three."""
    return BATCH_MAKERS[workload](seed, b)


def batch_bytes(workload: str, seed: int, b: int) -> bytes:
    """A byte serialization of a batch's inputs and planted outcomes."""
    return canonical(make_batch(workload, seed, b).to_json_value()).encode("utf-8")
