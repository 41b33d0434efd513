"""Model-agnostic completion gateway with a scripted mock backend.

The HTTP backend speaks the common chat-completions wire shape (model,
messages, temperature, max_tokens) and authenticates via a bearer token
taken from REC_API_KEY; the credential travels only in the Authorization
header, never in the request body. HTTP_PROXY, HTTPS_PROXY and NO_PROXY
apply. The stdlib's http.client, hashlib, datetime and thread pool are
imported on first use, by the functions that need them, so importing this
module loads none of them. The mock backend answers from a script,
deterministically, and instruments concurrency so tests can assert the
parallelism bound.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple, Protocol, Sequence

from .errors import RecError
from .tokens import estimate_tokens

logger = logging.getLogger(__name__)

API_KEY_ENV = "REC_API_KEY"


class GatewayError(RecError):
    """Base class for completion failures."""


class TransportError(GatewayError):
    """Transient transport problem (network, timeout, 429/5xx); retryable."""


class AuthFailureError(GatewayError):
    """The backend rejected our credentials; not retryable."""


class BackendRefusalError(GatewayError):
    """The backend answered but refused or returned an unusable reply."""


class CancelledError(GatewayError):
    """The batch was cancelled before this item ran."""


class CompletionRequest(NamedTuple):
    prompt: str
    temperature: float = 0.0
    max_output_tokens: int = 1024
    seed: int | None = None

    def violations(self) -> list[str]:
        out = []
        if not self.prompt.strip():
            out.append("prompt must be non-empty")
        if self.temperature < 0:
            out.append("temperature must be >= 0")
        if self.max_output_tokens < 1:
            out.append("max_output_tokens must be >= 1")
        return out


class CompletionResult(NamedTuple):
    """One completion; text may be empty only when truncated is set."""

    text: str
    prompt_tokens: int
    output_tokens: int
    truncated: bool = False


class BackendReply(NamedTuple):
    text: str
    prompt_tokens: int | None = None
    output_tokens: int | None = None
    truncated: bool = False


class Backend(Protocol):
    def send(
        self,
        prompt: str,
        *,
        temperature: float,
        max_output_tokens: int,
        seed: int | None,
    ) -> BackendReply: ...


def prompt_sha256(prompt: str) -> str:
    import hashlib

    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class HttpBackend:
    """Chat-completions client for an OpenAI-style endpoint; one keep-alive connection per thread.

    close() closes every connection it opened; a later send reopens one.
    """

    def __init__(
        self,
        base_url: str,
        model_name: str,
        *,
        api_key: str | None = None,
        timeout_ms: int = 60_000,
    ):
        self.base_url = base_url
        self.model_name = model_name
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self.timeout_ms = timeout_ms
        self._local = threading.local()
        self._connections: list[tuple[threading.Thread, Any]] = []  # each sending thread's, for close()
        self._connections_lock = threading.Lock()

    def _connect(self) -> tuple[Any, str]:
        """A connection to the backend, or to its proxy, and the request target to send on it."""
        import http.client
        import ssl
        import urllib.parse
        import urllib.request

        url = urllib.parse.urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise TransportError(f"not an http(s) URL: {self.base_url!r}")
        target = (url.path or "/") + ("?" + url.query if url.query else "")
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and urllib.request.proxy_bypass(url.hostname):
            proxy = None
        via = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy) if proxy else url
        address = (via.hostname, via.port or (443 if via.scheme == "https" else 80))
        if url.scheme == "http":
            target = f"http://{url.netloc}{target}" if proxy else target
            return http.client.HTTPConnection(*address, timeout=self.timeout_ms / 1000), target
        conn = http.client.HTTPSConnection(*address, timeout=self.timeout_ms / 1000, context=ssl.create_default_context())
        if proxy:
            conn.set_tunnel(url.hostname, url.port or 443)
        return conn, target

    def _post(self, body: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
        """POST on this thread's connection, reopening it once if a kept-alive socket went stale."""
        import http.client
        if not hasattr(self._local, "conn"):
            self._local.conn, self._local.target = self._connect()
            with self._connections_lock:
                # A finished thread's connection is never used again: close it now, not at close().
                live = [(threading.current_thread(), self._local.conn)]
                for thread, conn in self._connections:
                    if thread.is_alive():
                        live.append((thread, conn))
                    else:
                        conn.close()
                self._connections = live
        conn = self._local.conn
        try:
            for may_be_stale in (conn.sock is not None, False):
                try:
                    conn.request("POST", self._local.target, body, headers)
                    response = conn.getresponse()
                    break
                except ConnectionError:
                    if not may_be_stale:
                        raise
                    conn.close()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise TransportError(str(exc) or type(exc).__name__) from exc

    def close(self) -> None:
        """Close the connections of every thread that sent; calling it again is harmless."""
        with self._connections_lock:
            for _, conn in self._connections:
                conn.close()

    def send(
        self,
        prompt: str,
        *,
        temperature: float,
        max_output_tokens: int,
        seed: int | None,
    ) -> BackendReply:
        payload: dict[str, Any] = {
            "model": self.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
            "max_tokens": max_output_tokens,
        }
        if seed is not None:
            payload["seed"] = seed
        headers = {"Content-Type": "application/json", "User-Agent": "rec-eval"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        status, raw = self._post(json.dumps(payload, allow_nan=False).encode("utf-8"), headers)

        if status in (401, 403):
            raise AuthFailureError(f"HTTP {status} from backend")
        if status == 429 or status >= 500:
            raise TransportError(f"HTTP {status} from backend")
        if status >= 400:
            raise BackendRefusalError(f"HTTP {status}: {raw.decode('utf-8', 'replace')[:200]}")

        try:
            body = json.loads(raw)
            choice = body["choices"][0]
            text = choice["message"]["content"]
            if not isinstance(text, str):
                raise TypeError("content is not a string")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendRefusalError(f"malformed backend reply: {exc}") from exc
        usage = body.get("usage")
        counts = {k: n for k, n in usage.items() if type(n) is int and n >= 0} if isinstance(usage, dict) else {}
        return BackendReply(
            text=text,
            prompt_tokens=counts.get("prompt_tokens"),
            output_tokens=counts.get("completion_tokens"),
            truncated=choice.get("finish_reason") == "length",
        )


_PAIRWISE_A_HEADER = "# Output (a):"
_PAIRWISE_B_HEADER = "# Output (b):"
_PAIRWISE_TAIL = "# Which is better"


def _pairwise_blocks(prompt: str) -> tuple[str, str]:
    """The two presented output blocks of a pairwise judge prompt."""
    a_start = prompt.find(_PAIRWISE_A_HEADER)
    b_start = prompt.find(_PAIRWISE_B_HEADER)
    tail = prompt.find(_PAIRWISE_TAIL)
    if a_start < 0 or b_start < 0:
        return "", ""
    a_block = prompt[a_start + len(_PAIRWISE_A_HEADER) : b_start]
    b_block = prompt[b_start + len(_PAIRWISE_B_HEADER) : tail if tail > b_start else len(prompt)]
    return a_block, b_block


def script_responder(script: dict[str, Any]) -> Callable[[str], str]:
    """Build a deterministic prompt->text function from a mock script.

    Rules are tried in order; the first match wins, then "default" applies.
    A rule matches by "prompt_sha256" or "contains", or is the dynamic
    "choose_output_containing" rule, which answers with the label of the
    presented output block containing the marker ("neither" when absent,
    which parses as Unparseable). A rule (or the default) replies with
    "text" or raises the named "error" (transport|auth|refusal).
    """
    rules: list[dict[str, Any]] = list(script.get("rules", ()))
    default = script.get("default")

    def _reply(rule_value: Any, prompt: str) -> str:
        if isinstance(rule_value, dict) and "error" in rule_value:
            kind = rule_value["error"]
            if kind == "transport":
                raise TransportError("scripted transport failure")
            if kind == "auth":
                raise AuthFailureError("scripted auth failure")
            raise BackendRefusalError("scripted refusal")
        if isinstance(rule_value, dict):
            return str(rule_value.get("text", ""))
        return str(rule_value)

    def responder(prompt: str) -> str:
        for rule in rules:
            if "prompt_sha256" in rule and prompt_sha256(prompt) == rule["prompt_sha256"]:
                return _reply(rule, prompt)
            if "contains" in rule and rule["contains"] in prompt:
                return _reply(rule, prompt)
            if "choose_output_containing" in rule:
                a_block, b_block = _pairwise_blocks(prompt)
                marker = rule["choose_output_containing"]
                if marker in a_block:
                    return "Output (a)"
                if marker in b_block:
                    return "Output (b)"
                return "neither"
        if default is None:
            raise BackendRefusalError("mock script has no rule for this prompt")
        return _reply(default, prompt)

    return responder


def load_mock_script(path: str | Path) -> Callable[[str], str]:
    with open(path, "r", encoding="utf-8") as fh:
        script = json.load(fh)
    if not isinstance(script, dict):
        raise ValueError(f"a mock script must be a JSON object, not {type(script).__name__}")
    return script_responder(script)


class MockBackend:
    """Scripted in-process backend with concurrency instrumentation.

    responder maps the prompt text to the reply text (or raises a
    GatewayError subclass for fault injection); latency_fn, when given, maps
    the prompt to a sleep in seconds so scheduling races are reproducible.
    """

    def __init__(
        self,
        responder: Callable[[str], str | BackendReply],
        *,
        latency_fn: Callable[[str], float] | None = None,
    ):
        self.responder = responder
        self.latency_fn = latency_fn
        self._lock = threading.Lock()
        self.calls: list[str] = []
        self.in_flight = 0
        self.peak_concurrency = 0

    def send(
        self,
        prompt: str,
        *,
        temperature: float,
        max_output_tokens: int,
        seed: int | None,
    ) -> BackendReply:
        with self._lock:
            self.calls.append(prompt)
            self.in_flight += 1
            self.peak_concurrency = max(self.peak_concurrency, self.in_flight)
        try:
            if self.latency_fn is not None:
                delay = self.latency_fn(prompt)
                if delay > 0:
                    time.sleep(delay)
            reply = self.responder(prompt)
        finally:
            with self._lock:
                self.in_flight -= 1
        if isinstance(reply, BackendReply):
            return reply
        return BackendReply(text=reply)


class Gateway:
    """Retrying completion front end over any backend."""

    def __init__(
        self,
        backend: Backend,
        *,
        max_retries: int = 2,
        backoff_s: float = 0.2,
        audit_log_path: str | Path | None = None,
    ):
        self.backend = backend
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.audit_log_path = Path(audit_log_path) if audit_log_path else None
        self._audit_lock = threading.Lock()

    def _audit(self, prompt: str, status: str, latency_ms: float, output_tokens: int | None, retries: int) -> None:
        if self.audit_log_path is None:
            return
        from datetime import datetime, timezone

        entry = {
            "ts": datetime.now(timezone.utc).isoformat(),
            "prompt_sha256": prompt_sha256(prompt),
            "status": status,
            "latency_ms": round(latency_ms, 3),
            "output_tokens": output_tokens,
            "retries": retries,
        }
        line = json.dumps(entry, sort_keys=True) + "\n"
        with self._audit_lock:
            with open(self.audit_log_path, "a", encoding="utf-8") as fh:
                fh.write(line)

    def complete(self, req: CompletionRequest) -> CompletionResult:
        """One completion, retrying transient transport failures with backoff."""
        problems = req.violations()
        if problems:
            raise ValueError("; ".join(problems))
        prompt = req.prompt
        started = time.perf_counter()
        attempt = 0
        while True:
            try:
                reply = self.backend.send(
                    prompt,
                    temperature=req.temperature,
                    max_output_tokens=req.max_output_tokens,
                    seed=req.seed,
                )
                break
            except TransportError as exc:
                latency_ms = (time.perf_counter() - started) * 1000
                if attempt >= self.max_retries:
                    self._audit(prompt, "transport_error", latency_ms, None, attempt)
                    raise
                delay = self.backoff_s * (2**attempt)
                logger.warning("transport failure (%s); retry %d in %.2fs", exc, attempt + 1, delay)
                time.sleep(delay)
                attempt += 1
            except AuthFailureError:
                self._audit(prompt, "auth_failure", (time.perf_counter() - started) * 1000, None, attempt)
                raise
            except Exception as exc:
                self._audit(prompt, "backend_refusal", (time.perf_counter() - started) * 1000, None, attempt)
                if isinstance(exc, GatewayError):
                    raise
                logger.exception("backend raised %s", type(exc).__name__)
                raise BackendRefusalError(f"backend raised {type(exc).__name__}: {exc}") from exc

        latency_ms = (time.perf_counter() - started) * 1000
        if not reply.text and not reply.truncated:
            self._audit(prompt, "backend_refusal", latency_ms, 0, attempt)
            raise BackendRefusalError("backend returned an empty, untruncated completion")
        prompt_tokens = reply.prompt_tokens
        output_tokens = reply.output_tokens
        if prompt_tokens is None:
            prompt_tokens = int(round(estimate_tokens(prompt)))
        if output_tokens is None:
            output_tokens = int(round(estimate_tokens(reply.text)))
        self._audit(prompt, "ok", latency_ms, output_tokens, attempt)
        return CompletionResult(
            text=reply.text,
            prompt_tokens=prompt_tokens,
            output_tokens=output_tokens,
            truncated=reply.truncated,
        )

    def complete_batch(
        self,
        reqs: Sequence[CompletionRequest],
        parallelism: int = 4,
        cancel_event: threading.Event | None = None,
    ) -> list[CompletionResult | GatewayError]:
        """Complete all requests with at most `parallelism` in flight.

        The result list is in request order; a failed item holds its
        GatewayError in its slot instead of poisoning the batch. On Ctrl-C
        the batch stops starting new items, marks them CancelledError, and
        returns what it has.
        """
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        event = cancel_event if cancel_event is not None else threading.Event()
        slots: list[CompletionResult | GatewayError | None] = [None] * len(reqs)

        def run(req: CompletionRequest) -> CompletionResult | GatewayError:
            if event.is_set():
                return CancelledError("batch cancelled before this item started")
            try:
                return self.complete(req)
            except GatewayError as exc:
                return exc

        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            futures = []
            try:
                for req in reqs:
                    futures.append(pool.submit(run, req))
                for i, fut in enumerate(futures):
                    slots[i] = fut.result()
            except KeyboardInterrupt:
                logger.warning("interrupt: cancelling remaining batch items")
                event.set()
                for i, fut in enumerate(futures):
                    if slots[i] is None:
                        slots[i] = fut.result()
        return [
            CancelledError("batch cancelled before this item started") if slot is None else slot
            for slot in slots  # None: the interrupt came before the item was submitted
        ]
