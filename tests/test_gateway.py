import gc
import json
import os
import random
import subprocess
import sys
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from rec_eval import (
    AuthFailureError,
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


def _gw(backend, **kw):
    kw.setdefault("backoff_s", 0.0)
    return Gateway(backend, **kw)


def test_mock_backend_literal_script():
    responder = script_responder({"rules": [{"contains": "ping", "text": "pong"}], "default": "dunno"})
    gw = _gw(MockBackend(responder))
    assert gw.complete(CompletionRequest(prompt="ping me")).text == "pong"
    assert gw.complete(CompletionRequest(prompt="other")).text == "dunno"


def test_mock_backend_sha_rule():
    digest = prompt_sha256("exact prompt")
    responder = script_responder({"rules": [{"prompt_sha256": digest, "text": "hit"}], "default": "miss"})
    gw = _gw(MockBackend(responder))
    assert gw.complete(CompletionRequest(prompt="exact prompt")).text == "hit"
    assert gw.complete(CompletionRequest(prompt="exact prompt ")).text == "miss"


def test_mock_backend_choose_output_rule():
    responder = script_responder({"rules": [{"choose_output_containing": "GOOD"}]})
    gw = _gw(MockBackend(responder))
    prompt = (
        "# Instruction:\npick\n\n# Output (a):\na GOOD one\n\n# Output (b):\nbad\n\n"
        "# Which is better, Output (a) or Output (b)?"
    )
    assert gw.complete(CompletionRequest(prompt=prompt)).text == "Output (a)"
    flipped = (
        "# Instruction:\npick\n\n# Output (a):\nbad\n\n# Output (b):\na GOOD one\n\n"
        "# Which is better, Output (a) or Output (b)?"
    )
    assert gw.complete(CompletionRequest(prompt=flipped)).text == "Output (b)"


def test_mock_backend_no_rule_no_default_refuses():
    gw = _gw(MockBackend(script_responder({"rules": []})))
    with pytest.raises(BackendRefusalError):
        gw.complete(CompletionRequest(prompt="anything"))


def test_mock_script_error_rules():
    responder = script_responder(
        {
            "rules": [
                {"contains": "boom", "error": "transport"},
                {"contains": "locked", "error": "auth"},
                {"contains": "nope", "error": "refusal"},
            ],
            "default": "fine",
        }
    )
    gw = _gw(MockBackend(responder), max_retries=1)
    with pytest.raises(TransportError):
        gw.complete(CompletionRequest(prompt="boom"))
    with pytest.raises(AuthFailureError):
        gw.complete(CompletionRequest(prompt="locked"))
    with pytest.raises(BackendRefusalError):
        gw.complete(CompletionRequest(prompt="nope"))


def test_load_mock_script(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(json.dumps({"rules": [], "default": "ok"}), encoding="utf-8")
    gw = _gw(MockBackend(load_mock_script(path)))
    assert gw.complete(CompletionRequest(prompt="x")).text == "ok"


def test_gateway_rejects_invalid_request():
    gw = _gw(MockBackend(script_responder({"default": "ok"})))
    with pytest.raises(Exception):
        gw.complete(CompletionRequest(prompt=""))


def test_gateway_retries_transport_then_succeeds():
    calls = {"n": 0}

    def flaky(prompt, **_kw):
        calls["n"] += 1
        if calls["n"] < 3:
            raise TransportError("blip")
        return "recovered"

    gw = _gw(MockBackend(flaky), max_retries=2)
    result = gw.complete(CompletionRequest(prompt="p"))
    assert result.text == "recovered"
    assert calls["n"] == 3


def test_gateway_exhausts_retries():
    def always_down(prompt, **_kw):
        raise TransportError("down")

    gw = _gw(MockBackend(always_down), max_retries=2)
    with pytest.raises(TransportError):
        gw.complete(CompletionRequest(prompt="p"))


def test_gateway_does_not_retry_auth_or_refusal():
    calls = {"n": 0}

    def locked(prompt, **_kw):
        calls["n"] += 1
        raise AuthFailureError("no key")

    gw = _gw(MockBackend(locked), max_retries=3)
    with pytest.raises(AuthFailureError):
        gw.complete(CompletionRequest(prompt="p"))
    assert calls["n"] == 1


def test_gateway_empty_reply_is_refusal():
    gw = _gw(MockBackend(lambda prompt, **_kw: ""))
    with pytest.raises(BackendRefusalError):
        gw.complete(CompletionRequest(prompt="p"))


def test_gateway_truncation_is_flag_not_error():
    gw = _gw(MockBackend(lambda prompt, **_kw: BackendReply(text="cut off", truncated=True)))
    result = gw.complete(CompletionRequest(prompt="p"))
    assert result.truncated and result.text == "cut off"


def test_gateway_estimates_tokens_when_backend_reports_none():
    gw = _gw(MockBackend(lambda prompt, **_kw: "three word reply"))
    result = gw.complete(CompletionRequest(prompt="five words in this prompt"))
    assert result.output_tokens == round(3 * 1.3)
    assert result.prompt_tokens == round(5 * 1.3)


def test_gateway_audit_log(tmp_path):
    audit = tmp_path / "audit.jsonl"
    calls = {"n": 0}

    def flaky(prompt, **_kw):
        calls["n"] += 1
        if calls["n"] == 1:
            raise TransportError("blip")
        return "ok"

    gw = _gw(MockBackend(flaky), max_retries=2, audit_log_path=str(audit))
    gw.complete(CompletionRequest(prompt="hello"))
    lines = [json.loads(line) for line in audit.read_text().splitlines()]
    assert len(lines) == 1
    entry = lines[0]
    assert entry["status"] == "ok"
    assert entry["retries"] == 1
    assert entry["prompt_sha256"] == prompt_sha256("hello")
    assert "hello" not in json.dumps(entry)  # prompt text never logged
    assert entry["latency_ms"] >= 0
    assert "ts" in entry


def test_gateway_audit_log_records_failures(tmp_path):
    audit = tmp_path / "audit.jsonl"
    gw = _gw(
        MockBackend(lambda prompt, **_kw: (_ for _ in ()).throw(AuthFailureError("denied"))),
        audit_log_path=str(audit),
    )
    with pytest.raises(AuthFailureError):
        gw.complete(CompletionRequest(prompt="p"))
    entry = json.loads(audit.read_text().splitlines()[0])
    assert entry["status"] == "auth_failure"


def test_complete_batch_preserves_order_under_latency():
    rng = random.Random(7)

    def echo(prompt, **_kw):
        return f"reply:{prompt}"

    backend = MockBackend(echo, latency_fn=lambda _prompt: rng.uniform(0.0, 0.004))
    gw = _gw(backend)
    requests = [CompletionRequest(prompt=f"p{i}") for i in range(40)]
    slots = gw.complete_batch(requests, parallelism=8)
    assert [s.text for s in slots] == [f"reply:p{i}" for i in range(40)]
    assert backend.peak_concurrency <= 8


def test_complete_batch_isolates_failures_per_slot():
    def picky(prompt, **_kw):
        if "bad" in prompt:
            raise AuthFailureError("denied")
        return "fine"

    gw = _gw(MockBackend(picky))
    slots = gw.complete_batch(
        [CompletionRequest(prompt="good 1"), CompletionRequest(prompt="bad 2"), CompletionRequest(prompt="good 3")],
        parallelism=2,
    )
    assert slots[0].text == "fine"
    assert isinstance(slots[1], AuthFailureError)
    assert slots[2].text == "fine"


def test_complete_batch_cancel_event_marks_remaining():
    event = threading.Event()
    started = threading.Event()

    def slow(prompt, **_kw):
        started.set()
        time.sleep(0.01)
        return "done"

    gw = _gw(MockBackend(slow))
    requests = [CompletionRequest(prompt=f"p{i}") for i in range(30)]

    def trip():
        started.wait(1.0)
        event.set()

    tripper = threading.Thread(target=trip)
    tripper.start()
    slots = gw.complete_batch(requests, parallelism=2, cancel_event=event)
    tripper.join()
    cancelled = [s for s in slots if isinstance(s, CancelledError)]
    finished = [s for s in slots if not isinstance(s, GatewayError)]
    assert len(slots) == 30
    assert cancelled, "cancellation should mark the not-yet-run slots"
    assert all(s.text == "done" for s in finished)


class _Script(BaseHTTPRequestHandler):
    """HTTP/1.1 keep-alive handler driven by class-level state the tests set.

    script is a list of (status, body_dict) replies; when it is empty the
    handler echoes the prompt. With drop_idle set, it closes each connection
    after its first reply without saying so, as a server does to a socket
    that sat idle too long.
    """

    protocol_version = "HTTP/1.1"
    lock = threading.Lock()
    script = []
    seen = []
    connections = 0
    drop_idle = False

    def setup(self):
        super().setup()
        with type(self).lock:
            type(self).connections += 1

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).seen.append(
            {"headers": dict(self.headers), "body": body, "path": self.path}
        )
        if type(self).script:
            status, reply = type(self).script.pop(0)
        else:
            status, reply = 200, _ok_body("echo:" + body["messages"][0]["content"])
        payload = json.dumps(reply).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        self.close_connection = type(self).drop_idle

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server(monkeypatch):
    for name in ("HTTP_PROXY", "http_proxy", "NO_PROXY", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Script)
    _Script.script, _Script.seen, _Script.connections, _Script.drop_idle = [], [], 0, False
    # a short poll keeps shutdown() from waiting out the default 0.5 s
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield server, f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    server.shutdown()
    server.server_close()
    thread.join(timeout=2)
    assert not thread.is_alive()


@pytest.fixture
def http_backend(http_server):
    """HttpBackend factory, by default for the live server; closes what it made at teardown."""
    made = []

    def make(url=http_server[1], model="m", **kwargs):
        made.append(HttpBackend(url, model, **kwargs))
        return made[-1]

    yield make
    for backend in made:
        backend.close()


def _ok_body(text, finish="stop"):
    return {
        "choices": [{"message": {"content": text}, "finish_reason": finish}],
        "usage": {"prompt_tokens": 11, "completion_tokens": 7},
    }


def test_http_backend_request_shape_and_auth_header(http_backend, monkeypatch, tmp_path):
    monkeypatch.setenv("REC_API_KEY", "secret-key-123")
    _Script.script.append((200, _ok_body("hi there")))
    gw = _gw(http_backend(model="test-model"), audit_log_path=str(tmp_path / "a.jsonl"))
    result = gw.complete(CompletionRequest(prompt="the prompt", temperature=0.5, seed=9))
    assert result.text == "hi there"
    assert result.prompt_tokens == 11 and result.output_tokens == 7
    seen = _Script.seen[0]
    assert seen["headers"]["Authorization"] == "Bearer secret-key-123"
    assert seen["body"]["model"] == "test-model"
    assert seen["body"]["messages"] == [{"role": "user", "content": "the prompt"}]
    assert seen["body"]["temperature"] == 0.5
    assert seen["body"]["seed"] == 9
    # the credential travels only in the header
    assert "secret-key-123" not in json.dumps(seen["body"])
    audit = (tmp_path / "a.jsonl").read_text()
    assert "secret-key-123" not in audit


def test_http_backend_retries_5xx_then_succeeds(http_backend, monkeypatch, tmp_path):
    monkeypatch.setenv("REC_API_KEY", "k")
    _Script.script.extend([(503, {"error": "busy"}), (200, _ok_body("second try"))])
    audit = tmp_path / "audit.jsonl"
    gw = _gw(http_backend(), max_retries=2, audit_log_path=str(audit))
    assert gw.complete(CompletionRequest(prompt="p")).text == "second try"
    entry = json.loads(audit.read_text().splitlines()[0])
    assert entry["retries"] == 1
    assert len(_Script.seen) == 2


def test_http_backend_401_is_auth_failure_no_retry(http_backend, monkeypatch):
    monkeypatch.setenv("REC_API_KEY", "bad")
    _Script.script.append((401, {"error": "unauthorized"}))
    gw = _gw(http_backend(), max_retries=3)
    with pytest.raises(AuthFailureError):
        gw.complete(CompletionRequest(prompt="p"))
    assert len(_Script.seen) == 1


def test_http_backend_429_is_transport(http_backend, monkeypatch):
    monkeypatch.setenv("REC_API_KEY", "k")
    _Script.script.extend([(429, {"error": "slow down"}), (200, _ok_body("ok"))])
    gw = _gw(http_backend(), max_retries=1)
    assert gw.complete(CompletionRequest(prompt="p")).text == "ok"


def test_http_backend_other_4xx_is_refusal(http_backend, monkeypatch):
    monkeypatch.setenv("REC_API_KEY", "k")
    _Script.script.append((400, {"error": "bad request"}))
    gw = _gw(http_backend())
    with pytest.raises(BackendRefusalError):
        gw.complete(CompletionRequest(prompt="p"))


def test_http_backend_length_finish_sets_truncated(http_backend, monkeypatch):
    monkeypatch.setenv("REC_API_KEY", "k")
    _Script.script.append((200, _ok_body("cut", finish="length")))
    gw = _gw(http_backend())
    result = gw.complete(CompletionRequest(prompt="p"))
    assert result.truncated


def test_http_backend_no_key_sends_no_auth_header(http_backend, monkeypatch):
    monkeypatch.delenv("REC_API_KEY", raising=False)
    _Script.script.append((200, _ok_body("anon")))
    gw = _gw(http_backend())
    assert gw.complete(CompletionRequest(prompt="p")).text == "anon"
    assert "Authorization" not in _Script.seen[0]["headers"]


def test_http_backend_connection_error_is_transport():
    backend = HttpBackend("http://127.0.0.1:1/nothing", "m", timeout_ms=300)
    gw = _gw(backend)
    with pytest.raises(TransportError):
        gw.complete(CompletionRequest(prompt="p"))


@pytest.mark.parametrize("count", ["12", True, -3, 2.5, None])
def test_http_backend_estimates_token_counts_it_cannot_use(http_backend, count):
    # None stands for a usage field that is not an object at all
    usage = [1] if count is None else {"prompt_tokens": 4, "completion_tokens": count}
    _Script.script.extend([(200, {"choices": [{"message": {"content": "three word reply"}}], "usage": usage})] * 2)
    slots = _gw(http_backend()).complete_batch(
        [CompletionRequest(prompt="p one"), CompletionRequest(prompt="p two")], parallelism=2
    )
    assert [s.output_tokens for s in slots] == [round(3 * 1.3)] * 2
    assert [s.prompt_tokens for s in slots] == [round(2 * 1.3) if count is None else 4] * 2


def test_backend_exception_of_another_type_fails_only_its_slot(tmp_path, caplog):
    def brittle(prompt):
        if "bad" in prompt:
            raise ValueError("boom")
        return "fine"

    audit = tmp_path / "audit.jsonl"
    gw = _gw(MockBackend(brittle), audit_log_path=str(audit))
    slots = gw.complete_batch([CompletionRequest(prompt="good"), CompletionRequest(prompt="bad")], parallelism=2)
    assert slots[0].text == "fine"
    assert isinstance(slots[1], BackendRefusalError)
    assert "ValueError" in str(slots[1]) and "boom" in str(slots[1])
    statuses = sorted(json.loads(line)["status"] for line in audit.read_text().splitlines())
    assert statuses == ["backend_refusal", "ok"]
    assert sum(r.exc_info is not None for r in caplog.records) == 1


def test_import_and_score_load_no_http_stack(tmp_path):
    # Also none of the stdlib that only HTTP, the audit log, sha rules or a batch need.
    fixtures = os.path.join(os.path.dirname(__file__), "fixtures")
    pred, ctx = tmp_path / "pred.jsonl", tmp_path / "ctx.jsonl"
    pred.write_text(json.dumps({"context_ref": "c", "gold": ["A b."], "predicted_citations": ["A b."]}) + "\n")
    ctx.write_text(json.dumps({"context_id": "c", "body": "A b. C d."}) + "\n")
    with open(os.path.join(fixtures, "summary_eval_reply.json"), encoding="utf-8") as fh:
        (tmp_path / "script.json").write_text(json.dumps({"default": fh.read()}))
    evaluate = [
        "evaluate", "--context", os.path.join(fixtures, "summary_context.txt"),
        "--generation", os.path.join(fixtures, "summary_generation.txt"),
        "--metric", "faithfulness", "--backend", f"mock:{tmp_path / 'script.json'}",
    ]
    script = (
        "import sys\n"
        "import rec_eval.cli\n"
        "lazy = {'requests', 'http.client', 'hashlib', '_hashlib', 'datetime', 'concurrent.futures'}\n"
        "loaded = lambda: sorted(lazy & set(sys.modules))\n"
        "assert loaded() == [], loaded()\n"
        f"assert rec_eval.cli.main(['score', '--pred', {str(pred)!r}, '--contexts', {str(ctx)!r}]) == 0\n"
        "assert loaded() == [], loaded()\n"
        f"assert rec_eval.cli.main({evaluate!r}) == 0\n"
        "assert loaded() == [], loaded()\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_complete_batch_interrupted_while_submitting_cancels_the_rest(monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    submit, calls = ThreadPoolExecutor.submit, []

    def interrupted_on_second_call(pool, *args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return submit(pool, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", interrupted_on_second_call)
    event = threading.Event()
    reqs = [CompletionRequest(prompt=f"p{i}") for i in range(4)]
    try:
        slots = _gw(MockBackend(lambda prompt: "reply")).complete_batch(reqs, parallelism=1, cancel_event=event)
    except KeyboardInterrupt:
        pytest.fail("the interrupt escaped complete_batch")
    assert len(slots) == 4
    assert isinstance(slots[0], (CompletionResult, CancelledError))
    assert all(isinstance(slot, CancelledError) for slot in slots[1:])
    assert event.is_set()


def test_http_backend_close_leaves_no_socket_for_the_collector(http_server):
    server, url = http_server
    gw = _gw(HttpBackend(url, "m"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        slots = gw.complete_batch([CompletionRequest(prompt=f"p{i}") for i in range(6)], parallelism=3)
        gw.backend.close()
        gw.backend.close()
        del gw
        gc.collect()
    assert [slot.text for slot in slots] == [f"echo:p{i}" for i in range(6)]
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_http_backend_closes_the_connections_of_finished_batches(http_server):
    server, url = http_server
    gw = _gw(HttpBackend(url, "m"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for batch in range(4):
            gw.complete_batch([CompletionRequest(prompt=f"{batch}.{i}") for i in range(6)], parallelism=3)
            assert len(gw.backend._connections) <= 3
        gc.collect()
    gw.backend.close()
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_http_backend_keeps_one_connection_per_thread(http_backend):
    gw = _gw(http_backend())
    assert gw.complete(CompletionRequest(prompt="one")).text == "echo:one"
    assert gw.complete(CompletionRequest(prompt="two")).text == "echo:two"
    assert _Script.connections == 1


def test_http_backend_reopens_a_stale_connection_without_a_retry(http_backend, tmp_path):
    _Script.drop_idle = True
    audit = tmp_path / "audit.jsonl"
    gw = _gw(http_backend(), max_retries=0, audit_log_path=str(audit))
    assert gw.complete(CompletionRequest(prompt="one")).text == "echo:one"
    assert gw.complete(CompletionRequest(prompt="two")).text == "echo:two"
    assert [json.loads(line)["retries"] for line in audit.read_text().splitlines()] == [0, 0]
    assert _Script.connections == 2


def test_http_backend_batch_over_a_live_server_keeps_order(http_backend):
    prompts = [f"p{i}" for i in range(12)]
    slots = _gw(http_backend()).complete_batch([CompletionRequest(prompt=p) for p in prompts], parallelism=4)
    assert [s.text for s in slots] == [f"echo:{p}" for p in prompts]
    assert _Script.connections <= 4


def test_http_backend_goes_through_http_proxy_unless_no_proxy(http_server, http_backend, monkeypatch):
    server, url = http_server
    proxy = f"http://127.0.0.1:{server.server_address[1]}"
    monkeypatch.setenv("HTTP_PROXY", proxy)
    remote = "http://backend.invalid/v1/chat/completions?v=1"
    assert _gw(http_backend(remote)).complete(CompletionRequest(prompt="p")).text == "echo:p"
    assert [seen["path"] for seen in _Script.seen] == [remote]

    # the proxy now points at a closed port; NO_PROXY must route around it
    monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:1")
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    assert _gw(http_backend(url)).complete(CompletionRequest(prompt="q")).text == "echo:q"
    assert [seen["path"] for seen in _Script.seen] == [remote, "/v1/chat/completions"]
