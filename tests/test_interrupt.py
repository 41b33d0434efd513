"""Ctrl-C during a batch: the call in flight finishes, the rest are cancelled.

Each case runs in a fresh interpreter, because it delivers a real SIGINT to
its own process. The responder signals on the first prompt and then keeps
that call in flight, so the interrupt lands while the batch is waiting on it;
instant replies could otherwise finish the batch before the signal arrives.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PRELUDE = """
import os, signal, sys, time
from rec_eval import gateway

# An ignored SIGINT is inherited from a backgrounded parent; restore Python's.
signal.signal(signal.SIGINT, signal.default_int_handler)


def interrupting(responder):
    sent = []

    def respond(prompt):
        if not sent:
            sent.append(prompt)
            time.sleep(0.1)
            os.kill(os.getpid(), signal.SIGINT)
            time.sleep(0.3)
        return responder(prompt)

    return respond
"""

BATCH = PRELUDE + """
reqs = [gateway.CompletionRequest(f"prompt {i}") for i in range(4)]
gw = gateway.Gateway(gateway.MockBackend(interrupting(lambda prompt: "reply")), backoff_s=0.0)
print(" ".join(type(slot).__name__ for slot in gw.complete_batch(reqs, parallelism=1)))
"""

DATAGEN = PRELUDE + """
from rec_eval import cli

cli.load_mock_script = lambda path: interrupting(gateway.load_mock_script(path))
sys.exit(cli.main(sys.argv[1:]))
"""

CTX = "The store opens at nine. Refunds take three days."
REPLY = {
    "answer": "Yes",
    "feedback": "Fine.",
    "statements": [{"statement_string": "Fine.", "citations": ["Refunds take three days."]}],
}


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_complete_batch_keeps_the_call_in_flight_and_cancels_the_rest():
    proc = _run(BATCH)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["CompletionResult"] + ["CancelledError"] * 3


def test_datagen_interrupted_writes_the_cancelled_trailer(tmp_path):
    (tmp_path / "script.json").write_text(
        json.dumps({"rules": [], "default": json.dumps(REPLY)}), encoding="utf-8"
    )
    source = {"source_dataset": "demo", "inputs": {"task_prompt": CTX, "generation": "gen"}}
    (tmp_path / "sources.jsonl").write_text((json.dumps(source) + "\n") * 4, encoding="utf-8")
    out = tmp_path / "data.jsonl"
    proc = _run(
        DATAGEN, "datagen", "--input", str(tmp_path / "sources.jsonl"), "--task", "cite-quality",
        "--out", str(out), "--backend", f"mock:{tmp_path / 'script.json'}", "--parallelism", "1",
    )
    assert proc.returncode == 130, proc.stderr
    assert "kept 1/1 (cancelled 3)" in proc.stderr
    lines = out.read_text(encoding="utf-8").splitlines()
    stats = json.loads(lines[-1])["filter_stats"]
    assert stats["cancelled"] == 3 and stats["kept"] == 1
    assert len(lines) == 2  # the one kept record, then the trailer
