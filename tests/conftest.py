import json
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"

# filled by the acceptance tests; echoed after the run so the per-criterion
# verdicts survive output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def fixture_json(name: str):
    return json.loads(fixture_text(name))


@pytest.fixture
def summary_context() -> str:
    return fixture_text("summary_context.txt")


@pytest.fixture
def summary_reply_raw() -> str:
    return fixture_text("summary_eval_reply.json")


@pytest.fixture
def photo_answer() -> str:
    # renderers treat the answer text literally, so strip the file's newline
    return fixture_text("photosynthesis_answer.txt").rstrip("\n")


@pytest.fixture
def photo_chunks() -> dict[str, str]:
    return {item["context_id"]: item["body"] for item in fixture_json("photosynthesis_chunks.json")}
