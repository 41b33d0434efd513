"""The parent-vs-change case runner of tools/equiv.py gives the same digests on every run."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("equiv", ROOT / "tools" / "equiv.py")
equiv = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(equiv)

# A few groups of each kind, small enough to run in seconds.
SELECT = ["help", "fixtures/judge", "fixtures/datagen", "edge", "perfbench/datagen-overlap/s1/b1",
          "perfbench/score/s1/b1", "perfbench/evaluate/s2/b2", "library/s1/b0"]


def test_the_case_runner_gives_equal_digests_twice(tmp_path):
    first = equiv.run_tree(ROOT, tmp_path / "first", SELECT)
    second = equiv.run_tree(ROOT, tmp_path / "second", SELECT)
    assert {case.split("/")[0] for case in first} == {"help", "fixtures", "edge", "perfbench", "library"}
    assert "perfbench/evaluate/s2/b2/c5" in first and "perfbench/datagen-overlap/s1/b1" in first
    assert equiv.differing(first, second) == []


def test_a_changed_output_is_reported():
    parent = {"a": {"stdout": "1"}, "b": {"stdout": "2"}}
    change = {"a": {"stdout": "1"}, "b": {"stdout": "3"}, "c": {"stdout": "4"}}
    assert equiv.differing(parent, change) == ["b", "c"]
