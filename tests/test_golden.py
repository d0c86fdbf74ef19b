"""The answer corpus: every invocation in tests/golden.json, replayed.

Each entry was recorded by tests/record_golden.py; an answer that changes,
in any subcommand or exit path, fails here.
"""

import json
import time

import record_golden

ENTRIES = json.loads(record_golden.GOLDEN.read_text())


def test_the_corpus_is_the_recorder_grid():
    assert [entry["argv"] for entry in ENTRIES] == record_golden.invocations()
    assert len(ENTRIES) >= 40
    assert {entry["exit"] for entry in ENTRIES} == {0, 2, 3}


def test_every_answer_matches_the_corpus(monkeypatch):
    monkeypatch.delenv("HECKELAB_BUDGET", raising=False)
    start = time.perf_counter()
    changed = [entry["argv"] for entry in ENTRIES if record_golden.run(entry["argv"]) != entry]
    elapsed = time.perf_counter() - start
    assert not changed
    assert elapsed < 10, f"{len(ENTRIES)} invocations took {elapsed:.1f} s"
