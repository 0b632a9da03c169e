"""The digests of scripts/golden.py: the outputs they cover have not moved,
and a fault in each kind of output moves the digest that covers it.

A change that moves a digest on purpose reruns ``python3 scripts/golden.py``,
which rewrites tests/fixtures/golden.json.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import golden  # noqa: E402

from bpmnkit import batch, pipeline, similarity  # noqa: E402


def test_no_digest_moved():
    assert golden.moved() == []


def test_a_score_off_by_the_oracle_tolerance_moves_breakdowns(monkeypatch):
    real_compare = similarity.compare
    shifted = []

    def compare(*args, **kwargs):
        result = real_compare(*args, **kwargs)
        if shifted:
            return result
        shifted.append(result)
        return dataclasses.replace(result, semantic_name=result.semantic_name + 1e-9)

    monkeypatch.setattr(similarity, "compare", compare)
    assert golden.moved(["breakdowns"]) == ["breakdowns"]
    assert len(shifted) == 1


def test_a_changed_prompt_character_moves_pipeline(monkeypatch):
    prompt = pipeline.DESCRIPTION_SYSTEM_PROMPT
    monkeypatch.setattr(pipeline, "DESCRIPTION_SYSTEM_PROMPT", prompt[:-1] + "?")
    assert prompt[-1] != "?"
    assert golden.moved(["pipeline"]) == ["pipeline"]


def test_a_renamed_result_file_moves_fixture_corpus(monkeypatch):
    real_stems = batch._unique_stems
    monkeypatch.setattr(batch, "_unique_stems", lambda paths, used=(): [
        name.replace("loan-approval", "loan_approval") for name in real_stems(paths, used)])
    assert golden.moved(["fixture-corpus"]) == ["fixture-corpus"]
