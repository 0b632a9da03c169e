from __future__ import annotations

import time
from pathlib import Path

import pytest
import requests

from bpmnkit.embeddings import HashingEmbedder
from bpmnkit.xmlio import BpmnDocument, parse

FIXTURES = Path(__file__).parent / "fixtures"

ALL_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.bpmn"))

CLEAN_FIXTURES = [
    "boundary.bpmn",
    "chain3.bpmn",
    "chain4.bpmn",
    "diamond.bpmn",
    "inclusive.bpmn",
    "loan-approval.bpmn",
    "order-v1.bpmn",
    "order-v2.bpmn",
    "parallel.bpmn",
    "unicode.bpmn",
]


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def fixture_bytes(name: str) -> bytes:
    return fixture_path(name).read_bytes()


def load_doc(name: str) -> BpmnDocument:
    return parse(fixture_bytes(name))


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def embedder() -> HashingEmbedder:
    return HashingEmbedder()


class FakeResponse:
    """What a faked ``requests.post`` returns."""

    def __init__(self, payload):
        self._payload = payload

    def raise_for_status(self):
        pass

    def json(self):
        return self._payload


def flaky_chat_post(monkeypatch, failures: int):
    """Fake ``requests.post``: ``failures`` connection errors, then a reply.
    Returns the list of posted URLs and the list of ``time.sleep`` delays."""
    posts: list[str] = []
    sleeps: list[float] = []

    def fake_post(url, json=None, timeout=None):
        posts.append(url)
        if len(posts) <= failures:
            raise requests.ConnectionError("flaky")
        return FakeResponse({"choices": [{"message": {"content": "recovered"}}]})

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.setattr(time, "sleep", sleeps.append)
    return posts, sleeps
