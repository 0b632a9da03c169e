from __future__ import annotations

import http.server
import json
import socket
import threading
import time
from pathlib import Path
from typing import NamedTuple

import pytest

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


def element_by_id(doc: BpmnDocument, element_id: str):
    """The first element of ``doc`` with this id, or None."""
    return next((e for e in doc.root.iter() if e.get("id") == element_id), None)


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def embedder() -> HashingEmbedder:
    return HashingEmbedder()


def narrow_embedder(dimension: int) -> HashingEmbedder:
    """The hashing embedder with ``dimension`` buckets in place of its fixed
    width, so tokens collide (``embed_batch`` reads the width from the
    ``dimension`` attribute)."""
    if dimension == HashingEmbedder.dimension:
        return HashingEmbedder()
    return type("NarrowHashingEmbedder", (HashingEmbedder,),
                {"dimension": dimension, "cache_key": f"hashing-fallback:{dimension}"})()


class Reply(NamedTuple):
    """One answer of the loopback server. ``length``, when given, is the
    Content-Length sent in place of ``len(body)`` (a larger one cuts the
    reply short); ``hang`` holds the answer back until the server stops;
    ``headers`` are sent before Content-Type and Content-Length."""

    body: bytes = b""
    status: int = 200
    length: int | None = None
    hang: bool = False
    headers: tuple[tuple[str, str], ...] = ()


class _Handler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.posts.append((self.path, self.headers["Content-Type"], body))
        reply = self.server.answer(body)
        if not isinstance(reply, Reply):
            reply = Reply(json.dumps(reply).encode("utf-8"))
        if reply.hang:
            self.server.released.wait()
            return
        self.send_response(reply.status)
        for name, value in reply.headers:
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply.body) if reply.length is None
                                               else reply.length))
        self.end_headers()
        self.wfile.write(reply.body)

    def log_message(self, format, *args):
        pass


class LoopbackServer(http.server.ThreadingHTTPServer):
    """A JSON service on 127.0.0.1. Each POST is recorded in ``posts`` as
    (path, Content-Type, decoded body) and answered with ``answer(body)``:
    a Reply, or any other value, sent as JSON with status 200."""

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.posts: list[tuple[str, str, object]] = []
        self.answer = lambda body: {}
        self.released = threading.Event()

    def url(self, path: str = "/v1") -> str:
        return f"http://127.0.0.1:{self.server_port}{path}"

    def handle_error(self, request, client_address):
        pass  # a client that timed out has closed its end


def scripted(*replies):
    """An ``answer`` that gives ``replies`` in order, one per POST."""
    pending = list(replies)
    return lambda body: pending.pop(0)


@pytest.fixture
def loopback(monkeypatch):
    monkeypatch.setenv("no_proxy", "*")  # never route 127.0.0.1 through a proxy
    server = LoopbackServer()
    # a short poll interval lets shutdown() return quickly
    thread = threading.Thread(target=server.serve_forever, args=(0.01,))
    thread.start()
    yield server
    server.released.set()
    server.shutdown()
    server.server_close()
    thread.join()


@pytest.fixture
def refused_url(monkeypatch):
    """A 127.0.0.1 URL whose port is bound but not listening, so a
    connection to it is refused."""
    monkeypatch.setenv("no_proxy", "*")
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        yield f"http://127.0.0.1:{sock.getsockname()[1]}/v1"


@pytest.fixture
def sleeps(monkeypatch) -> list[float]:
    """The delays passed to ``time.sleep``, which returns at once."""
    delays: list[float] = []
    monkeypatch.setattr(time, "sleep", delays.append)
    return delays


def flaky_chat(loopback: LoopbackServer, failures: int) -> None:
    """Answer ``failures`` chat calls with HTTP 503, then each with "recovered"."""
    loopback.answer = lambda body: (
        Reply(status=503) if len(loopback.posts) <= failures
        else {"choices": [{"message": {"content": "recovered"}}]})
