"""The one HTTP transport, ``llm.post_json``, as both remote clients see it:
each case runs against a loopback server on 127.0.0.1."""

from __future__ import annotations

from types import ModuleType
from typing import Callable, NamedTuple

import pytest

from bpmnkit import embeddings, llm
from bpmnkit.embeddings import DEFAULT_DIMENSION, RemoteEmbedder, RemoteUnavailable
from bpmnkit.llm import HttpChatClient, LlmUnavailable, system, user

from conftest import Reply

UNIT = [1.0] + [0.0] * (DEFAULT_DIMENSION - 1)


class Client(NamedTuple):
    call: Callable[[str], object]  # one retried call to the service at a URL
    module: ModuleType  # holds the client's TIMEOUT
    reply: object  # a standard reply, and what the call returns for it
    result: object
    failure: type[Exception]  # a failed call, and its message prefix
    prefix: str
    timeout: type[Exception]  # a timed-out call, and its message prefix
    timeout_prefix: str


CLIENTS = {
    "chat": Client(
        lambda url: HttpChatClient(url, "test-model").complete([system("Test."), user("Ping.")]),
        llm, {"choices": [{"message": {"content": "pong"}}]}, "pong",
        LlmUnavailable, "chat completion failed: ", LlmUnavailable, "chat completion timed out: "),
    "embeddings": Client(
        lambda url: RemoteEmbedder(url, "test-model").embed_batch(["ping"]).tolist(),
        embeddings, {"embeddings": [UNIT]}, [UNIT],
        RemoteUnavailable, "embedding service failed: ",
        RemoteUnavailable, "embedding service failed: "),
}


@pytest.fixture(params=sorted(CLIENTS))
def client(request) -> Client:
    return CLIENTS[request.param]


def test_standard_reply(client, loopback):
    loopback.answer = lambda body: client.reply
    assert client.call(loopback.url()) == client.result
    ((path, content_type, _),) = loopback.posts
    assert (path, content_type) == ("/v1", "application/json")


@pytest.mark.parametrize("answer, detail", [
    (Reply(b'{"error": "boom"}', status=500), "HTTP Error 500: Internal Server Error"),
    (Reply(b"<html>busy</html>"), "Expecting value: line 1 column 1 (char 0)"),
    (Reply(b'{"choices": [', length=100), "IncompleteRead(13 bytes read, 87 more expected)"),
    (Reply(status=307, headers=(("Location", "/elsewhere"),)), "HTTP Error 307: "),
], ids=["http-500", "not-json", "cut-short", "redirect-307"])
def test_failed_call_is_retried_then_unavailable(client, loopback, sleeps, answer, detail):
    loopback.answer = lambda body: answer
    with pytest.raises(client.failure) as info:
        client.call(loopback.url())
    assert type(info.value) is client.failure
    assert str(info.value).startswith(client.prefix + detail)
    # a redirect of the POST is not followed: every call reached /v1 only
    assert [path for path, _, _ in loopback.posts] == ["/v1"] * 3
    assert sleeps == [0.5, 1.0]


def test_refused_connection(client, refused_url, sleeps):
    with pytest.raises(client.failure) as info:
        client.call(refused_url)
    assert type(info.value) is client.failure
    assert str(info.value).startswith(client.prefix + "<urlopen error ")
    assert "refused" in str(info.value)
    assert sleeps == [0.5, 1.0]


def test_timeout(client, loopback, sleeps, monkeypatch):
    monkeypatch.setattr(client.module, "TIMEOUT", 0.2)
    loopback.answer = lambda body: Reply(hang=True)  # released when the server stops
    with pytest.raises(client.timeout) as info:
        client.call(loopback.url())
    assert type(info.value) is client.timeout
    assert str(info.value) == client.timeout_prefix + "timed out"
    assert len(loopback.posts) == 3
    assert sleeps == [0.5, 1.0]


def test_url_without_a_scheme_is_a_failed_call(client, sleeps):
    with pytest.raises(client.failure,
                       match="^" + client.prefix + "unknown url type: 'no-scheme/v1'$"):
        client.call("no-scheme/v1")
    assert sleeps == [0.5, 1.0]
