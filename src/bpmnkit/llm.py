"""Chat-completion clients and structured-output helpers.

``HttpChatClient`` speaks the common JSON chat protocol
(``{model, messages, temperature, max_tokens}`` ->
``{choices: [{message: {content}}]}``). ``MockChatClient`` replays a scripted
response list for offline runs and records every prompt it receives.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import jsonschema
import requests

ENV_LLM_ENDPOINT = "BPMNKIT_LLM_ENDPOINT"
ENV_LLM_MODEL = "BPMNKIT_LLM_MODEL"


class LlmUnavailable(RuntimeError):
    pass


class LlmTimeout(LlmUnavailable):
    pass


class SchemaFailureAfterRetries(RuntimeError):
    def __init__(self, last_error: str, raw: str, attempts: int, stage: str | None = None):
        super().__init__(f"no schema-valid response after {attempts} attempt(s): {last_error}")
        self.last_error = last_error
        self.raw = raw
        self.attempts = attempts
        self.stage = stage


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"invalid role {self.role!r}")
        if not self.content:
            raise ValueError("message content must be non-empty")

    def to_dict(self) -> dict:
        return {"role": self.role, "content": self.content}


def system(content: str) -> ChatMessage:
    return ChatMessage("system", content)


def user(content: str) -> ChatMessage:
    return ChatMessage("user", content)


def assistant(content: str) -> ChatMessage:
    return ChatMessage("assistant", content)


@dataclass
class LlmClientConfig:
    endpoint: str = ""
    model: str = ""
    temperature: float = 0.0
    max_tokens: int = 4096
    timeout: float = 120.0
    retry_count: int = 2
    backoff: float = 0.5


class HttpChatClient:
    def __init__(self, cfg: LlmClientConfig):
        if not cfg.endpoint or not cfg.model:
            raise ValueError("remote chat client requires endpoint and model")
        self.cfg = cfg

    def complete_once(self, messages: Sequence[ChatMessage]) -> str:
        payload = {
            "model": self.cfg.model,
            "messages": [m.to_dict() for m in messages],
            "temperature": self.cfg.temperature,
            "max_tokens": self.cfg.max_tokens,
        }
        try:
            response = requests.post(self.cfg.endpoint, json=payload, timeout=self.cfg.timeout)
            response.raise_for_status()
            data = response.json()
            return data["choices"][0]["message"]["content"]
        except requests.Timeout as exc:
            raise LlmTimeout(f"chat completion timed out: {exc}") from exc
        except (requests.RequestException, KeyError, IndexError, ValueError) as exc:
            raise LlmUnavailable(f"chat completion failed: {exc}") from exc


class MockChatClient:
    """Replays a script of responses; entries may be exceptions to raise.
    Records the message list of every call in ``calls``."""

    def __init__(self, script: Sequence[str | Exception]):
        self.script = list(script)
        self.calls: list[list[ChatMessage]] = []
        self._cursor = 0

    @classmethod
    def from_json(cls, path: str | Path) -> "MockChatClient":
        """Script file: a JSON array of strings, ``{"content": ...}`` or
        ``{"error": "unavailable"|"timeout"}`` entries."""
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        script: list[str | Exception] = []
        for entry in raw:
            if isinstance(entry, str):
                script.append(entry)
            elif "error" in entry:
                kind = entry["error"]
                script.append(LlmTimeout("scripted timeout") if kind == "timeout"
                              else LlmUnavailable(f"scripted failure: {kind}"))
            else:
                script.append(entry["content"])
        return cls(script)

    @property
    def call_count(self) -> int:
        return len(self.calls)

    def complete_once(self, messages: Sequence[ChatMessage]) -> str:
        self.calls.append(list(messages))
        if self._cursor >= len(self.script):
            raise LlmUnavailable("mock script exhausted")
        entry = self.script[self._cursor]
        self._cursor += 1
        if isinstance(entry, Exception):
            raise entry
        return entry


def complete(client, messages: Sequence[ChatMessage], retry_count: int | None = None,
             backoff: float = 0.0) -> str:
    """Run one completion with exponential backoff on transient failures.
    ``retry_count`` retries follow the initial attempt."""
    if not messages:
        raise ValueError("messages must be non-empty")
    if messages[0].role != "system":
        raise ValueError("first message must have the system role")
    retries = retry_count if retry_count is not None else 0
    last: Exception | None = None
    for attempt in range(retries + 1):
        try:
            return client.complete_once(messages)
        except LlmUnavailable as exc:
            last = exc
            if attempt < retries and backoff > 0:
                time.sleep(backoff * 2 ** attempt)
    assert last is not None
    raise last


_FENCE = re.compile(r"```(?:[a-zA-Z0-9_-]+)?\s*\n?(.*?)```", re.DOTALL)


def extract_json(text: str):
    """Pull the first JSON value out of a response, tolerating code fences
    and surrounding prose. Raises ValueError when nothing parses."""
    for block in _FENCE.findall(text):
        candidate = block.strip()
        if candidate:
            try:
                return json.loads(candidate)
            except json.JSONDecodeError:
                pass
    decoder = json.JSONDecoder()
    for match in re.finditer(r"[\[{]", text):
        try:
            value, _ = decoder.raw_decode(text, match.start())
            return value
        except json.JSONDecodeError:
            continue
    raise ValueError("response contains no parseable JSON value")


JSON_COMPLAINT = ("The previous response was not valid against the required JSON "
                  "schema: {error}. Reply again with only the corrected JSON.")


def parse_with_retry(client, messages: Sequence[ChatMessage], response: str, parse,
                     complaint: str, max_retries: int, retry_count: int = 0,
                     backoff: float = 0.0, stage: str | None = None):
    """Parse a response with ``parse``, re-prompting the model up to
    ``max_retries`` times with ``complaint`` (its ``{error}`` field filled
    from the parser's ValueError). The final failure is tagged with ``stage``.

    Returns (parsed value, raw response text).
    """
    conversation = list(messages)
    raw = response
    last_error = ""
    for attempt in range(max_retries + 1):
        try:
            return parse(raw), raw
        except ValueError as exc:
            last_error = str(exc)
        if attempt == max_retries:
            break
        conversation = conversation + [
            assistant(raw if raw.strip() else "(empty response)"),
            user(complaint.format(error=last_error)),
        ]
        raw = complete(client, conversation, retry_count=retry_count, backoff=backoff)
    raise SchemaFailureAfterRetries(last_error, raw, max_retries + 1, stage)


def parse_json_with_retry(client, messages: Sequence[ChatMessage], response: str,
                          schema: dict, max_retries: int = 3,
                          retry_count: int = 0, backoff: float = 0.0,
                          stage: str | None = None):
    """Validate a response against a JSON schema, re-prompting the model with
    the validation error up to ``max_retries`` times.

    Returns (validated payload, raw response text).
    """
    def parse(raw: str):
        payload = extract_json(raw)
        try:
            jsonschema.validate(payload, schema)
        except jsonschema.ValidationError as exc:
            raise ValueError(exc.message) from exc
        return payload

    return parse_with_retry(client, messages, response, parse, JSON_COMPLAINT, max_retries,
                            retry_count=retry_count, backoff=backoff, stage=stage)
