"""Chat-completion clients and structured-output helpers.

``HttpChatClient`` speaks the common JSON chat protocol
(``{model, messages, temperature, max_tokens}`` ->
``{choices: [{message: {content}}]}``) and retries through ``retry``, the
transport retry policy it shares with the remote embedder; ``post_json`` is
the one HTTP call both make.
``MockChatClient`` replays a scripted response list for offline runs and
records every prompt it receives.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence


class LlmUnavailable(RuntimeError):
    pass


class SchemaFailureAfterRetries(RuntimeError):
    pass


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


TEMPERATURE = 0.0
MAX_TOKENS = 4096
TIMEOUT = 120.0


def post_json(url: str, payload, timeout: float):
    """POST ``payload`` as JSON to ``url`` and return the decoded JSON reply.
    Raises TimeoutError when no reply comes within ``timeout`` seconds, and
    OSError for any other failed call: a bad URL, a refused connection, an
    HTTP error status (307/308 included), a reply cut short or not JSON."""
    # imported on first use: with ssl they take tens of ms to load
    import http.client
    import urllib.error
    import urllib.request

    try:
        request = urllib.request.Request(url, json.dumps(payload).encode("utf-8"),
                                         {"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read())
    except urllib.error.HTTPError as exc:
        exc.close()  # the error reply holds the connection
        raise
    except urllib.error.URLError as exc:
        if isinstance(exc.reason, TimeoutError):  # timed out while connecting
            raise TimeoutError(exc.reason) from exc
        raise
    except (http.client.HTTPException, ValueError) as exc:
        raise OSError(exc) from exc


def retry(call, errors, retry_count: int = 2):
    """``call()``, retried on ``errors`` up to ``retry_count`` times, sleeping
    ``0.5 * 2**attempt`` seconds before each retry."""
    for attempt in range(retry_count):
        try:
            return call()
        except errors:
            time.sleep(0.5 * 2 ** attempt)
    return call()


class HttpChatClient:
    def __init__(self, endpoint: str, model: str, retry_count: int = 2):
        if not endpoint or not model:
            raise ValueError("remote chat client requires endpoint and model")
        self.endpoint = endpoint
        self.model = model
        self.retry_count = retry_count

    def complete(self, messages: Sequence[ChatMessage]) -> str:
        """``complete_once``, retried on LlmUnavailable (timeouts included)."""
        return retry(lambda: self.complete_once(messages), LlmUnavailable, self.retry_count)

    def complete_once(self, messages: Sequence[ChatMessage]) -> str:
        payload = {
            "model": self.model,
            "messages": [m.to_dict() for m in messages],
            "temperature": TEMPERATURE,
            "max_tokens": MAX_TOKENS,
        }
        try:
            reply = post_json(self.endpoint, payload, TIMEOUT)
            content = reply["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError(f"reply content is {type(content).__name__}, not a string")
        except TimeoutError as exc:
            raise LlmUnavailable(f"chat completion timed out: {exc}") from exc
        except (OSError, LookupError, TypeError) as exc:
            raise LlmUnavailable(f"chat completion failed: {exc}") from exc
        return content


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
        if not isinstance(raw, list):
            raise ValueError(f"mock script {path}: expected a JSON array")
        script: list[str | Exception] = []
        for index, entry in enumerate(raw):
            if isinstance(entry, str):
                script.append(entry)
            elif isinstance(entry, dict) and "error" in entry:
                kind = entry["error"]
                script.append(LlmUnavailable("scripted timeout" if kind == "timeout"
                                             else f"scripted failure: {kind}"))
            elif isinstance(entry, dict) and isinstance(entry.get("content"), str):
                script.append(entry["content"])
            else:
                raise ValueError(f"mock script {path}: entry {index} has no content or error")
        return cls(script)

    @property
    def call_count(self) -> int:
        return len(self.calls)

    def complete(self, messages: Sequence[ChatMessage]) -> str:
        self.calls.append(list(messages))
        if self._cursor >= len(self.script):
            raise LlmUnavailable("mock script exhausted")
        entry = self.script[self._cursor]
        self._cursor += 1
        if isinstance(entry, Exception):
            raise entry
        return entry


def complete(client, messages: Sequence[ChatMessage]) -> str:
    """Run one completion; retrying a failed call is the client's business."""
    if not messages:
        raise ValueError("messages must be non-empty")
    if messages[0].role != "system":
        raise ValueError("first message must have the system role")
    return client.complete(messages)


FENCE = re.compile(r"```(?:[a-zA-Z0-9_-]+)?\s*\n?(.*?)```", re.DOTALL)


def extract_json(text: str):
    """Pull the first JSON value out of a response, tolerating code fences
    and surrounding prose. Raises ValueError when nothing parses."""
    for block in FENCE.findall(text):
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

SCHEMA_RETRIES = 3  # re-prompts after a response that does not parse


def parse_with_retry(client, messages: Sequence[ChatMessage], response: str, parse,
                     complaint: str, stage: str):
    """Parse a response with ``parse``, re-prompting the model up to
    ``SCHEMA_RETRIES`` times with ``complaint`` (its ``{error}`` field filled
    from the parser's ValueError). The final failure's message names ``stage``.

    Returns (parsed value, raw response text).
    """
    conversation = list(messages)
    raw = response
    last_error = ""
    for attempt in range(SCHEMA_RETRIES + 1):
        try:
            return parse(raw), raw
        except ValueError as exc:
            last_error = str(exc)
        if attempt == SCHEMA_RETRIES:
            break
        conversation = conversation + [
            assistant(raw if raw.strip() else "(empty response)"),
            user(complaint.format(error=last_error)),
        ]
        raw = complete(client, conversation)
    raise SchemaFailureAfterRetries(f"{stage}: no schema-valid response after "
                                    f"{SCHEMA_RETRIES + 1} attempt(s): {last_error}")


_TYPES = {"object": dict, "array": list, "string": str}


def _schema_errors(value, schema: dict, path: tuple):
    """Yield (path, message) for each way ``value`` breaks ``schema``, in the
    reference JSON Schema validator's order and wording. The keywords are
    ``type`` (object, array or string), ``required``, ``properties``, ``items``,
    ``enum`` (compared with ``==``) and ``additionalProperties`` (a schema); a
    node the walk reaches with another keyword or type raises TypeError."""
    for keyword, arg in schema.items():
        if keyword == "type":
            if arg not in _TYPES:
                raise TypeError(f"unsupported schema type {arg!r}")
            if not isinstance(value, _TYPES[arg]):
                yield path, f"{value!r} is not of type {arg!r}"
        elif keyword == "enum":
            if value not in arg:
                yield path, f"{value!r} is not one of {arg!r}"
        elif keyword == "items":
            if isinstance(value, list):
                for index, item in enumerate(value):
                    yield from _schema_errors(item, arg, path + (index,))
        elif keyword not in ("required", "properties", "additionalProperties"):
            raise TypeError(f"unsupported schema keyword {keyword!r}")
        elif not isinstance(value, dict):
            continue
        elif keyword == "required":
            yield from ((path, f"{name!r} is a required property")
                        for name in arg if name not in value)
        elif keyword == "properties":
            for name, subschema in arg.items():
                if name in value:
                    yield from _schema_errors(value[name], subschema, path + (name,))
        else:
            known = schema.get("properties", {})
            for name, item in value.items():
                if name not in known:
                    yield from _schema_errors(item, arg, path + (name,))


def schema_error(payload, schema: dict) -> str | None:
    """The complaint about ``payload``, or None when it is valid: like the
    reference validator's ``best_match``, the shallowest error, then the one
    with the greatest path, then the first."""
    worst = max(_schema_errors(payload, schema, ()), key=lambda e: (-len(e[0]), e[0]),
                default=None)
    return None if worst is None else worst[1]


def parse_json_with_retry(client, messages: Sequence[ChatMessage], response: str,
                          schema: dict, stage: str):
    """Validate a response against a JSON schema, re-prompting the model with
    the validation error, as ``parse_with_retry`` does. A schema that
    ``schema_error`` cannot check raises TypeError.

    Returns (validated payload, raw response text).
    """
    def parse(raw: str):
        payload = extract_json(raw)
        error = schema_error(payload, schema)
        if error is not None:
            raise ValueError(error)
        return payload

    return parse_with_retry(client, messages, response, parse, JSON_COMPLAINT, stage)
