from __future__ import annotations

import copy
import json
import urllib.error
import urllib.request

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st
from jsonschema.exceptions import best_match

from bpmnkit import pipeline
from bpmnkit.llm import (
    ChatMessage,
    HttpChatClient,
    LlmUnavailable,
    MockChatClient,
    SCHEMA_RETRIES,
    SchemaFailureAfterRetries,
    complete,
    extract_json,
    parse_json_with_retry,
    schema_error,
    system,
    user,
)

from conftest import flaky_chat

MESSAGES = [system("You are a test."), user("Say hi.")]


class TestChatMessage:
    def test_invalid_role_rejected(self):
        with pytest.raises(ValueError):
            ChatMessage("narrator", "hello")

    def test_empty_content_rejected(self):
        with pytest.raises(ValueError):
            ChatMessage("user", "")


class TestMockClient:
    def test_scripted_reply(self):
        client = MockChatClient(["hello"])
        assert complete(client, MESSAGES) == "hello"
        assert client.call_count == 1
        assert client.calls[0][0].role == "system"

    def test_script_exhaustion(self):
        client = MockChatClient([])
        with pytest.raises(LlmUnavailable):
            complete(client, MESSAGES)

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps([
            "plain string",
            {"content": "wrapped"},
            {"error": "timeout"},
        ]))
        client = MockChatClient.from_json(path)
        assert complete(client, MESSAGES) == "plain string"
        assert complete(client, MESSAGES) == "wrapped"
        with pytest.raises(LlmUnavailable, match="^scripted timeout$"):
            complete(client, MESSAGES)


class TestHttpChatClient:
    def test_posts_the_standard_chat_shape(self, loopback):
        loopback.answer = lambda body: {"choices": [{"message": {"content": "pong"}}]}
        client = HttpChatClient(loopback.url("/v1/chat"), "test-model")
        assert complete(client, MESSAGES) == "pong"
        assert loopback.posts == [("/v1/chat", "application/json", {
            "model": "test-model",
            "messages": [{"role": "system", "content": "You are a test."},
                         {"role": "user", "content": "Say hi."}],
            "temperature": 0.0,
            "max_tokens": 4096,
        })]

    def test_timeout_maps_to_llm_timeout(self, monkeypatch):
        def urlopen(request, timeout):
            raise urllib.error.URLError(TimeoutError("timed out"))

        # a connect timeout comes wrapped in a URLError
        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        with pytest.raises(LlmUnavailable, match="^chat completion timed out: timed out$"):
            HttpChatClient("http://127.0.0.1:9/v1/chat", "test-model").complete_once(MESSAGES)

    def test_malformed_reply_maps_to_unavailable(self, loopback):
        loopback.answer = lambda body: {"oops": 1}
        with pytest.raises(LlmUnavailable):
            HttpChatClient(loopback.url(), "test-model").complete_once(MESSAGES)

    @pytest.mark.parametrize("content", [None, 5, ["text"]])
    def test_content_that_is_not_a_string_is_unavailable(self, loopback, sleeps, content):
        loopback.answer = lambda body: {"choices": [{"message": {"content": content}}]}
        with pytest.raises(LlmUnavailable, match="^chat completion failed: reply content is "):
            HttpChatClient(loopback.url(), "test-model").complete(MESSAGES)
        assert len(loopback.posts) == 3
        assert sleeps == [0.5, 1.0]

    def test_requires_endpoint_and_model(self):
        with pytest.raises(ValueError):
            HttpChatClient("", "m")


class TestRetries:
    def test_two_failures_then_success(self, loopback, sleeps):
        flaky_chat(loopback, failures=2)
        assert HttpChatClient(loopback.url(), "test-model", 2).complete(MESSAGES) == "recovered"
        assert len(loopback.posts) == 3
        assert sleeps == [0.5, 1.0]

    def test_persistent_failure_exhausts(self, loopback, sleeps):
        flaky_chat(loopback, failures=10)
        with pytest.raises(LlmUnavailable):
            HttpChatClient(loopback.url(), "test-model", 2).complete(MESSAGES)
        assert len(loopback.posts) == 2 + 1
        assert sleeps == [0.5, 1.0]

    def test_messages_must_start_with_system(self):
        client = MockChatClient(["x"])
        with pytest.raises(ValueError):
            complete(client, [user("no system prompt")])
        with pytest.raises(ValueError):
            complete(client, [])


class TestExtractJson:
    def test_fenced_block(self):
        assert extract_json('```json\n{"a": 1}\n```') == {"a": 1}

    def test_prose_wrapper(self):
        assert extract_json('Sure! Here you go: {"a": [1, 2]} Enjoy.') == {"a": [1, 2]}

    def test_array_value(self):
        assert extract_json("[1, 2, 3]") == [1, 2, 3]

    def test_first_valid_value_wins(self):
        assert extract_json("{broken then {\"ok\": true}") == {"ok": True}

    def test_no_json_raises(self):
        with pytest.raises(ValueError):
            extract_json("nothing to see here")


SHIPPED_SCHEMAS = [*pipeline.STAGE_SCHEMAS.values(), pipeline._TRANSLATION_SCHEMA]
SCHEMA = {"type": "object", "required": ["name"],
          "properties": {"name": {"type": "string"}}}
STAGE = "greeting"  # the stage a schema failure names


def _schema_nodes(schema):
    """``schema`` and every schema nested in it."""
    yield schema
    for keyword in ("items", "additionalProperties"):
        if keyword in schema:
            yield from _schema_nodes(schema[keyword])
    for subschema in schema.get("properties", {}).values():
        yield from _schema_nodes(subschema)


class TestParseJsonWithRetry:
    def test_valid_first_response(self):
        client = MockChatClient([])
        payload, raw = parse_json_with_retry(client, MESSAGES, '{"name": "x"}', SCHEMA, STAGE)
        assert payload == {"name": "x"}
        assert client.call_count == 0

    def test_reprompts_on_schema_violation(self):
        client = MockChatClient(['{"name": "fixed"}'])
        payload, _ = parse_json_with_retry(client, MESSAGES, '{"wrong": 1}', SCHEMA, STAGE)
        assert payload == {"name": "fixed"}
        assert client.call_count == 1
        retry_prompt = client.calls[0][-1].content
        assert "schema" in retry_prompt

    def test_retry_conversation_carries_bad_response(self):
        client = MockChatClient(['{"name": "ok"}'])
        parse_json_with_retry(client, MESSAGES, "garbage", SCHEMA, STAGE)
        roles = [m.role for m in client.calls[0]]
        assert roles == ["system", "user", "assistant", "user"]
        assert client.calls[0][2].content == "garbage"

    @pytest.mark.parametrize("schema", SHIPPED_SCHEMAS)
    def test_complaint_is_the_message_of_jsonschema_validate(self, schema):
        payloads = [[], [5], [{}], {}, {"a": 5}, [{"name": 5, "class": "x", "decision": 1,
                                                  "outcomes": [{}]}],
                    {"boundaries": {"start": 1}, "activities": [{}], "entities": [{}]}]
        checked = 0
        for payload in payloads:
            try:
                jsonschema.validate(payload, schema)
                continue
            except jsonschema.ValidationError as exc:
                expected = exc.message
            client = MockChatClient([json.dumps(payload)] * SCHEMA_RETRIES)
            with pytest.raises(SchemaFailureAfterRetries) as failure:
                parse_json_with_retry(client, MESSAGES, json.dumps(payload), schema, STAGE)
            assert str(failure.value) == (f"{STAGE}: no schema-valid response after "
                                          f"{SCHEMA_RETRIES + 1} attempt(s): {expected}")
            checked += 1
        assert checked >= 3

    def test_invalid_schema_raises_schema_error(self):
        client = MockChatClient([])
        with pytest.raises(TypeError, match="unsupported schema type 'no-such-type'"):
            parse_json_with_retry(client, MESSAGES, '{"name": "x"}',
                                  {**SCHEMA, "type": "no-such-type"}, STAGE)
        with pytest.raises(TypeError, match="unsupported schema keyword 'minProperties'"):
            parse_json_with_retry(client, MESSAGES, '{"name": "x"}',
                                  {**SCHEMA, "minProperties": 1}, STAGE)
        assert client.call_count == 0

    def test_shipped_schemas_use_only_checked_keywords(self):
        # schema_error raises on a bad node only when a payload reaches it, so
        # every node of every shipped schema is checked here instead
        nodes = [node for schema in SHIPPED_SCHEMAS for node in _schema_nodes(schema)]
        assert len(nodes) > len(SHIPPED_SCHEMAS)
        for node in nodes:
            assert isinstance(node, dict)
            assert set(node) <= {"type", "required", "properties", "items", "enum",
                                 "additionalProperties"}, node
            assert node.get("type", "object") in ("object", "array", "string"), node

    def test_persistent_garbage_fails_after_attempts(self):
        client = MockChatClient(["still bad", "also bad", "bad again"])
        with pytest.raises(SchemaFailureAfterRetries) as exc:
            parse_json_with_retry(client, MESSAGES, "bad", SCHEMA, STAGE)
        assert SCHEMA_RETRIES == 3
        assert str(exc.value) == ("greeting: no schema-valid response after 4 attempt(s): "
                                  "response contains no parseable JSON value")
        assert client.call_count == 3  # the last failure is the last reply, "bad again"


# keys and strings the shipped schemas name, so that generated payloads hit
# their properties, required names and enums as well as missing them
_NAMES = sorted({name for schema in SHIPPED_SCHEMAS for node in _schema_nodes(schema)
                 for name in [*node.get("properties", {}), *node.get("required", []),
                              *node.get("enum", [])]})
_TEXT = st.sampled_from(_NAMES) | st.text(max_size=4)


def _json(max_leaves):
    return st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=5),
        max_leaves=max_leaves)


_JSON = _json(10)
_SMALL_JSON = _json(3)  # what a valid payload holds where its schema allows anything


def _valid(schema):
    """Payloads that satisfy ``schema``, a shipped schema or one of its nodes."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema.get("type")
    if kind == "string":
        return _TEXT
    if kind == "array":
        return st.lists(_valid(schema.get("items", {})), max_size=3)
    if kind != "object":
        return _SMALL_JSON
    properties = schema.get("properties", {})
    required = schema.get("required", [])
    extras = st.dictionaries(_TEXT.filter(lambda name: name not in properties),
                             _valid(schema.get("additionalProperties", {})), max_size=2)
    named = st.fixed_dictionaries(
        {name: _valid(properties.get(name, {})) for name in required},
        optional={name: _valid(sub) for name, sub in properties.items() if name not in required})
    return st.tuples(named, extras).map(lambda parts: {**parts[0], **parts[1]})


def _containers(value):
    """``value`` and every list or dict nested in it."""
    if isinstance(value, (list, dict)):
        yield value
        for child in value.values() if isinstance(value, dict) else value:
            yield from _containers(child)


def _damage(data, payload):
    """A copy of ``payload`` damaged in one to four places: in a list or dict
    inside it, an item replaced by arbitrary JSON, dropped or added."""
    payload = copy.deepcopy(payload)
    for _ in range(data.draw(st.integers(1, 4))):
        target = data.draw(st.sampled_from(list(_containers(payload))))
        keys = list(target) if isinstance(target, dict) else range(len(target))
        action = data.draw(st.sampled_from(["replace", "drop", "add"]) if keys
                           else st.just("add"))
        if action == "add" and isinstance(target, dict):
            target[data.draw(_TEXT)] = data.draw(_JSON)
        elif action == "add":
            target.insert(data.draw(st.integers(0, len(target))), data.draw(_JSON))
        elif action == "drop":
            del target[data.draw(st.sampled_from(keys))]
        else:
            target[data.draw(st.sampled_from(keys))] = data.draw(_JSON)
    return payload


def _oracle(payload, schema):
    """The message jsonschema.validate(payload, schema) raises, or None."""
    validator = jsonschema.validators.validator_for(schema)(schema)
    error = best_match(validator.iter_errors(payload))
    return None if error is None else error.message


# schema_error is valid exactly when jsonschema is, and otherwise gives
# best_match's message, payloads with several errors included

@pytest.mark.parametrize("schema", SHIPPED_SCHEMAS)
@given(payload=_JSON)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_schema_error_matches_jsonschema_on_any_json(schema, payload):
    assert schema_error(payload, schema) == _oracle(payload, schema)


@pytest.mark.parametrize("schema, valid", [(schema, _valid(schema))
                                           for schema in SHIPPED_SCHEMAS])
@given(data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_schema_error_matches_jsonschema_on_damaged_payloads(schema, valid, data):
    payload = data.draw(valid)
    assert schema_error(payload, schema) is None
    assert _oracle(payload, schema) is None
    damaged = _damage(data, payload)
    assert schema_error(damaged, schema) == _oracle(damaged, schema)
