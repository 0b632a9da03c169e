from __future__ import annotations

import json
import urllib.error
import urllib.request

import jsonschema
import pytest

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


SCHEMA = {"type": "object", "required": ["name"],
          "properties": {"name": {"type": "string"}}}
STAGE = "greeting"  # the stage a schema failure names


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

    @pytest.mark.parametrize("schema", [*pipeline.STAGE_SCHEMAS.values(),
                                        pipeline._TRANSLATION_SCHEMA])
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
        with pytest.raises(jsonschema.SchemaError):
            parse_json_with_retry(MockChatClient([]), MESSAGES, '{"name": "x"}',
                                  {"type": "no-such-type"}, STAGE)

    def test_schema_is_checked_once(self, monkeypatch):
        schema = {"type": "object", "required": ["id"]}
        cls = jsonschema.validators.validator_for(schema)
        original = cls.check_schema
        checked = []

        def check_schema(candidate, *args, **kwargs):
            checked.append(candidate)
            return original(candidate, *args, **kwargs)

        monkeypatch.setattr(cls, "check_schema", check_schema)
        parse_json_with_retry(MockChatClient([]), MESSAGES, '{"id": 1}', schema, STAGE)
        client = MockChatClient(['{"id": 2}'])
        payload, _ = parse_json_with_retry(client, MESSAGES, '{"no_id": 1}', schema, STAGE)
        assert payload == {"id": 2}
        assert checked == [schema]

    def test_persistent_garbage_fails_after_attempts(self):
        client = MockChatClient(["still bad", "also bad", "bad again"])
        with pytest.raises(SchemaFailureAfterRetries) as exc:
            parse_json_with_retry(client, MESSAGES, "bad", SCHEMA, STAGE)
        assert SCHEMA_RETRIES == 3
        assert str(exc.value) == ("greeting: no schema-valid response after 4 attempt(s): "
                                  "response contains no parseable JSON value")
        assert client.call_count == 3  # the last failure is the last reply, "bad again"
