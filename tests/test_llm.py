import json
import logging

import numpy as np
import pytest
import requests

from evofg.dsl import ExprValidationError, FeatureExpr, check_proposal, generate_candidates
from evofg.features import compute_primitives
from evofg.llm import (
    API_KEY_ENV,
    ChatCompletionClient,
    FixtureTransport,
    LLMBackend,
    ResponseFormatError,
    TIMEOUT_S,
    TransportError,
    _http_post,
    build_context,
    parse_decision,
)
from helpers import path_graph


def chat_response(content):
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


def write_fixture(tmp_path, idx, payload):
    (tmp_path / f"fixture_{idx:03d}.json").write_text(json.dumps(payload))


def make_table(seed=0):
    g = path_graph(6, d=3, seed=seed)
    return compute_primitives(g, g.features)


def fixture_client(tmp_path):
    return ChatCompletionClient(
        base_url="http://unused", transport=FixtureTransport(str(tmp_path))
    )


class TestClient:
    def test_posts_expected_payload_shape(self, monkeypatch):
        seen = {}
        monkeypatch.setenv(API_KEY_ENV, "sekret")

        def transport(url, headers, body):
            seen.update(url=url, headers=headers, body=body)
            return chat_response("{}")

        client = ChatCompletionClient(base_url="http://svc:9000/", transport=None)
        client.transport = transport
        client.api_key = "sekret"
        client.complete([{"role": "user", "content": "hi"}])
        assert seen["url"] == "http://svc:9000/v1/chat/completions"
        assert seen["headers"]["Authorization"] == "Bearer sekret"
        assert set(seen["body"]) == {"model", "messages", "temperature", "max_tokens"}

    def test_transport_errors_retried_then_raised(self, monkeypatch):
        monkeypatch.setattr("time.sleep", lambda s: None)
        calls = {"n": 0}

        def flaky(url, headers, body):
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransportError("down")
            return chat_response("ok")

        client = ChatCompletionClient(base_url="http://svc", transport=flaky)
        assert client.complete([]) == "ok"
        assert calls["n"] == 3

        calls["n"] = -10  # always failing now
        def dead(url, headers, body):
            raise TransportError("down")

        client = ChatCompletionClient(base_url="http://svc", transport=dead)
        with pytest.raises(TransportError):
            client.complete([])

    def test_missing_choices_is_format_error(self):
        client = ChatCompletionClient(
            base_url="http://svc", transport=lambda u, h, b: {"oops": 1}
        )
        with pytest.raises(ResponseFormatError):
            client.complete([])


class TestHttpPost:
    """The transport that reaches a real endpoint, on a stubbed
    ``requests.post``: no socket is opened."""

    @staticmethod
    def reply(status, content):
        resp = requests.models.Response()
        resp.status_code, resp._content = status, content
        return resp

    def stub(self, monkeypatch, outcome):
        calls = []

        def post(url, **kwargs):
            calls.append((url, kwargs))
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr(requests, "post", post)
        return calls

    def test_a_2xx_json_body_is_returned_and_the_call_carries_body_and_timeout(
            self, monkeypatch):
        calls = self.stub(monkeypatch, self.reply(201, json.dumps(chat_response("hi")).encode()))
        body = {"model": "m", "messages": []}
        assert _http_post("http://svc/v1", {"X": "1"}, body) == chat_response("hi")
        assert calls == [("http://svc/v1", {"headers": {"X": "1"}, "json": body,
                                            "timeout": TIMEOUT_S})]

    def test_a_non_2xx_status_is_a_transport_error(self, monkeypatch):
        self.stub(monkeypatch, self.reply(503, b"busy"))
        with pytest.raises(TransportError, match="HTTP 503"):
            _http_post("http://svc", {}, {})

    def test_a_request_exception_is_a_transport_error(self, monkeypatch):
        self.stub(monkeypatch, requests.ConnectionError("refused"))
        with pytest.raises(TransportError, match="refused"):
            _http_post("http://svc", {}, {})

    def test_a_body_that_is_not_json_is_a_format_error(self, monkeypatch):
        self.stub(monkeypatch, self.reply(200, b"<html>"))
        with pytest.raises(ResponseFormatError, match="not JSON"):
            _http_post("http://svc", {}, {})


class TestParse:
    def test_valid_decision(self, caplog):
        with caplog.at_level(logging.INFO, logger="evofg.llm"):
            e = parse_decision(
                '{"category":"PageRank","features":["PR_t","PR_ego_mean"],'
                '"operator":"BINARY_DIV","rationale":"ratio of local to ego"}'
            )
        assert e == FeatureExpr("BINARY_DIV", ("PR_t", "PR_ego_mean"), "PageRank")
        assert [r.getMessage() for r in caplog.records] == [
            "chat backend proposed BINARY_DIV(PR_t,PR_ego_mean): ratio of local to ego"
        ]

    def test_malformed_json(self):
        with pytest.raises(ResponseFormatError):
            parse_decision("not json {")

    def test_missing_keys(self):
        with pytest.raises(ResponseFormatError, match="operator"):
            parse_decision('{"category":"PageRank","features":[]}')

    def test_features_must_be_strings(self):
        with pytest.raises(ResponseFormatError):
            parse_decision(
                '{"category":"PageRank","features":[1,2],"operator":"BINARY_DIV"}'
            )


class TestFixtureFlow:
    def test_valid_fixture_yields_expr(self, tmp_path):
        write_fixture(
            tmp_path,
            0,
            chat_response(
                '{"category":"PageRank","features":["PR_t","PR_ego_mean"],'
                '"operator":"BINARY_DIV","rationale":"local-vs-ego ratio"}'
            ),
        )
        backend = LLMBackend(fixture_client(tmp_path))
        table = make_table()
        expr = backend.propose(table.by_category(table.names), [], np.random.default_rng(0))
        check_proposal(expr, table, table.names)
        assert expr.name == "BINARY_DIV(PR_t,PR_ego_mean)"

    def test_arity_violation_detected(self, tmp_path):
        write_fixture(
            tmp_path,
            0,
            chat_response(
                '{"category":"PageRank","features":["PR_t","PR_ego_mean"],'
                '"operator":"MULTI_MEAN","rationale":"bad arity"}'
            ),
        )
        backend = LLMBackend(fixture_client(tmp_path))
        table = make_table()
        with pytest.raises(ExprValidationError, match="MULTI_MEAN"):
            backend.propose(table.by_category(table.names), [], np.random.default_rng(0))

    def test_unknown_column_detected(self, tmp_path):
        write_fixture(
            tmp_path,
            0,
            chat_response(
                '{"category":"PageRank","features":["PR_magic"],'
                '"operator":"LOG1P","rationale":"hallucinated"}'
            ),
        )
        backend = LLMBackend(fixture_client(tmp_path))
        table = make_table()
        expr = backend.propose(table.by_category(table.names), [], np.random.default_rng(0))
        with pytest.raises(ExprValidationError, match="PR_magic"):
            check_proposal(expr, table, table.names)

    def test_malformed_json_falls_back_and_completes(self, tmp_path, caplog):
        write_fixture(tmp_path, 0, chat_response("certainly! here is JSON: {"))
        backend = LLMBackend(fixture_client(tmp_path))
        table = make_table()
        with caplog.at_level(logging.WARNING):
            exprs = generate_candidates(backend, table, table.names, 4, np.random.default_rng(1))
        assert len(exprs) == 4  # fallback composer filled every slot
        assert any("falling back" in r.message for r in caplog.records)

    def test_invalid_decisions_fall_back_and_complete(self, tmp_path, caplog):
        write_fixture(
            tmp_path,
            0,
            chat_response(
                '{"category":"PageRank","features":["PR_magic"],'
                '"operator":"LOG1P","rationale":"x"}'
            ),
        )
        backend = LLMBackend(fixture_client(tmp_path))
        table = make_table()
        with caplog.at_level(logging.WARNING):
            exprs = generate_candidates(backend, table, table.names, 3, np.random.default_rng(2))
        assert len(exprs) == 3
        assert any("invalid decision" in r.message for r in caplog.records)

    def test_exhausted_fixtures_raise_transport_error(self, tmp_path):
        write_fixture(tmp_path, 0, chat_response('{"a":1}'))
        transport = FixtureTransport(str(tmp_path))
        transport("u", {}, {})
        with pytest.raises(TransportError, match="exhausted"):
            transport("u", {}, {})

    def test_fixtures_replayed_in_sorted_order(self, tmp_path):
        write_fixture(tmp_path, 1, chat_response("second"))
        write_fixture(tmp_path, 0, chat_response("first"))
        client = fixture_client(tmp_path)
        assert client.complete([]) == "first"
        assert client.complete([]) == "second"


def test_context_contains_schema_not_data():
    table = make_table()
    ctx = build_context(table.by_category(table.names), [("accepted", "LOG1P(PR_t)")])
    assert "PageRank" in ctx and "PR_t" in ctx
    assert "LOG1P(PR_t)" in ctx
    # no raw node values leak into the prompt
    for v in table.matrix[:, 0]:
        assert f"{v:.6f}" not in ctx


def test_context_of_a_round_with_duplicates_is_pinned():
    # the prompt text was recorded from an earlier version; the history
    # generate_candidates keeps must still print the same lines
    table = make_table()
    names = [n for n in table.names if n not in ("PR_global_rank", "Sim_2hop")]
    proposals = [FeatureExpr("LOG1P", ("PR_t",), "PageRank"),
                 FeatureExpr("LOG1P", ("PR_t",), "PageRank"),
                 FeatureExpr("BINARY_SUB", ("BC_t", "BC_ego_mean"), "Betweenness"),
                 FeatureExpr("LOG1P", ("PR_t",), "PageRank"),
                 FeatureExpr("SQRT", ("Deg_t",), "Topology")]
    contexts = []

    class ScriptedBackend:
        name = "scripted"

        def propose(self, by_category, history, rng):
            contexts.append(build_context(by_category, history))
            return proposals[len(contexts) - 1]

    exprs = generate_candidates(ScriptedBackend(), table, names, 3, np.random.default_rng(0))
    assert [e.name for e in exprs] == ["LOG1P(PR_t)", "BINARY_SUB(BC_t,BC_ego_mean)",
                                       "SQRT(Deg_t)"]
    assert contexts[-1] == (
        "Feature categories and their current columns:\n"
        "- PageRank: PR_t, PR_ego_mean, PR_ego_rank\n"
        "- Betweenness: BC_t, BC_ego_mean, BC_ego_rank, BC_global_rank\n"
        "- Closeness: CC_t, CC_ego_mean, CC_ego_rank, CC_global_rank\n"
        "- Similarity: Sim_1hop, Sim_3hop, Sim_4hop, Sim_5hop\n"
        "- Topology: Deg_t, Ego_size\n"
        "Recent generation history (avoid repeating accepted names):\n"
        "- accepted: LOG1P(PR_t)\n"
        "- duplicate: LOG1P(PR_t)\n"
        "- accepted: BINARY_SUB(BC_t,BC_ego_mean)\n"
        "- duplicate: LOG1P(PR_t)\n"
        "Propose one new feature now."
    )
