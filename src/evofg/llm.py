"""Chat-completion backend for feature generation: an OpenAI-style HTTP
client plus a fixture transport that replays recorded response bodies for
offline tests. The model only ever sees the router's columns by category
(category -> column names), arity rules, and recent generation history --
never node data."""

from __future__ import annotations

import json
import logging
import os
import time

from .dsl import BINARY_OPS, MULTI_OPS, UNARY_OPS, FeatureExpr

log = logging.getLogger(__name__)

API_KEY_ENV = "EVOFG_LLM_API_KEY"
DEFAULT_MODEL = "Qwen2-7B-Instruct"
PROMPT_VERSION = "v1"
# request settings of every chat call
TIMEOUT_S = 30.0
RETRIES = 2  # transport errors only, with exponential backoff
TEMPERATURE = 0.2
MAX_TOKENS = 256

SYSTEM_PROMPT = f"""\
You design routing features for a graph anomaly detector (prompt {PROMPT_VERSION}).
Work in four stages:
1. Pick ONE feature category from the list given.
2. Pick k distinct feature names from that category only.
3. Pick an operator whose arity matches k:
   k=1 -> one of {', '.join(UNARY_OPS)}
   k=2 -> one of {', '.join(BINARY_OPS)}
   k>=3 -> one of {', '.join(MULTI_OPS)}
4. The new feature is operator(features...).
Reply with a single JSON object and nothing else:
{{"category": "...", "features": ["..."], "operator": "...", "rationale": "..."}}
"""


class ChatServiceError(RuntimeError):
    """Base class for chat-backend failures (callers fall back on these)."""


class TransportError(ChatServiceError):
    """Network failure, timeout, or non-2xx response."""


class ResponseFormatError(ChatServiceError):
    """Response body or message content did not have the expected shape."""


class FixtureTransport:
    """Replays recorded response bodies (JSON files in sorted order)."""

    def __init__(self, fixtures_dir):
        self.files = sorted(
            os.path.join(fixtures_dir, f)
            for f in os.listdir(fixtures_dir)
            if f.endswith(".json")
        )
        self.cursor = 0

    def __call__(self, url, headers, body):
        if self.cursor >= len(self.files):
            raise TransportError("fixture transport exhausted")
        path = self.files[self.cursor]
        self.cursor += 1
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)


def _http_post(url, headers, body):
    import requests

    try:
        resp = requests.post(url, headers=headers, json=body, timeout=TIMEOUT_S)
    except requests.RequestException as exc:
        raise TransportError(f"request failed: {exc}") from exc
    if resp.status_code // 100 != 2:
        raise TransportError(f"HTTP {resp.status_code}: {resp.text[:200]}")
    try:
        return resp.json()
    except ValueError as exc:
        raise ResponseFormatError("response body is not JSON") from exc


class ChatCompletionClient:
    """Minimal client for POST {base_url}/v1/chat/completions.

    Transport errors are retried (``RETRIES`` times, exponential backoff);
    content errors are raised immediately so the caller can fall back. The
    API key is read from ``EVOFG_LLM_API_KEY``.
    """

    def __init__(self, base_url, model=DEFAULT_MODEL, transport=None):
        self.url = base_url.rstrip("/") + "/v1/chat/completions"
        self.model = model
        self.api_key = os.environ.get(API_KEY_ENV, "")
        self.transport = transport or _http_post

    def complete(self, messages) -> str:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        body = {
            "model": self.model,
            "messages": messages,
            "temperature": TEMPERATURE,
            "max_tokens": MAX_TOKENS,
        }
        delay = 0.5
        for attempt in range(RETRIES + 1):
            try:
                payload = self.transport(self.url, headers, body)
                break
            except TransportError:
                if attempt == RETRIES:
                    raise
                log.warning("chat request failed (attempt %d), retrying", attempt + 1)
                time.sleep(delay)
                delay *= 2.0
        try:
            return payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ResponseFormatError("missing choices[0].message.content") from exc


def build_context(by_category, history):
    """Serialize what the model is allowed to see: the router's columns
    ``by_category`` (``RouterFeatureTable.by_category``) and history only."""
    lines = ["Feature categories and their current columns:"]
    for cat, cols in by_category.items():
        if cols:
            lines.append(f"- {cat}: {', '.join(cols)}")
    if history:
        lines.append("Recent generation history (avoid repeating accepted names):")
        for kind, name in history[-10:]:
            lines.append(f"- {kind}: {name}")
    lines.append("Propose one new feature now.")
    return "\n".join(lines)


def parse_decision(content) -> FeatureExpr:
    """Strictly parse the model's message content into a proposal, logging
    its rationale. A reply of the wrong shape raises ResponseFormatError;
    ``FeatureExpr`` raises ExprValidationError on its operator, arity,
    arguments or category."""
    try:
        obj = json.loads(content)
    except (ValueError, TypeError) as exc:
        raise ResponseFormatError(f"content is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ResponseFormatError("content is not a JSON object")
    missing = {"category", "features", "operator"} - set(obj)
    if missing:
        raise ResponseFormatError(f"missing keys: {sorted(missing)}")
    features = obj["features"]
    if not isinstance(features, list) or not all(isinstance(f, str) for f in features):
        raise ResponseFormatError("'features' must be a list of strings")
    # logged before FeatureExpr checks it, so a refused reply is logged too
    log.info("chat backend proposed %s(%s): %s", obj["operator"], ",".join(features),
             str(obj.get("rationale", ""))[:120])
    return FeatureExpr(op=obj["operator"], args=tuple(features), category=obj["category"])


class LLMBackend:
    """Generation backend that asks the chat service for each proposal."""

    name = "llm"

    def __init__(self, client: ChatCompletionClient):
        self.client = client

    def propose(self, by_category, history, rng) -> FeatureExpr:
        messages = [
            {"role": "system", "content": SYSTEM_PROMPT},
            {"role": "user", "content": build_context(by_category, history)},
        ]
        return parse_decision(self.client.complete(messages))
