"""Client for fetching candidate sentences from a text-generation HTTP API.

One generic JSON-over-HTTP adapter covers any vendor: the prompt template,
endpoint and the dotted path to the text field in the response are all
configuration. Generated sentences are only machine-checked for inventory
membership; judging coherence and appropriateness stays with a human, which
is why rejects are surfaced instead of discarded.
"""

from __future__ import annotations

import datetime
import json
import os
import time
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .rechain import SentencePlan, WordInventory, batch_plans

API_KEY_ENV = "CORPUSFORGE_LLM_KEY"

# One initial attempt plus bounded retries; delays double from 1s.
MAX_ATTEMPTS = 3
BACKOFF_BASE_S = 1.0
# Longest wait a Retry-After header may ask for; a longer one is cut to it.
RETRY_AFTER_MAX_S = 30.0


class LlmClientError(Exception):
    """Base class for generation-client failures (CLI exit code 3)."""


class LlmConfigError(LlmClientError):
    """Bad client configuration (missing key, malformed template...)."""


class LlmServiceError(LlmClientError):
    """The service failed: network errors after retries, or an HTTP error."""

    def __init__(self, message: str, attempts: int):
        super().__init__(message)
        self.attempts = attempts


class LlmResponseError(LlmClientError):
    """The service answered, but not in the configured shape."""


class LlmEmptyResultError(LlmClientError):
    """The service answered with zero usable sentence lines."""


@dataclass(frozen=True)
class GenerationRequest:
    """Everything needed for one generation call."""

    inventory_words: tuple[str, ...]
    sentence_count: int
    prompt_template: str
    endpoint_url: str
    model_name: str
    response_text_path: str = "text"
    timeout_s: float = 30.0
    prompt: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # urllib would also open file:// and other local schemes.
        url = self.endpoint_url
        scheme = urllib.parse.urlsplit(url).scheme if isinstance(url, str) else None
        if scheme not in ("http", "https"):
            raise LlmConfigError(f"endpoint_url must be an http(s) URL, got {url!r}")
        if self.sentence_count < 1:
            raise LlmConfigError(
                f"sentence_count must be >= 1, got {self.sentence_count}"
            )
        for placeholder in ("{words}", "{count}"):
            if placeholder not in self.prompt_template:
                raise LlmConfigError(
                    f"prompt template is missing the {placeholder} placeholder"
                )
        try:
            prompt = self.prompt_template.format(
                words=", ".join(self.inventory_words), count=self.sentence_count
            )
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise LlmConfigError(
                f"prompt template cannot be filled in ({type(exc).__name__}: "
                f"{exc}); it may use only the {{words}} and {{count}} fields, "
                "and {{ and }} for literal braces"
            ) from None
        object.__setattr__(self, "prompt", prompt)


@dataclass(frozen=True)
class GenerationResult:
    sentences: tuple[str, ...]


# llm.json keys, each a string; response_text_path may be left out.
_CONFIG_KEYS = ("endpoint_url", "model_name", "prompt_template", "response_text_path")


def load_request(
    path: str | Path, inventory_words: tuple[str, ...], sentence_count: int
) -> GenerationRequest:
    """The request configured by the adapter JSON at `path`."""
    try:
        with open(path, encoding="utf-8") as f:
            config = json.load(f)
    except ValueError as exc:  # invalid JSON or not UTF-8
        raise LlmConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise LlmConfigError(f"{path}: expected a JSON object")
    fields = {key: config[key] for key in _CONFIG_KEYS if key in config}
    for key, value in fields.items():
        if not isinstance(value, str):
            raise LlmConfigError(f"{path}: {key} must be a string, got {value!r}")
    for key in _CONFIG_KEYS[:3]:
        if not fields.get(key):
            raise LlmConfigError(f"{path}: missing {key!r}")
    try:
        return GenerationRequest(inventory_words, sentence_count, **fields)
    except LlmConfigError as exc:
        raise LlmConfigError(f"{path}: {exc}") from None


def _extract_text(payload, path: str) -> str:
    """Walk a dotted path like 'choices.0.text' through parsed JSON."""
    node = payload
    for part in path.split("."):
        try:
            node = node[int(part)] if part.lstrip("-").isdigit() else node[part]
        except (KeyError, IndexError, TypeError):
            raise LlmResponseError(
                f"response has no field at path {path!r} (failed at {part!r})"
            ) from None
    if not isinstance(node, str):
        raise LlmResponseError(f"field at {path!r} is not text")
    return node


def generate_sentences(
    request: GenerationRequest,
    sleep: Callable[[float], None] = time.sleep,
) -> GenerationResult:
    """POST the prompt and split the response text into sentence lines.

    Network failures, 5xx and 429 responses are retried up to 3 attempts
    total, with the identical request body each time; other non-2xx
    responses fail immediately with a body excerpt. Between attempts it
    waits what a Retry-After header asks (capped at ``RETRY_AFTER_MAX_S``),
    else 1s, then 2s. `sleep` is injectable so tests can assert the
    schedule without waiting.
    """
    # Only this command talks HTTP, so the client is imported here.
    import http.client
    import urllib.error
    import urllib.request

    api_key = os.environ.get(API_KEY_ENV)
    if not api_key:
        raise LlmConfigError(f"API key missing: set {API_KEY_ENV}")
    body = json.dumps({"model": request.model_name, "prompt": request.prompt})
    post = urllib.request.Request(
        _quoted_url(request.endpoint_url),
        data=body.encode(),
        # urllib would send a form type.
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    # urllib copies ordinary headers into a redirected request, whatever its
    # host; _RedirectHandler passes the key on only to the same origin.
    post.add_unredirected_header("Authorization", f"Bearer {api_key}")
    opener = urllib.request.build_opener(_redirect_handler())

    last_failure = ""
    for attempt in range(1, MAX_ATTEMPTS + 1):
        wait = None
        try:
            try:
                response = opener.open(post, timeout=request.timeout_s)
            except urllib.error.HTTPError as exc:
                response = exc  # an error status still has headers and a body
            with response:
                status, payload = response.status, response.read()
                retry_after = response.headers.get("Retry-After")
        # URLError and TimeoutError are OSErrors.
        except (OSError, http.client.HTTPException) as exc:
            last_failure = f"network error: {exc}"
        else:
            if 200 <= status < 300:
                return _parse_response(payload, request)
            excerpt = payload.decode("utf-8", errors="replace")[:200]
            if status < 500 and status != 429:
                raise LlmServiceError(f"HTTP {status}: {excerpt}", attempts=attempt)
            last_failure = f"HTTP {status}: {excerpt}"
            wait = _retry_after_s(retry_after)
        if attempt < MAX_ATTEMPTS:
            sleep(BACKOFF_BASE_S * 2 ** (attempt - 1) if wait is None else wait)
    raise LlmServiceError(
        f"giving up after {MAX_ATTEMPTS} attempts; last failure: {last_failure}",
        attempts=MAX_ATTEMPTS,
    )


def _quoted_url(url: str) -> str:
    """`url` with its path and query percent-encoded where HTTP needs it.

    http.client sends only ASCII, so a path like ``/générer`` goes out as
    UTF-8 escapes; reserved characters and existing escapes are kept.
    """
    parts = urllib.parse.urlsplit(url)
    safe = "!#$%&'()*+,/:;=?@[]~"
    return parts._replace(
        path=urllib.parse.quote(parts.path, safe=safe),
        query=urllib.parse.quote(parts.query, safe=safe),
    ).geturl()


def _same_origin(a: str, b: str) -> bool:
    a, b = urllib.parse.urlsplit(a), urllib.parse.urlsplit(b)
    return (a.scheme, a.netloc.lower()) == (b.scheme, b.netloc.lower())


def _redirect_handler():
    """A urllib redirect handler that follows redirects as ``requests`` did.

    A 307 or 308 sends the same POST again, which urllib alone refuses; a
    301, 302 or 303 becomes a GET without a body. The Authorization header
    goes along only when the new URL keeps the scheme, host and port.
    """
    import urllib.request

    class RedirectHandler(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, req, fp, code, msg, headers, newurl):
            if code in (307, 308):
                new = urllib.request.Request(
                    newurl.replace(" ", "%20"),
                    data=req.data,
                    headers=req.headers,
                    method=req.get_method(),
                )
            else:
                new = super().redirect_request(req, fp, code, msg, headers, newurl)
            key = req.unredirected_hdrs.get("Authorization")
            if new is not None and key and _same_origin(req.full_url, new.full_url):
                new.add_unredirected_header("Authorization", key)
            return new

    return RedirectHandler()


def _retry_after_s(value: str | None) -> float | None:
    """Seconds a Retry-After header asks to wait, capped; None if unusable.

    RFC 9110 §10.2.3 allows delay-seconds or an HTTP-date; a date in the
    past means no wait.
    """
    if value is None:
        return None
    value = value.strip()
    if value.isascii() and value.isdigit():
        wait = float(value)
    else:
        from email.utils import parsedate_to_datetime

        try:
            when = parsedate_to_datetime(value)
        except ValueError:
            return None
        if when.tzinfo is None:  # an asctime date has no zone; it means UTC
            when = when.replace(tzinfo=datetime.timezone.utc)
        now = datetime.datetime.now(datetime.timezone.utc)
        wait = (when - now).total_seconds()
    return min(max(wait, 0.0), RETRY_AFTER_MAX_S)


def _parse_response(raw: bytes, request: GenerationRequest) -> GenerationResult:
    try:
        payload = json.loads(raw)
    except ValueError as exc:
        raise LlmResponseError(f"response is not JSON: {exc}") from exc
    raw_text = _extract_text(payload, request.response_text_path)
    sentences = tuple(line.strip() for line in raw_text.splitlines() if line.strip())
    if not sentences:
        raise LlmEmptyResultError("service returned no usable sentence lines")
    return GenerationResult(sentences=sentences)


def generate_validated_plans(
    request: GenerationRequest,
    inventory: WordInventory,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[list[SentencePlan], list[tuple[str, list[str]]]]:
    """Fetch sentences and keep only those fully covered by the inventory.

    Returns (accepted plans, rejected sentences with their missing words).
    The rejected list is the human-review channel; nothing here scores
    coherence. Accepted plans are re-verified against the inventory as a
    final guard.
    """
    result = generate_sentences(request, sleep=sleep)
    accepted, rejected = batch_plans(result.sentences, inventory, provenance="llm")
    for plan in accepted:
        stray = [w for w, _ in plan.words if w not in inventory]
        if stray:
            raise RuntimeError(
                f"plan escaped the inventory filter with {stray!r}"
            )
    return accepted, rejected
