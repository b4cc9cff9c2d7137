import dataclasses
import datetime
import json
import socket
import threading
from contextlib import contextmanager
from email.utils import format_datetime

import pytest

from corpusforge.llmclient import (
    RETRY_AFTER_MAX_S,
    GenerationRequest,
    LlmConfigError,
    LlmEmptyResultError,
    LlmResponseError,
    LlmServiceError,
    generate_sentences,
    generate_validated_plans,
)
from corpusforge.rechain import WordInventory

from stubserver import stub_server

TEMPLATE = "Write {count} short sentences using only these words: {words}"


def make_request(url, count=2, text_path="text"):
    return GenerationRequest(
        inventory_words=("der", "hund", "bellt", "die", "katze"),
        sentence_count=count,
        prompt_template=TEMPLATE,
        endpoint_url=url,
        model_name="stub-model",
        response_text_path=text_path,
    )


@pytest.fixture
def inventory():
    return WordInventory(
        {w: (f"{w}.wav",) for w in ("der", "hund", "bellt", "die", "katze")}
    )


@pytest.fixture(autouse=True)
def api_key(monkeypatch):
    monkeypatch.setenv("CORPUSFORGE_LLM_KEY", "sekret")


def no_sleep(_):
    pass


@contextmanager
def raw_server(reply: bytes | None):
    """A TCP endpoint that answers each connection with `reply` and closes it,
    or, with None, accepts and never answers. Yields its URL."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    held, stop = [], threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            if reply is None:
                held.append(conn)
                continue
            with conn:
                conn.recv(65536)
                conn.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}/generate"
    finally:
        stop.set()
        thread.join(timeout=5)
        for conn in held:
            conn.close()
        listener.close()


class TestGenerateSentences:
    def test_splits_lines(self):
        with stub_server([(200, {"text": "der hund bellt\ndie katze schläft"})]) as srv:
            result = generate_sentences(make_request(srv.url), sleep=no_sleep)
        assert result.sentences == ("der hund bellt", "die katze schläft")

    def test_request_shape(self):
        with stub_server([(200, {"text": "der hund"})]) as srv:
            generate_sentences(make_request(srv.url, count=3), sleep=no_sleep)
            body = json.loads(srv.requests[0]["body"])
        assert body["model"] == "stub-model"
        assert "3 short sentences" in body["prompt"]
        assert "der, hund, bellt" in body["prompt"]
        assert srv.requests[0]["authorization"] == "Bearer sekret"

    def test_request_body_bytes_and_content_type(self):
        with stub_server([(200, {"text": "der hund"})]) as srv:
            request = make_request(srv.url)
            generate_sentences(request, sleep=no_sleep)
        expected = {"model": "stub-model", "prompt": request.prompt}
        assert srv.requests[0]["body"] == json.dumps(expected).encode()
        assert srv.requests[0]["content_type"] == "application/json"

    def test_missing_api_key(self, monkeypatch):
        monkeypatch.delenv("CORPUSFORGE_LLM_KEY")
        with pytest.raises(LlmConfigError, match="CORPUSFORGE_LLM_KEY"):
            generate_sentences(make_request("http://127.0.0.1:1/x"), sleep=no_sleep)

    def test_server_errors_retried_then_permanent(self):
        sleeps = []
        with stub_server([(500, {"err": "boom"})]) as srv:
            with pytest.raises(LlmServiceError) as exc_info:
                generate_sentences(make_request(srv.url), sleep=sleeps.append)
            assert len(srv.requests) == 3
        assert exc_info.value.attempts == 3
        assert sleeps == [1.0, 2.0]
        assert "boom" in str(exc_info.value)

    def test_retry_bodies_identical(self):
        with stub_server([(500, {}), (500, {}), (200, {"text": "der hund"})]) as srv:
            result = generate_sentences(make_request(srv.url), sleep=no_sleep)
            bodies = {r["body"] for r in srv.requests}
        assert result.sentences == ("der hund",)
        assert len(srv.requests) == 3
        assert len(bodies) == 1

    def test_client_error_is_not_retried(self):
        with stub_server([(404, {"err": "nope"})]) as srv:
            with pytest.raises(LlmServiceError, match="404"):
                generate_sentences(make_request(srv.url), sleep=no_sleep)
            assert len(srv.requests) == 1

    def test_network_failure_retried(self):
        sleeps = []
        request = make_request("http://127.0.0.1:9/unroutable")
        with pytest.raises(LlmServiceError, match="network"):
            generate_sentences(request, sleep=sleeps.append)
        assert sleeps == [1.0, 2.0]

    @pytest.mark.parametrize("reply", [b"garbage\r\n\r\n", None])
    def test_broken_or_silent_server_retried_as_network_error(self, reply):
        # A reply that is not HTTP raises an HTTPException, no reply at all
        # a timeout; both count as network errors.
        sleeps = []
        with raw_server(reply) as url:
            request = dataclasses.replace(make_request(url), timeout_s=0.1)
            with pytest.raises(LlmServiceError, match="network error") as exc_info:
                generate_sentences(request, sleep=sleeps.append)
        assert exc_info.value.attempts == 3
        assert sleeps == [1.0, 2.0]

    @pytest.mark.parametrize("url", ["file:///etc/hostname", "localhost:8080/x", 5])
    def test_endpoint_must_be_http(self, url):
        with pytest.raises(LlmConfigError, match="endpoint_url"):
            make_request(url)

    def test_non_ascii_path_is_percent_encoded(self):
        with stub_server([(200, {"text": "der hund"})]) as srv:
            request = make_request(srv.url + "/générer?q=é x&n=%41")
            generate_sentences(request, sleep=no_sleep)
        path = srv.requests[0]["path"]
        assert path == "/generate/g%C3%A9n%C3%A9rer?q=%C3%A9%20x&n=%41"

    @pytest.mark.parametrize("status", [301, 302, 303])
    def test_redirect_to_another_origin_gets_no_key(self, status):
        # As with requests, the POST turns into a GET without a body.
        with stub_server([(200, {"text": "der hund"})]) as other:
            with stub_server([(status, b"", {"Location": other.url})]) as srv:
                result = generate_sentences(make_request(srv.url), sleep=no_sleep)
        assert result.sentences == ("der hund",)
        assert srv.requests[0]["authorization"] == "Bearer sekret"
        assert [(r["method"], r["body"]) for r in other.requests] == [("GET", b"")]
        assert other.requests[0]["authorization"] is None

    @pytest.mark.parametrize("status", [307, 308])
    def test_307_and_308_send_the_same_post_again(self, status):
        # A same-origin redirect, such as an added trailing slash, keeps the key.
        script = [
            (status, b"", {"Location": "/generate/"}),
            (200, {"text": "der hund"}),
        ]
        with stub_server(script) as srv:
            result = generate_sentences(make_request(srv.url), sleep=no_sleep)
        assert result.sentences == ("der hund",)
        first, second = srv.requests
        assert second["path"] == "/generate/"
        for r in (first, second):
            assert r["method"] == "POST"
            assert r["body"] == first["body"]
            assert r["content_type"] == "application/json"
            assert r["authorization"] == "Bearer sekret"

    def test_307_to_another_origin_gets_no_key(self):
        with stub_server([(200, {"text": "der hund"})]) as other:
            with stub_server([(307, b"", {"Location": other.url})]) as srv:
                generate_sentences(make_request(srv.url), sleep=no_sleep)
        assert other.requests[0]["method"] == "POST"
        assert other.requests[0]["body"] == srv.requests[0]["body"]
        assert other.requests[0]["authorization"] is None

    def test_empty_body_is_empty_result(self):
        with stub_server([(200, {"text": "\n  \n"})]) as srv:
            with pytest.raises(LlmEmptyResultError):
                generate_sentences(make_request(srv.url), sleep=no_sleep)

    def test_non_json_response_is_format_error(self):
        with stub_server([(200, b"<html>oops</html>")]) as srv:
            with pytest.raises(LlmResponseError, match="not JSON"):
                generate_sentences(make_request(srv.url), sleep=no_sleep)

    def test_missing_text_path_is_format_error(self):
        with stub_server([(200, {"choices": []})]) as srv:
            with pytest.raises(LlmResponseError, match="choices.0.text"):
                generate_sentences(
                    make_request(srv.url, text_path="choices.0.text"), sleep=no_sleep
                )

    def test_nested_text_path(self):
        payload = {"choices": [{"text": "der hund bellt"}]}
        with stub_server([(200, payload)]) as srv:
            result = generate_sentences(
                make_request(srv.url, text_path="choices.0.text"), sleep=no_sleep
            )
        assert result.sentences == ("der hund bellt",)


class TestRetryAfter:
    """429 is retried like a 5xx; Retry-After sets the wait before the next try."""

    @pytest.mark.parametrize("status", [429, 503])
    @pytest.mark.parametrize(
        "header, wait", [("7", 7.0), ("0", 0.0), ("86400", RETRY_AFTER_MAX_S)]
    )
    def test_delay_seconds(self, status, header, wait):
        sleeps = []
        script = [(status, {}, {"Retry-After": header}), (200, {"text": "der hund"})]
        with stub_server(script) as srv:
            result = generate_sentences(make_request(srv.url), sleep=sleeps.append)
            assert len(srv.requests) == 2
        assert result.sentences == ("der hund",)
        assert sleeps == [wait]

    def test_http_date(self):
        # RFC 9110 §5.6.7: IMF-fixdate, and the obsolete RFC 850 and asctime
        # forms (the last has no zone and means UTC).
        soon = datetime.datetime.now(datetime.timezone.utc) + datetime.timedelta(
            seconds=20
        )
        headers = [
            format_datetime(soon, usegmt=True),
            "Sunday, 06-Nov-94 08:49:37 GMT",
            "Sun Nov  6 08:49:37 1994",
            "Fri, 31 Dec 2100 23:59:59 GMT",
        ]
        sleeps = []
        for header in headers:
            script = [(429, {}, {"Retry-After": header}), (200, {"text": "x"})]
            with stub_server(script) as srv:
                generate_sentences(make_request(srv.url), sleep=sleeps.append)
        # The header has whole seconds, so the first wait is just under 20.
        assert 18.0 < sleeps[0] <= 20.0
        assert sleeps[1:] == [0.0, 0.0, RETRY_AFTER_MAX_S]

    @pytest.mark.parametrize("header", ["soon", "1.5", "-3", ""])
    def test_unparseable_header_falls_back_to_backoff(self, header):
        sleeps = []
        script = [(429, {}, {"Retry-After": header})]
        with stub_server([*script, *script, (200, {"text": "der hund"})]) as srv:
            generate_sentences(make_request(srv.url), sleep=sleeps.append)
        assert sleeps == [1.0, 2.0]

    def test_429_on_every_attempt_gives_up(self):
        sleeps = []
        with stub_server([(429, {"err": "slow down"}, {"Retry-After": "3"})]) as srv:
            with pytest.raises(LlmServiceError, match="HTTP 429") as exc_info:
                generate_sentences(make_request(srv.url), sleep=sleeps.append)
            assert len(srv.requests) == 3
        assert exc_info.value.attempts == 3
        assert sleeps == [3.0, 3.0]
        assert "slow down" in str(exc_info.value)


class TestGenerationRequest:
    def test_template_must_have_placeholders(self):
        with pytest.raises(LlmConfigError, match="words"):
            GenerationRequest(
                inventory_words=("a",),
                sentence_count=1,
                prompt_template="gib mir {count} saetze",
                endpoint_url="http://x",
                model_name="m",
            )

    def test_count_positive(self):
        with pytest.raises(LlmConfigError):
            GenerationRequest(
                inventory_words=("a",),
                sentence_count=0,
                prompt_template=TEMPLATE,
                endpoint_url="http://x",
                model_name="m",
            )


class TestGenerateValidatedPlans:
    def test_oov_sentences_rejected(self, inventory):
        text = "der hund bellt\nder hund fliegt\ndie katze"
        with stub_server([(200, {"text": text})]) as srv:
            accepted, rejected = generate_validated_plans(
                make_request(srv.url), inventory, sleep=no_sleep
            )
        assert [p.text for p in accepted] == ["der hund bellt", "die katze"]
        assert rejected == [("der hund fliegt", ["fliegt"])]
        for plan in accepted:
            assert all(w in inventory for w, _ in plan.words)

    def test_all_valid(self, inventory):
        with stub_server([(200, {"text": "der hund\ndie katze"})]) as srv:
            accepted, rejected = generate_validated_plans(
                make_request(srv.url), inventory, sleep=no_sleep
            )
        assert len(accepted) == 2
        assert rejected == []

    def test_generation_error_propagates_without_plans(self, inventory):
        with stub_server([(500, {})]) as srv:
            with pytest.raises(LlmServiceError):
                generate_validated_plans(
                    make_request(srv.url), inventory, sleep=no_sleep
                )

    def test_post_composition_guard(self, inventory, monkeypatch):
        # If the batch filter ever let a stray word through, the final
        # re-verification must catch it.
        from corpusforge import llmclient
        from corpusforge.rechain import SentencePlan

        def corrupt_batch(sentences, inventory, provenance):
            plan = SentencePlan(
                words=(("fremd", "fremd.wav"),), provenance="llm"
            )
            return [plan], []

        monkeypatch.setattr(llmclient, "batch_plans", corrupt_batch)
        with stub_server([(200, {"text": "der hund"})]) as srv:
            with pytest.raises(RuntimeError, match="escaped"):
                generate_validated_plans(
                    make_request(srv.url), inventory, sleep=no_sleep
                )
