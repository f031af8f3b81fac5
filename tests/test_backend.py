import json

import numpy as np
import pytest

from paraprompt.backend import (
    BackendConfig,
    BackendError,
    CompletionParseError,
    GenerationRequest,
    HttpBackend,
    MockBackend,
    PromptBudgetError,
    generate_batch,
    make_embedding_backend,
    make_generation_backend,
    parse_completion,
)
from paraprompt.novelty import NoveltyClass
from paraprompt.promptkit import DEFAULT_TEMPLATE


def test_mock_echo_falls_back_to_query_for_open_prompts():
    mock = MockBackend(mode="echo")
    completion = mock.generate(
        GenerationRequest(prompt="Input: how do i learn\nParaphrase:")
    )
    assert completion == "how do i learn"


def test_mock_stop_truncation():
    mock = MockBackend(mode="constant", constant_text="one\ntwo")
    assert mock.generate(GenerationRequest(prompt="p", stop=("\n",))) == "one"


def test_mock_generation_deterministic():
    a = MockBackend(mode="shuffle", seed=3)
    b = MockBackend(mode="shuffle", seed=3)
    prompt = "Input: w x y z\nParaphrase:"
    assert a.generate(GenerationRequest(prompt=prompt)) == b.generate(
        GenerationRequest(prompt=prompt)
    )


def test_mock_embed_deterministic_and_unit():
    mock = MockBackend(dim=8)
    first, second = mock.embed(["hello world", "hello world"])
    assert np.allclose(first, second)
    assert np.linalg.norm(first) == pytest.approx(1.0, abs=1e-9)


def test_mock_embed_batch_order():
    mock = MockBackend(dim=4)
    vectors = mock.embed(["a", "b", "c"])
    assert len(vectors) == 3
    assert not np.allclose(vectors[0], vectors[1])
    assert np.allclose(vectors[0], mock.embed(["a"])[0])


def test_mock_embed_empty_rejected():
    with pytest.raises(ValueError):
        MockBackend().embed([])


def test_generate_batch_preserves_order_and_bounds_concurrency():
    import threading
    import time

    class SlowMock(MockBackend):
        # counts the calls in flight; the sleep makes their overlap visible
        lock = threading.Lock()
        in_flight = max_in_flight = 0

        def generate(self, request):
            with self.lock:
                self.in_flight += 1
                self.max_in_flight = max(self.max_in_flight, self.in_flight)
            time.sleep(0.01)
            try:
                return super().generate(request)
            finally:
                with self.lock:
                    self.in_flight -= 1

    mock = SlowMock(mode="echo")
    requests_list = [
        GenerationRequest(
            prompt=f"Input: text {i}\nParaphrase:", request_id=str(i)
        )
        for i in range(16)
    ]
    completions = generate_batch(mock, requests_list, max_in_flight=3)
    assert completions == [f"text {i}" for i in range(16)]
    # the pool actually runs requests concurrently, but never more than
    # the configured bound at once
    assert 2 <= mock.max_in_flight <= 3


def test_make_backend_selects_mock_by_scheme():
    config = BackendConfig(generation_url="mock:shuffle?seed=5", embedding_url="mock:hash?dim=12")
    gen = make_generation_backend(config)
    emb = make_embedding_backend(config)
    assert isinstance(gen, MockBackend) and gen.mode == "shuffle" and gen.seed == 5
    assert isinstance(emb, MockBackend) and emb.dim == 12


def test_empty_prompt_rejected():
    with pytest.raises(ValueError):
        GenerationRequest(prompt="")


class _FakeResponse:
    def __init__(self, status_code=200, body=None, text=""):
        self.status_code = status_code
        self._body = body
        self.text = text

    def json(self):
        if self._body is None:
            raise ValueError("no json")
        return self._body


def test_http_transport_error_after_retries(monkeypatch):
    import requests as requests_lib

    calls = {"n": 0}

    def failing_post(*args, **kwargs):
        calls["n"] += 1
        raise requests_lib.ConnectionError("refused")

    monkeypatch.setattr("paraprompt.backend.requests.post", failing_post)
    backend = HttpBackend(BackendConfig(generation_url="http://x/gen", retry_limit=3))
    with pytest.raises(BackendError, match="^http://x/gen unreachable after 3 attempts: refused$"):
        backend.generate(GenerationRequest(prompt="p"))
    assert calls["n"] == 3


def test_http_malformed_response_not_retried(monkeypatch):
    calls = {"n": 0}

    def bad_post(*args, **kwargs):
        calls["n"] += 1
        return _FakeResponse(body={"unexpected": 1})

    monkeypatch.setattr("paraprompt.backend.requests.post", bad_post)
    backend = HttpBackend(BackendConfig(generation_url="http://x/gen", retry_limit=3))
    with pytest.raises(BackendError, match='"text" and an integer "token_count"'):
        backend.generate(GenerationRequest(prompt="p"))
    assert calls["n"] == 1


def test_http_success_and_stop_truncation(monkeypatch):
    def ok_post(url, json=None, timeout=None, headers=None):
        assert json["prompt"] == "p"
        return _FakeResponse(body={"text": "abc\ndef", "token_count": 2})

    monkeypatch.setattr("paraprompt.backend.requests.post", ok_post)
    backend = HttpBackend(BackendConfig(generation_url="http://x/gen"))
    assert backend.generate(GenerationRequest(prompt="p", stop=("\n",))) == "abc"


def test_http_budget_rejection_surfaces_n(monkeypatch):
    def over_post(*args, **kwargs):
        return _FakeResponse(status_code=413, body={"token_count": 2048})

    monkeypatch.setattr("paraprompt.backend.requests.post", over_post)
    backend = HttpBackend(BackendConfig(generation_url="http://x/gen"))
    with pytest.raises(PromptBudgetError) as err:
        backend.generate(GenerationRequest(prompt="p"))
    assert err.value.prompt_tokens == 2048


def test_http_embed_batch_dimension_check(monkeypatch):
    def mixed_post(*args, **kwargs):
        return _FakeResponse(body={"vectors": [[1.0, 2.0], [1.0]]})

    monkeypatch.setattr("paraprompt.backend.requests.post", mixed_post)
    backend = HttpBackend(BackendConfig(embedding_url="http://x/emb"))
    with pytest.raises(BackendError, match="mixed"):
        backend.embed(["a", "b"])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 1e39])
def test_http_embed_rejects_values_outside_float32(monkeypatch, value):
    # embedding files store float32: 1e39 would become inf, NaN a NaN index
    def post(*args, **kwargs):
        return _FakeResponse(body={"vectors": [[1.0, 2.0], [0.5, value]]})

    monkeypatch.setattr("paraprompt.backend.requests.post", post)
    backend = HttpBackend(BackendConfig(embedding_url="http://x/emb"))
    with pytest.raises(BackendError, match="finite and in float32 range"):
        backend.embed(["a", "b"])


def test_http_embed_accepts_float32_extremes(monkeypatch):
    big = float(np.finfo(np.float32).max)
    monkeypatch.setattr(
        "paraprompt.backend.requests.post",
        lambda *args, **kwargs: _FakeResponse(body={"vectors": [[big, -big, 1e-45]]}),
    )
    backend = HttpBackend(BackendConfig(embedding_url="http://x/emb"))
    assert backend.embed(["a"])[0].tolist() == [big, -big, 1e-45]


# Replies that parse as JSON but not as the agreed shape, each with the kind
# of error it must raise: a PromptBudgetError, whose unusable token count
# becomes None, or, for any other malformed response, a plain BackendError.
MALFORMED_REPLIES = [
    ("generate", 413, {"token_count": None}, "PromptBudgetError"),
    ("generate", 413, {"token_count": "many"}, "PromptBudgetError"),
    ("generate", 413, json.loads('{"token_count": 1e400}'), "PromptBudgetError"),
    ("generate", 413, {"token_count": True}, "PromptBudgetError"),
    ("generate", 400, {"error": "prompt_too_long", "token_count": "many"}, "PromptBudgetError"),
    ("generate", 200, {"text": "a", "token_count": None}, "MalformedResponseError"),
    ("generate", 200, {"text": "a", "token_count": "x"}, "MalformedResponseError"),
    ("generate", 200, {"text": "a", "token_count": True}, "MalformedResponseError"),
    ("generate", 200, "text token_count", "MalformedResponseError"),
    ("embed", 200, "vectors", "MalformedResponseError"),
    ("embed", 200, {"vectors": [["a"]]}, "MalformedResponseError"),
    ("embed", 200, {"vectors": [[[1.0]]]}, "MalformedResponseError"),
    ("embed", 200, {"vectors": [1.0]}, "MalformedResponseError"),
    ("embed", 200, {"vectors": [[]]}, "MalformedResponseError"),
    # numpy alone would read these as [1.5, 1.0], [1.0, 2.0] and [1.5, 0.0]
    ("embed", 200, {"vectors": [["1.5", True]]}, "MalformedResponseError"),
    ("embed", 200, {"vectors": [[True, 2]]}, "MalformedResponseError"),
    ("embed", 200, {"vectors": [[1.5, False]]}, "MalformedResponseError"),
    # a JSON integer too large for a float
    ("embed", 200, json.loads('{"vectors": [[1%s]]}' % ("0" * 400)), "MalformedResponseError"),
]


@pytest.mark.parametrize("call, status, body, error", MALFORMED_REPLIES)
def test_http_malformed_reply_is_a_backend_error(monkeypatch, call, status, body, error):
    monkeypatch.setattr(
        "paraprompt.backend.requests.post",
        lambda *args, **kwargs: _FakeResponse(status_code=status, body=body),
    )
    backend = HttpBackend(BackendConfig(generation_url="http://x/gen", embedding_url="http://x/emb"))
    with pytest.raises(BackendError) as err:
        if call == "generate":
            backend.generate(GenerationRequest(prompt="p"))
        else:
            backend.embed(["a"])
    if error == "PromptBudgetError":
        assert type(err.value) is PromptBudgetError and err.value.prompt_tokens is None
    else:
        assert type(err.value) is BackendError


def test_parse_completion_extracts_after_final_marker():
    raw = "Input: x\nParaphrase: noise\n\nInput: q\nParaphrase: how do i learn\nInput:"
    assert parse_completion(raw) == ("how", "do", "i", "learn")


def test_parse_completion_missing_marker():
    with pytest.raises(CompletionParseError):
        parse_completion("no marker here")


def test_parse_completion_empty_after_marker():
    with pytest.raises(CompletionParseError, match="empty after the infix marker"):
        parse_completion("Input: q\nParaphrase:   \nInput:")


def test_parse_completion_class_tagged_marker():
    raw = "Input: q\nParaphrase: (high) brand new words"
    tokens = parse_completion(raw, DEFAULT_TEMPLATE, NoveltyClass.HIGH)
    assert tokens == ("brand", "new", "words")


def test_config_validation():
    with pytest.raises(ValueError):
        BackendConfig(max_in_flight=0)
    with pytest.raises(ValueError):
        BackendConfig(retry_limit=0)
    for timeout in (0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="timeout must be > 0 and finite"):
            BackendConfig(timeout=timeout)
