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
from paraprompt.promptkit import (
    PromptExample,
    SlotSpec,
    assemble_manual,
    assemble_ncrapt,
    layout_to_json,
    render_text,
)


def _request(layout, request_id=""):
    return GenerationRequest(
        prompt=render_text(layout), layout_json=layout_to_json(layout), request_id=request_id
    )


def _manual(query, request_id=""):
    return _request(assemble_manual(tuple(query.split())), request_id)


def test_mock_echo_falls_back_to_query_for_open_prompts():
    # an open prompt (manual, no examples) and a prompt with examples both
    # echo the layout's query segment, never an example
    mock = MockBackend(mode="echo")
    assert mock.generate(_manual("how do i learn")) == "how do i learn"
    example = PromptExample(source=("a", "b"), target=("c",), similarity=0.5,
                            novelty=NoveltyClass.LOW, id="t0")
    layout = assemble_ncrapt(("how", "do", "i", "learn"), [example], NoveltyClass.HIGH,
                             SlotSpec(global_prefix_len=2, class_prefix_len=1, infix_len=1))
    assert mock.generate(_request(layout)) == "how do i learn"


def test_mock_stop_truncation():
    # the mock returns its text whole; parse_completion keeps the first line
    mock = MockBackend(mode="constant", constant_text="one\ntwo")
    completion = mock.generate(_manual("q"))
    assert completion == "one\ntwo"
    assert parse_completion(completion) == ("one",)


def test_mock_generation_deterministic():
    a = MockBackend(mode="shuffle", seed=3)
    b = MockBackend(mode="shuffle", seed=3)
    query = "t u v w x y z"
    first = a.generate(_manual(query))
    assert first == b.generate(_manual(query))
    assert sorted(first.split()) == query.split()
    # the order depends on the seed and the prompt, not on the instance
    assert {MockBackend(mode="shuffle", seed=seed).generate(_manual(query))
            for seed in range(8)} != {first}


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
    requests_list = [_manual(f"text {i}", request_id=str(i)) for i in range(16)]
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
        GenerationRequest(prompt="", layout_json={})


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
        backend.generate(_manual("p"))
    assert calls["n"] == 3


def test_http_malformed_response_not_retried(monkeypatch):
    calls = {"n": 0}

    def bad_post(*args, **kwargs):
        calls["n"] += 1
        return _FakeResponse(body={"unexpected": 1})

    monkeypatch.setattr("paraprompt.backend.requests.post", bad_post)
    backend = HttpBackend(BackendConfig(generation_url="http://x/gen", retry_limit=3))
    with pytest.raises(BackendError, match='"text" and an integer "token_count"'):
        backend.generate(_manual("p"))
    assert calls["n"] == 1


def test_http_success_and_stop_truncation(monkeypatch):
    # the service is asked to stop at a newline; the reply comes back as
    # sent, and parse_completion keeps its first line
    request = _manual("p", request_id="q7")
    sent = []

    def ok_post(url, json=None, timeout=None, headers=None):
        sent.append(json)
        return _FakeResponse(body={"text": "abc\ndef", "token_count": 2})

    monkeypatch.setattr("paraprompt.backend.requests.post", ok_post)
    backend = HttpBackend(BackendConfig(generation_url="http://x/gen"))
    completion = backend.generate(request)
    assert completion == "abc\ndef"
    assert parse_completion(completion) == ("abc",)
    assert sent == [{"prompt": "Input: p\nParaphrase:", "max_new_tokens": 100, "stop": ["\n"],
                     "request_id": "q7", "layout": request.layout_json}]


@pytest.mark.parametrize("text", [None, 12, ["a"], {"a": 1}])
def test_http_text_that_is_not_a_string_is_a_backend_error(monkeypatch, text):
    monkeypatch.setattr(
        "paraprompt.backend.requests.post",
        lambda *args, **kwargs: _FakeResponse(body={"text": text, "token_count": 3}),
    )
    backend = HttpBackend(BackendConfig(generation_url="http://x/gen"))
    with pytest.raises(BackendError, match='needs a string "text"'):
        backend.generate(_manual("p"))


def test_http_budget_rejection_surfaces_n(monkeypatch):
    def over_post(*args, **kwargs):
        return _FakeResponse(status_code=413, body={"token_count": 2048})

    monkeypatch.setattr("paraprompt.backend.requests.post", over_post)
    backend = HttpBackend(BackendConfig(generation_url="http://x/gen"))
    with pytest.raises(PromptBudgetError) as err:
        backend.generate(_manual("p"))
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
            backend.generate(_manual("p"))
        else:
            backend.embed(["a"])
    if error == "PromptBudgetError":
        assert type(err.value) is PromptBudgetError and err.value.prompt_tokens is None
    else:
        assert type(err.value) is BackendError


# A completion is what follows the prompt, which ends at its final
# (query) infix marker; parse_completion reads the completion's first line.

def test_parse_completion_extracts_after_final_marker():
    completion = " how do i learn\nInput: x\nParaphrase: noise"
    assert parse_completion(completion) == ("how", "do", "i", "learn")


def test_parse_completion_missing_marker():
    # a reply without a line break is read whole, markers or not
    assert parse_completion("no marker here") == ("no", "marker", "here")
    assert parse_completion("a Paraphrase: b") == ("a", "paraphrase", ":", "b")


def test_parse_completion_empty_after_marker():
    for completion in ("", "   ", "  \nInput: q", "\nParaphrase: words"):
        with pytest.raises(CompletionParseError, match="^completion's first line is empty$"):
            parse_completion(completion)


def test_parse_completion_class_tagged_marker():
    # the class tag ends the prompt, so the completion holds only the words
    assert parse_completion(" brand new words") == ("brand", "new", "words")


def test_config_validation():
    with pytest.raises(ValueError):
        BackendConfig(max_in_flight=0)
    with pytest.raises(ValueError):
        BackendConfig(retry_limit=0)
    for timeout in (0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="timeout must be > 0 and finite"):
            BackendConfig(timeout=timeout)
