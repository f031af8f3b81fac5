import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from paraprompt.backend import (
    EMBED_BATCH,
    BackendConfig,
    BackendError,
    CompletionParseError,
    GenerationRequest,
    HttpBackend,
    MockBackend,
    PromptBudgetError,
    embed_all,
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


def _reply(body, status=200):
    """What a patched transport returns: the status and the body as JSON bytes."""
    return status, json.dumps(body).encode()


def test_http_transport_error_after_retries(monkeypatch):
    calls = {"n": 0}

    def failing_post(*args, **kwargs):
        calls["n"] += 1
        raise ConnectionRefusedError("refused")

    monkeypatch.setattr("paraprompt.backend.requests.post", failing_post)
    backend = HttpBackend(BackendConfig(generation_url="http://x/gen", retry_limit=3))
    with pytest.raises(BackendError, match="^http://x/gen unreachable after 3 attempts: refused$"):
        backend.generate(_manual("p"))
    assert calls["n"] == 3


def test_http_malformed_response_not_retried(monkeypatch):
    calls = {"n": 0}

    def bad_post(*args, **kwargs):
        calls["n"] += 1
        return _reply({"unexpected": 1})

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
        return _reply({"text": "abc\ndef", "token_count": 2})

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
        lambda *args, **kwargs: _reply({"text": text, "token_count": 3}),
    )
    backend = HttpBackend(BackendConfig(generation_url="http://x/gen"))
    with pytest.raises(BackendError, match='needs a string "text"'):
        backend.generate(_manual("p"))


@pytest.mark.parametrize("call", ["generate", "embed"])
def test_http_malformed_reply_is_quoted_in_200_characters(monkeypatch, call):
    # a 1 MB reply without the fields asked for is named, not echoed whole
    body = {"text": 7, "padding": "x" * 2**20}
    monkeypatch.setattr("paraprompt.backend.requests.post", lambda *args, **kwargs: _reply(body))
    backend = HttpBackend(BackendConfig(generation_url="http://x/gen", embedding_url="http://x/emb"))
    with pytest.raises(BackendError) as err:
        backend.generate(_manual("p")) if call == "generate" else backend.embed(["a"])
    message = str(err.value)
    assert message.endswith(": " + str(body)[:200])
    assert len(message) < 300


def test_http_budget_rejection_surfaces_n(monkeypatch):
    def over_post(*args, **kwargs):
        return _reply({"token_count": 2048}, 413)

    monkeypatch.setattr("paraprompt.backend.requests.post", over_post)
    backend = HttpBackend(BackendConfig(generation_url="http://x/gen"))
    with pytest.raises(PromptBudgetError) as err:
        backend.generate(_manual("p"))
    assert err.value.prompt_tokens == 2048


def test_http_embed_batch_dimension_check(monkeypatch):
    def mixed_post(*args, **kwargs):
        return _reply({"vectors": [[1.0, 2.0], [1.0]]})

    monkeypatch.setattr("paraprompt.backend.requests.post", mixed_post)
    backend = HttpBackend(BackendConfig(embedding_url="http://x/emb"))
    with pytest.raises(BackendError, match="mixed"):
        backend.embed(["a", "b"])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 1e39])
def test_http_embed_rejects_values_outside_float32(monkeypatch, value):
    # embedding files store float32: 1e39 would become inf, NaN a NaN index
    def post(*args, **kwargs):
        return _reply({"vectors": [[1.0, 2.0], [0.5, value]]})

    monkeypatch.setattr("paraprompt.backend.requests.post", post)
    backend = HttpBackend(BackendConfig(embedding_url="http://x/emb"))
    with pytest.raises(BackendError, match="finite and in float32 range"):
        backend.embed(["a", "b"])


def test_http_embed_accepts_float32_extremes(monkeypatch):
    big = float(np.finfo(np.float32).max)
    monkeypatch.setattr(
        "paraprompt.backend.requests.post",
        lambda *args, **kwargs: _reply({"vectors": [[big, -big, 1e-45]]}),
    )
    backend = HttpBackend(BackendConfig(embedding_url="http://x/emb"))
    assert backend.embed(["a"])[0].tolist() == [big, -big, 1e-45]


def _text_vector(text, dim=3):
    """A vector that depends on the text alone, so any batching gives the same rows."""
    return [float(len(text)), float(sum(map(ord, text)) % 97)] + [0.5] * (dim - 2)


def _batch_post(sent, dim_of=lambda batch_number: 3):
    """A patched transport that records each request's texts and answers each
    text with ``_text_vector`` at the dim ``dim_of`` gives its request."""
    def post(url, json, timeout):
        sent.append(json["texts"])
        dim = dim_of(len(sent) - 1)
        return _reply({"vectors": [_text_vector(text, dim) for text in json["texts"]]})
    return post


def test_embed_all_sends_bounded_batches_in_order(monkeypatch):
    sent = []
    monkeypatch.setattr("paraprompt.backend.requests.post", _batch_post(sent))
    backend = HttpBackend(BackendConfig(embedding_url="http://x/emb"))
    texts = [f"text {i}" for i in range(2 * EMBED_BATCH + 1)]
    matrix = embed_all(backend, texts)
    assert EMBED_BATCH == 64
    assert sent == [texts[:64], texts[64:128], texts[128:]]
    assert matrix.dtype == np.float64 and matrix.shape == (len(texts), 3)
    sent.clear()
    assert np.array_equal(matrix, np.array([backend.embed([text])[0] for text in texts]))
    assert len(sent) == len(texts)
    assert embed_all(backend, texts, "float32").tobytes() == matrix.astype(np.float32).tobytes()


def test_embed_all_later_batch_of_another_dim_is_a_backend_error(monkeypatch):
    sent = []
    monkeypatch.setattr("paraprompt.backend.requests.post",
                        _batch_post(sent, lambda batch_number: 3 if batch_number == 0 else 5))
    backend = HttpBackend(BackendConfig(embedding_url="http://x/emb"))
    with pytest.raises(BackendError, match="^embedding batches differ in dim: 3 then 5$"):
        embed_all(backend, [f"t{i}" for i in range(EMBED_BATCH + 1)])
    assert [len(texts) for texts in sent] == [64, 1]


def test_index_exits_3_when_a_later_batch_has_another_dim(tmp_path, monkeypatch, capsys):
    from paraprompt.cli import main

    monkeypatch.setattr("paraprompt.backend.requests.post",
                        _batch_post([], lambda batch_number: 3 if batch_number == 0 else 4))
    train = tmp_path / "train.jsonl"
    train.write_text("".join(json.dumps({"id": f"r{i}", "source": f"row {i}", "target": "t"}) + "\n"
                             for i in range(EMBED_BATCH + 1)))
    out = tmp_path / "out"
    assert main(["index", "--train", str(train), "--out", str(out),
                 "--embedding-url", "http://x/emb"]) == 3
    assert capsys.readouterr().err == "backend error: embedding batches differ in dim: 3 then 4\n"
    assert not (out / "embeddings.bin").exists()


def test_embed_all_batch_with_the_wrong_vector_count_is_a_backend_error(monkeypatch):
    # HttpBackend checks each reply's row count itself ...
    monkeypatch.setattr("paraprompt.backend.requests.post",
                        lambda url, json, timeout: _reply({"vectors": [[1.0]]}))
    backend = HttpBackend(BackendConfig(embedding_url="http://x/emb"))
    with pytest.raises(BackendError, match=r"^vectors of shape \(1, 1\) for 2 texts$"):
        embed_all(backend, ["a", "b"])

    # ... and embed_all checks any other embedder's batches
    class Short:
        def embed(self, texts):
            return np.ones((len(texts) - (len(texts) < EMBED_BATCH), 2))

    with pytest.raises(BackendError, match="^0 vectors for 1 texts$"):
        embed_all(Short(), ["x"] * (EMBED_BATCH + 1))


def test_embed_all_holds_one_batch_reply_at_a_time(monkeypatch):
    import tracemalloc

    dim, n = 768, 16 * EMBED_BATCH
    row = json.dumps([round(0.1 + i / 7919, 9) for i in range(dim)]).encode()

    def post(url, json, timeout):
        return 200, b'{"vectors": [' + b", ".join([row] * len(json["texts"])) + b"]}"

    monkeypatch.setattr("paraprompt.backend.requests.post", post)
    backend = HttpBackend(BackendConfig(embedding_url="http://x/emb"))
    texts = [f"t{i}" for i in range(n)]
    embed_all(backend, texts[:1])  # imports numpy and http.client outside the measurement
    tracemalloc.start()
    try:
        matrix = embed_all(backend, texts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert matrix.shape == (n, dim)
    # one batch's reply and its decoded lists take about 3 MB; decoding one
    # whole reply at once would take about 38 MB
    assert peak < matrix.nbytes + 5 * 2**20


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


# A body the JSON parser gives up on with a RecursionError, not a ValueError.
TOO_DEEP = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize("call", ["generate", "embed"])
@pytest.mark.parametrize("status, message", [
    (200, "returned a body that is not a JSON object$"),
    (500, r"answered HTTP 500: \[{200}$"),
])
def test_http_reply_nested_too_deeply_is_malformed(monkeypatch, call, status, message):
    calls = []
    monkeypatch.setattr("paraprompt.backend.requests.post",
                        lambda *args, **kwargs: calls.append(args) or (status, TOO_DEEP))
    backend = HttpBackend(BackendConfig(generation_url="http://x/generate",
                                        embedding_url="http://x/embed", retry_limit=3))
    with pytest.raises(BackendError, match=f"^http://x/{call} {message}") as err:
        backend.generate(_manual("p")) if call == "generate" else backend.embed(["a"])
    assert type(err.value) is BackendError
    assert len(calls) == 1


@pytest.mark.parametrize("call, status, body, error", MALFORMED_REPLIES)
def test_http_malformed_reply_is_a_backend_error(monkeypatch, call, status, body, error):
    monkeypatch.setattr(
        "paraprompt.backend.requests.post",
        lambda *args, **kwargs: _reply(body, status),
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


# The real transport against a loopback server. Each path answers as
# REPLIES says; "/drop-once" closes its first connection with no reply.
REPLIES = {
    "/ok": (200, {}, b'{"text": "hi", "token_count": 1}'),
    "/over": (413, {}, b'{"token_count": 4096}'),
    "/fail": (500, {}, b"boom " * 100),
    "/moved": (302, {"Location": "/ok"}, b""),
    "/deep": (200, {}, TOO_DEEP),
}
# "/embed" answers each text with _text_vector.


class _Loopback(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - quiet access log
        pass

    def do_POST(self):
        seen = self.server.seen
        seen.append((self.path, self.headers, self.rfile.read(int(self.headers["Content-Length"]))))
        path = self.path.partition("?")[0]
        if path == "/drop-once" and [p for p, _, _ in seen].count(self.path) == 1:
            self.close_connection = True
            return
        status, headers, body = REPLIES.get(path, REPLIES["/ok"])
        if path == "/embed":
            texts = json.loads(seen[-1][2])["texts"]
            body = json.dumps({"vectors": [_text_vector(text) for text in texts]}).encode()
        self.send_response(status)
        for name, value in {**headers, "Content-Length": str(len(body))}.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture(scope="module")
def _loopback_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Loopback)
    server.daemon_threads = True
    threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture
def loopback(_loopback_server):
    """The loopback server's base URL and the (path, headers, body) of
    every request it gets during the test."""
    _loopback_server.seen = []
    return f"http://127.0.0.1:{_loopback_server.server_port}", _loopback_server.seen


def _http(url, retry_limit=2):
    return HttpBackend(BackendConfig(generation_url=url, retry_limit=retry_limit, timeout=5))


def test_loopback_first_attempt_closed_with_no_reply_is_retried(loopback):
    base, seen = loopback
    assert _http(f"{base}/drop-once").generate(_manual("p")) == "hi"
    assert [path for path, _, _ in seen] == ["/drop-once", "/drop-once"]


def test_loopback_budget_rejection_surfaces_n(loopback):
    base, _ = loopback
    with pytest.raises(PromptBudgetError) as err:
        _http(f"{base}/over").generate(_manual("p"))
    assert err.value.prompt_tokens == 4096


def test_loopback_server_error_quotes_the_body(loopback):
    base, seen = loopback
    with pytest.raises(BackendError, match=f"^{base}/fail answered HTTP 500: (boom ){{40}}$"):
        _http(f"{base}/fail").generate(_manual("p"))
    assert len(seen) == 1


def test_loopback_redirect_is_a_backend_error_and_not_followed(loopback):
    base, seen = loopback
    with pytest.raises(BackendError, match="answered HTTP 302"):
        _http(f"{base}/moved").generate(_manual("p"))
    assert [path for path, _, _ in seen] == ["/moved"]


def _closed_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]  # free, and nothing listens once closed


def test_loopback_refused_port_is_unreachable_after_retries():
    with pytest.raises(BackendError, match="unreachable after 3 attempts: .*refused"):
        _http(f"http://127.0.0.1:{_closed_port()}/gen", retry_limit=3).generate(_manual("p"))


def test_https_attempts_share_one_tls_context(monkeypatch):
    import ssl

    from paraprompt import backend

    made = []
    create = ssl.create_default_context
    monkeypatch.setattr(ssl, "create_default_context", lambda: made.append(1) or create())
    backend._tls_context.cache_clear()
    url = f"https://127.0.0.1:{_closed_port()}/"
    with pytest.raises(BackendError, match=f"^{url} unreachable after 2 attempts: .*refused"):
        _http(url).generate(_manual("p"))
    assert made == [1]


def test_loopback_index_on_a_reply_nested_too_deeply_exits_3(loopback, tmp_path, capsys):
    from paraprompt.cli import main

    base, seen = loopback
    train = tmp_path / "train.jsonl"
    train.write_text(json.dumps({"id": "a", "source": "a b", "target": "c"}) + "\n")
    assert main(["index", "--train", str(train), "--out", str(tmp_path / "out"),
                 "--embedding-url", f"{base}/deep"]) == 3
    assert capsys.readouterr().err == (
        f"backend error: {base}/deep returned a body that is not a JSON object\n"
    )
    assert len(seen) == 1


def test_loopback_wire_bytes_headers_and_query(loopback):
    base, seen = loopback
    request = _manual("p é", request_id="q1")
    _http(f"{base}/ok?model=m&x=1").generate(request)
    [(path, headers, body)] = seen
    assert path == "/ok?model=m&x=1"
    assert body == json.dumps({"prompt": request.prompt, "max_new_tokens": 100, "stop": ["\n"],
                               "request_id": "q1", "layout": request.layout_json},
                              allow_nan=False).encode()
    assert headers["Content-Type"] == "application/json"
    assert headers["Connection"] == "close"


def test_loopback_embed_all_sends_one_request_per_batch(loopback):
    base, seen = loopback
    backend = HttpBackend(BackendConfig(embedding_url=f"{base}/embed", timeout=5))
    texts = [f"text {i}" for i in range(2 * EMBED_BATCH + 1)]
    matrix = embed_all(backend, texts)
    assert [json.loads(body)["texts"] for _, _, body in seen] == [texts[:64], texts[64:128], texts[128:]]
    assert matrix.tolist() == [_text_vector(text) for text in texts]
