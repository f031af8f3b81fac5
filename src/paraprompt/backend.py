"""Clients for external generation and embedding services, plus a mock.

All neural computation lives behind this boundary. The wire protocol is
a minimal self-owned pair of JSON-over-HTTP endpoints:

    POST <generation_url>   {"prompt": str, "max_new_tokens": int,
                             "stop": ["\\n"], "request_id": str,
                             "layout": {...}}
                         -> {"text": str, "token_count": int}
                            (the count is checked, not used)
    POST <embedding_url>    {"texts": [str], "model": str}
                         -> {"vectors": [[float]]}  finite, float32 range

Structured layouts ride along under "layout" for backends that bind soft
slots; text-only backends ignore the key. Prompts that exceed the
backend's budget come back as HTTP 413 (or a "prompt_too_long" error
body) and surface as ``PromptBudgetError`` carrying the token count.

``embed_all`` sends at most ``EMBED_BATCH`` texts per embedding request,
one after another, so a service must give a text the same vector in any batch.
URLs with the "mock:" scheme select the in-process deterministic mock,
e.g. "mock:echo?seed=1" for generation or "mock:hash?dim=16" for
embeddings. Transport failures are retried up to the configured limit;
malformed responses never are. A completion is the text the service
returned; ``parse_completion`` reads it.

Each HTTP attempt is one ``http.client`` connection, read as its status
and body bytes; https attempts share one TLS context, proxies are not
read and redirects are not followed. numpy loads on the first embedding
and ``http.client`` on the first HTTP request, so a command that uses
neither does not pay to import them.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json as jsonlib
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING, Protocol, Sequence
from urllib.parse import parse_qs, urlsplit, urlunsplit

from .textcore import DEFAULT_NORMALIZATION, NormalizationConfig, TokenSeq, normalize, render
from .promptkit import DECODE_MARGIN, SegmentKind

if TYPE_CHECKING:
    import numpy as np


class BackendError(RuntimeError):
    pass


class PromptBudgetError(BackendError):
    def __init__(self, prompt_tokens: int | None) -> None:
        super().__init__(f"backend rejected over-budget prompt (n={prompt_tokens})")
        self.prompt_tokens = prompt_tokens


class CompletionParseError(BackendError):
    pass


@dataclass(frozen=True)
class BackendConfig:
    generation_url: str = "mock:echo"
    embedding_url: str = "mock:hash"
    embedding_model_name: str = "paraphrase-mpnet-base-v2"
    timeout: float = 30.0
    max_in_flight: int = 4
    retry_limit: int = 2

    def __post_init__(self) -> None:
        if not 0 < self.timeout < float("inf"):  # NaN fails too
            raise ValueError("timeout must be > 0 and finite")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.retry_limit < 1:
            raise ValueError("retry_limit must be >= 1")
        # a mock: URL that MockBackend refuses fails here, before any stage runs
        for make, url in ((make_generation_backend, self.generation_url),
                          (make_embedding_backend, self.embedding_url)):
            try:
                make(self)
            except ValueError as err:
                raise ValueError(f"bad mock URL {url!r}: {err}") from None


@dataclass(frozen=True)
class GenerationRequest:
    prompt: str
    layout_json: dict
    max_new_tokens: int = DECODE_MARGIN
    request_id: str = ""

    def __post_init__(self) -> None:
        if not self.prompt:
            raise ValueError("prompt must be non-empty")


class GenerationBackend(Protocol):
    def generate(self, request: GenerationRequest) -> str: ...


class EmbeddingBackend(Protocol):
    def embed(self, texts: Sequence[str]) -> np.ndarray: ...  # (len(texts), dim) float64


class MockBackend:
    """Deterministic in-process stand-in for both services.

    Generation modes:
      echo     repeat the query, so pipelines behave like a copy model: the
               tokens of the request layout's ``query_input`` segment,
               rendered, under any template.
      shuffle  like echo, but deterministically shuffles the tokens using
               the seed and the prompt digest.
      constant always answer ``constant_text``.

    Embeddings hash the text to a unit vector, so equal texts always get
    equal vectors.
    """

    MODES = ("echo", "shuffle", "constant")

    def __init__(
        self,
        mode: str = "echo",
        seed: int = 0,
        dim: int = 16,
        constant_text: str = "ok",
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(f"unknown mock mode {mode!r}")
        if dim < 1:
            raise ValueError("embedding dim must be >= 1")
        self.mode = mode
        self.seed = seed
        self.dim = dim
        self.constant_text = constant_text

    def generate(self, request: GenerationRequest) -> str:
        if self.mode == "constant":
            return self.constant_text
        tokens = next(segment["tokens"] for segment in request.layout_json["segments"]
                      if segment["kind"] == SegmentKind.QUERY_INPUT.value)
        if self.mode == "shuffle":
            tokens = list(tokens)
            digest = hashlib.sha256(f"{self.seed}:{request.prompt}".encode()).hexdigest()
            random.Random(int(digest[:16], 16)).shuffle(tokens)
        return render(tokens)

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        if not texts:
            raise ValueError("embed needs at least one text")
        import numpy as np
        out = []
        for text in texts:
            digest = hashlib.sha256(f"{self.seed}:{text}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            vec = np.array([rng.gauss(0.0, 1.0) for _ in range(self.dim)])
            norm = float(np.linalg.norm(vec))
            out.append(vec / norm if norm else vec + 1.0 / self.dim**0.5)
        return np.array(out)


class HttpBackend:
    """JSON-over-HTTP client for the two service endpoints."""

    def __init__(self, config: BackendConfig) -> None:
        self.config = config

    def _post(self, url: str, payload: dict) -> dict:
        import http.client
        last_error: Exception | None = None
        for _ in range(self.config.retry_limit):
            try:
                status, content = requests.post(url, json=payload, timeout=self.config.timeout)
            except (ValueError, http.client.InvalidURL) as err:
                # an unusable URL, never retried; InvalidURL is an HTTPException
                raise BackendError(f"request to {url!r} failed: {err}") from None
            except (OSError, http.client.HTTPException) as err:
                last_error = err
                continue
            try:
                body = jsonlib.loads(content)
            except (ValueError, RecursionError):  # RecursionError: nested past the parser's limit
                body = None
            fields = body if isinstance(body, dict) else {}
            if status == 413 or (status >= 400 and fields.get("error") == "prompt_too_long"):
                # a count that is not a JSON integer (true is a bool) is unknown
                count = fields.get("token_count")
                raise PromptBudgetError(count if type(count) is int else None)
            if status >= 300:  # redirects are not followed
                text = content.decode("utf-8", "replace")
                raise BackendError(f"{url} answered HTTP {status}: {text[:200]}")
            if not isinstance(body, dict):
                raise BackendError(f"{url} returned a body that is not a JSON object")
            return body
        raise BackendError(f"{url} unreachable after {self.config.retry_limit} attempts: {last_error}")

    def generate(self, request: GenerationRequest) -> str:
        payload = {
            "prompt": request.prompt,
            "max_new_tokens": request.max_new_tokens,
            "stop": ["\n"],
            "request_id": request.request_id,
            "layout": request.layout_json,
        }
        body = self._post(self.config.generation_url, payload)
        if type(body.get("text")) is not str or type(body.get("token_count")) is not int:
            raise BackendError(
                f'generation response needs a string "text" and an integer "token_count": {str(body)[:200]}'
            )
        return body["text"]

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        if not texts:
            raise ValueError("embed needs at least one text")
        body = self._post(
            self.config.embedding_url,
            {"texts": list(texts), "model": self.config.embedding_model_name},
        )
        if "vectors" not in body:
            raise BackendError(f'embedding response missing "vectors": {str(body)[:200]}')
        import numpy as np
        try:
            # numpy would take "1.5" or true as numbers; JSON numbers only
            if not set(map(type, itertools.chain.from_iterable(body["vectors"]))) <= {int, float}:
                raise TypeError("a component is not a JSON number")
            matrix = np.asarray(body["vectors"], dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as err:
            raise BackendError(
                f"embedding vectors hold non-numbers or mixed dimensions: {err}"
            ) from None
        if matrix.ndim != 2 or matrix.shape[0] != len(texts) or matrix.shape[1] < 1:
            raise BackendError(
                f"vectors of shape {matrix.shape} for {len(texts)} texts"
            )
        # Embedding files store float32; NaN fails these comparisons too.
        limit = np.finfo(np.float32).max
        if not -limit <= matrix.min() <= matrix.max() <= limit:
            raise BackendError("embedding values must be finite and in float32 range")
        return matrix


@functools.cache
def _tls_context():
    """The one verifying TLS context of every https attempt: building one loads the CA store."""
    import ssl
    return ssl.create_default_context()


def _http_post(url: str, json: dict, timeout: float) -> tuple[int, bytes]:
    """``(status, body)`` of a POST of ``json`` to ``url`` on a connection of its own. An unusable
    URL raises ``ValueError`` or ``InvalidURL``; a failed transport, ``OSError`` or ``HTTPException``."""
    import http.client
    parts = urlsplit(url)  # a broken IPv6 literal is a ValueError
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError("not an http or https URL with a host")
    https = parts.scheme == "https"
    kind = http.client.HTTPSConnection if https else http.client.HTTPConnection
    port = kind.default_port if parts.port is None else parts.port  # a bad port is a ValueError
    conn = kind(parts.hostname, port, timeout=timeout,
                **({"context": _tls_context()} if https else {}))
    try:
        conn.request("POST", urlunsplit(("", "", parts.path or "/", parts.query, "")),
                     body=jsonlib.dumps(json, allow_nan=False).encode(),
                     headers={"Content-Type": "application/json", "Connection": "close"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


# ``_post`` calls the attempt here, where the benchmark's tracer wraps it and tests patch
# it with ``(status, body)`` fakes; the name stays until that tracer is retired (ROADMAP item 2b).
requests = SimpleNamespace(post=_http_post)


def _mock_options(url: str, modes: Sequence[str], names: Sequence[str]) -> tuple[str, dict]:
    """The mode of ``mock:MODE?QUERY``, or ``modes[0]`` when MODE is empty,
    and its query's options; a mode not in ``modes`` or an option not in
    ``names`` is a ``ValueError``."""
    mode, _, query = url.removeprefix("mock:").partition("?")
    mode = mode or modes[0]
    if mode not in modes:
        raise ValueError(f"unknown mock mode {mode!r}")
    options = {k: v[-1] for k, v in parse_qs(query, keep_blank_values=True).items()}
    unknown = next((name for name in options if name not in names), None)
    if unknown is not None:
        raise ValueError(f"unknown mock option {unknown!r}")
    return mode, options


def make_generation_backend(config: BackendConfig) -> GenerationBackend:
    if config.generation_url.startswith("mock:"):
        mode, opts = _mock_options(config.generation_url, MockBackend.MODES, ("seed", "text"))
        return MockBackend(mode=mode, seed=int(opts.get("seed", 0)), constant_text=opts.get("text", "ok"))
    return HttpBackend(config)


def make_embedding_backend(config: BackendConfig) -> EmbeddingBackend:
    if config.embedding_url.startswith("mock:"):
        _, opts = _mock_options(config.embedding_url, ("hash",), ("seed", "dim"))
        return MockBackend(seed=int(opts.get("seed", 0)), dim=int(opts.get("dim", 16)))
    return HttpBackend(config)


def generate_batch(
    backend: GenerationBackend,
    requests_list: Sequence[GenerationRequest],
    max_in_flight: int,
) -> list[str]:
    """Run requests concurrently (bounded), returning completions in order."""
    with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
        return list(pool.map(backend.generate, requests_list))


# Texts per embedding request: a stage holds one batch's reply, not the corpus's.
EMBED_BATCH = 64


def embed_all(embedder: EmbeddingBackend, texts: Sequence[str], dtype="float64") -> np.ndarray:
    """The texts' vectors as one ``(len(texts), dim)`` matrix of ``dtype``, from one
    ``embed`` call per ``EMBED_BATCH`` texts in order, each reply copied in as it comes."""
    import numpy as np
    matrix = None
    for lo in range(0, max(len(texts), 1), EMBED_BATCH):  # no texts: embed's ValueError
        batch = texts[lo : lo + EMBED_BATCH]
        vectors = embedder.embed(batch)
        if len(vectors) != len(batch):
            raise BackendError(f"{len(vectors)} vectors for {len(batch)} texts")
        dim = vectors.shape[1]
        if matrix is None:
            matrix = np.empty((len(texts), dim), dtype)
        elif dim != matrix.shape[1]:
            raise BackendError(f"embedding batches differ in dim: {matrix.shape[1]} then {dim}")
        matrix[lo : lo + len(batch)] = vectors
    return matrix


def parse_completion(completion: str, cfg: NormalizationConfig = DEFAULT_NORMALIZATION) -> TokenSeq:
    """The paraphrase in a completion: its first line, normalized. Every
    prompt ends at its query infix, so the reply opens with the answer.
    Raises ``CompletionParseError`` when that line is empty."""
    tokens = normalize(completion.split("\n", 1)[0], cfg)
    if not tokens:
        raise CompletionParseError("completion's first line is empty")
    return tokens
