"""Span tracing around the public functions of each paraprompt module.

Run as ``python3 perfbench/tracing.py SPANS.json <paraprompt CLI args...>``
with ``src`` on PYTHONPATH: it wraps the functions listed in ``TARGETS``
at the module (or class) attribute the caller resolves, runs the CLI
command in-process, and writes every span once, at exit, to SPANS.json.

A span is ``[name, start, end, parent, qid, failed, meta]``: times are
``perf_counter`` seconds, ``parent`` is the index of the enclosing span
(in the calling thread, or the main thread's open span for pool
workers), ``qid`` identifies the query a span served where the call
carries one, and ``failed`` marks a call that raised. ``reduce_spans``
turns the list into per-name counts, totals and self times.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

# (module, attribute path, span name). Names bound with ``from ... import``
# are wrapped where they were imported, since that is what the caller
# resolves; ``paraprompt.metrics.ter`` the attribute is the function, so
# modules are always reached through importlib.
TARGETS = [
    ("paraprompt.cli", "cmd_label", "cli.label"),
    ("paraprompt.cli", "cmd_index", "cli.index"),
    ("paraprompt.cli", "cmd_generate", "cli.generate"),
    ("paraprompt.cli", "cmd_eval", "cli.eval"),
    ("paraprompt.cli", "normalize", "textcore.normalize"),
    ("paraprompt.novelty", "normalize", "textcore.normalize"),
    ("paraprompt.backend", "normalize", "textcore.normalize"),
    ("paraprompt.textcore", "normalize", "textcore.normalize"),
    ("paraprompt.dataio", "load_pairs", "dataio.load_pairs"),
    ("paraprompt.dataio", "write_jsonl", "dataio.write"),
    ("paraprompt.dataio", "atomic_write_text", "dataio.write"),
    ("paraprompt.novelty", "label_dataset", "novelty.label_dataset"),
    ("paraprompt.novelty", "ter", "ter"),
    ("paraprompt.metrics.ter", "ter", "ter"),
    ("paraprompt.metrics.ter", "levenshtein", "ter.levenshtein"),
    ("paraprompt.cli", "evaluate_all", "metrics.evaluate_all"),
    ("paraprompt.metrics.report", "bleu_corpus_stats", "metrics.bleu_corpus"),
    ("paraprompt.metrics.report", "self_bleu", "metrics.self_bleu"),
    ("paraprompt.metrics.report", "self_ter", "metrics.self_ter"),
    ("paraprompt.metrics.report", "sari_corpus", "metrics.sari"),
    ("paraprompt.metrics.report", "semantic_similarity", "metrics.semantic"),
    ("paraprompt.retrieval", "write_embeddings_binary", "retrieval.write_embeddings"),
    ("paraprompt.retrieval", "load_embeddings_binary", "retrieval.load_embeddings"),
    ("paraprompt.retrieval", "build_index", "retrieval.build_index"),
    ("paraprompt.retrieval", "query_knn", "retrieval.query_knn"),
    ("paraprompt.promptkit", "assemble_rapt", "promptkit.assemble"),
    ("paraprompt.promptkit", "assemble_ncrapt", "promptkit.assemble"),
    ("paraprompt.promptkit", "fit_examples_to_budget", "promptkit.fit_examples_to_budget"),
    ("paraprompt.promptkit", "layout_length", "promptkit.layout_length"),
    ("paraprompt.promptkit", "render_text", "promptkit.render_text"),
    ("paraprompt.promptkit", "layout_to_json", "promptkit.layout_to_json"),
    ("paraprompt.backend", "generate_batch", "backend.generate_batch"),
    ("paraprompt.backend", "parse_completion", "backend.parse_completion"),
    ("paraprompt.backend", "HttpBackend.generate", "backend.generate"),
    ("paraprompt.backend", "HttpBackend.embed", "backend.embed"),
    ("paraprompt.backend", "MockBackend.generate", "backend.mock.generate"),
    ("paraprompt.backend", "MockBackend.embed", "backend.mock.embed"),
    ("paraprompt.backend", "requests.post", "backend.http_attempt"),
]


def _qid(name: str, args: tuple, count: int):
    if name in ("backend.generate", "backend.mock.generate"):
        return getattr(args[1], "request_id", None)
    if name == "retrieval.query_knn":
        return count  # queries are looked up in input order
    return None


def _meta(name: str, args: tuple, result) -> dict | None:
    if name in ("backend.embed", "backend.mock.embed"):
        return {"texts": len(args[1]), "bytes": int(sum(v.nbytes for v in result))}
    if name == "dataio.load_pairs":
        return {"rows": len(result.pairs)}
    if name == "retrieval.query_knn":
        index = args[0]
        matrix = getattr(index, "_matrix", None)
        itemsize = matrix.itemsize if matrix is not None else 8
        return {"bytes": len(index) * index.dim * itemsize}
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            with self._lock:
                count = self.counts.get(name, 0)
                self.counts[name] = count + 1
                span = [name, 0.0, 0.0, parent, _qid(name, args, count), False, None]
                self.spans.append(span)
                index = len(self.spans) - 1
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[6] = _meta(name, args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr_path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *owners, attr = attr_path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            setattr(owner, attr, self.wrap(getattr(owner, attr), name))


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def reduce_spans(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, failed calls, total seconds (outermost spans of
    that name only, so nesting and recursion are not counted twice), self
    seconds (total minus the union of child spans), durations, and summed
    meta fields."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(i)
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, _qid, failed, meta) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "failed": 0, "s": 0.0, "self_s": 0.0,
                                    "durations": [], "meta": {}})
        agg["calls"] += 1
        agg["failed"] += bool(failed)
        agg["durations"].append(end - start)
        ancestor, nested = parent, False
        while ancestor is not None:
            if spans[ancestor][0] == name:
                nested = True
                break
            ancestor = spans[ancestor][3]
        if not nested:
            agg["s"] += end - start
        kids = [(spans[c][1], spans[c][2]) for c in children.get(i, [])]
        agg["self_s"] += (end - start) - _union_length(kids)
        for key, value in (meta or {}).items():
            agg["meta"][key] = agg["meta"].get(key, 0) + value
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("paraprompt.cli")
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
