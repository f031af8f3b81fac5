"""paraprompt benchmark: CLI stage throughput on three seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory. Each CLI stage runs in its own subprocess, as a user
would run it. ``--trace 0`` repeats the workload's stages a fixed number
of times, sized so that they take about ``--seconds`` on the reference
host, and reports the end-to-end metrics; ``--trace 1`` alternates plain
passes with passes under ``tracing.py`` and reports per-layer metrics
and the tracing overhead. Output checks run outside the timed
region on every run. The last stdout line is the JSON result; the lines
before it are a readable table. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import numpy as np

import corpus
import reference_ter
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
CACHE_DIR = ROOT / ".perfbench_cache"

MIN_PASSES = 2
MAX_IN_FLIGHT = 2  # equals nproc on the reference machine
CHECK_SAMPLE = 12
SHIFT_SAMPLE = 24
LOW_MAX, HIGH_MIN = 0.2, 0.4  # the documented novelty thresholds, both inclusive
REPORT_HEADER = "Method,BERT,Self-TER,Self-BLEU,BLEU,iBLEU,SARI"
STAGE_ITEMS = {"label": "pairs", "index": "texts", "generate": "queries", "eval": "records"}


class CheckFailed(Exception):
    pass


def _import_program():
    if not (SRC / "paraprompt" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'paraprompt'} not found; run from a paraprompt checkout")
    sys.path.insert(0, str(SRC))
    import paraprompt

    if SRC.resolve() not in Path(paraprompt.__file__).resolve().parents:
        sys.exit(f"error: imported paraprompt from {paraprompt.__file__}, not {SRC}")


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.lower().endswith("_proxy") and not k.startswith("PARAPROMPT_")}
    env["PYTHONPATH"] = str(SRC)
    env["NO_PROXY"] = "127.0.0.1,localhost"
    return env


class Stub:
    """The loopback service process; counters are read over HTTP."""

    def __init__(self, seed: int, marker: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub.py"), "--seed", str(seed), "--marker", marker],
            stdout=subprocess.PIPE, env=_child_env(), text=True,
        )
        line = self.proc.stdout.readline()
        self.proc.stdout.close()
        if not line.strip().isdigit():
            self.close()
            raise RuntimeError("stub service did not report a port")
        self.url = f"http://127.0.0.1:{int(line)}"
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def _call(self, path: str, data: bytes | None = None) -> dict:
        with self._opener.open(self.url + path, data=data, timeout=30) as resp:
            return json.loads(resp.read())

    def reset(self) -> None:
        self._call("/reset", b"{}")

    def stats(self) -> dict:
        return self._call("/stats")

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_stage(work: Path, name: str, args: list[str], spans: Path | None = None) -> dict:
    """One CLI stage in its own process: wall seconds and peak RSS (MB)."""
    if spans is None:
        cmd = [sys.executable, "-m", "paraprompt.cli", *args]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "tracing.py"), str(spans), *args]
    log = work / f"{name}.log"
    with open(log, "w", encoding="utf-8") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=_child_env(), cwd=work)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise RuntimeError(f"stage {name} exited {proc.returncode}:\n{tail}")
    return {"wall": wall, "rss_mb": usage.ru_maxrss / 1024}


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ------------------------------------------------------------------ workloads

class Workload:
    """Inputs, set-up, stage commands and output checks of one workload."""

    name = ""
    uses_stub = False
    setup_repeats = 21  # set-ups per run; setup_s is their median
    # Wall seconds of one pass on the reference host (2 vCPUs, Python
    # 3.11). The pass count is --seconds over this, so it is the same for
    # fast and slow code.
    pass_s: float
    trace_rounds = 3  # plain/traced pass pairs in a traced run

    def __init__(self, inputs: corpus.Inputs, work: Path, seed: int) -> None:
        self.inputs = inputs
        self.work = work
        self.seed = seed
        self.out = work / "out"
        self.train_path = work / "train.jsonl"
        self.test_path = work / "test.jsonl"
        self.stub: Stub | None = None

    def _pairs(self, rows):
        from paraprompt.dataio import ParaphrasePair

        return [ParaphrasePair(p.id, p.source, p.target) for p in rows]

    def prepare(self) -> None:
        """Harness-side preparation that is not the program's set-up work."""
        self.train = self._pairs(self.inputs.train)
        self.test = self._pairs(self.inputs.test)

    def setup(self) -> float:
        """The program work the stages need first; returns its seconds."""
        from paraprompt import dataio

        started = time.perf_counter()
        dataio.write_pairs(self.train_path, self.train)
        if self.test:
            dataio.write_pairs(self.test_path, self.test)
        return time.perf_counter() - started

    def stages(self) -> list[tuple[str, list[str], int]]:
        """(stage, CLI args, items) in run order."""
        raise NotImplementedError

    def check(self, stats: dict | None, final: bool) -> int:
        """Raise CheckFailed on a wrong output; return failed operations.
        ``final`` marks the run's last pass, where costly checks run."""
        raise NotImplementedError

    def _check_labels(self) -> int:
        from paraprompt.textcore import normalize

        rows = _read_jsonl(self.out / "labeled.jsonl")
        meta = json.loads((self.out / "labeled_meta.json").read_text(encoding="utf-8"))
        for row in rows:
            t = row["ter"]
            want = "high" if t >= HIGH_MIN else "low" if t <= LOW_MAX else "medium"
            if row["class"] != want:
                raise CheckFailed(f"label {row['id']}: TER {t} labelled {row['class']}, want {want}")
        hist = meta["histogram"]
        if len(rows) + meta["rejected"] != len(self.train) or sum(hist.values()) != len(rows):
            raise CheckFailed(f"label: {len(rows)} labelled + {meta['rejected']} rejected "
                              f"!= {len(self.train)} rows")
        for row in random.Random(self.seed).sample(rows, min(CHECK_SAMPLE, len(rows))):
            want, _ = reference_ter.greedy_ter(list(normalize(row["target"])),
                                               list(normalize(row["source"])))
            if abs(want - row["ter"]) > 1e-12:
                raise CheckFailed(f"label {row['id']}: TER {row['ter']}, reference {want}")
        self.histogram = hist
        # rejecting the planted whitespace-only rows is the right answer
        return abs(meta["rejected"] - self.inputs.planted_empty)

    def shift_sample(self) -> int:
        """Sum of ter_detail(...).shifts over a fixed sample of the train
        pairs, required to match the reference implementation."""
        from paraprompt.metrics import ter_detail
        from paraprompt.textcore import normalize

        total = 0
        rows = [p for p in self.train if normalize(p.source)]
        for p in random.Random(self.seed).sample(rows, min(SHIFT_SAMPLE, len(rows))):
            hyp, ref = normalize(p.target), normalize(p.source)
            got = ter_detail(hyp, ref)
            rate, shifts = reference_ter.greedy_ter(list(hyp), list(ref))
            if (got.rate, got.shifts) != (rate, shifts):
                raise CheckFailed(f"ter_detail {p.id}: {got} != reference ({rate}, {shifts})")
            total += got.shifts
        return total


class LabelLong(Workload):
    name = "label-long"
    pass_s = 3.0

    def stages(self):
        return [("label", ["label", "--train", str(self.train_path), "--out", str(self.out)],
                 len(self.train))]

    def check(self, stats, final):
        return self._check_labels()


class RaptQqp140k(Workload):
    name = "rapt-qqp140k"
    uses_stub = True
    pass_s = 12.0
    # One set-up writes 134,206x768 floats in ~18 s, long enough to average
    # out host noise; a third would add another 18 s to every run.
    setup_repeats = 2
    trace_rounds = 2
    K = 2

    def prepare(self) -> None:
        super().prepare()
        # float32 rows, as the file stores them; embedded in slices to bound memory
        embedder, sources = corpus.Embedder(), [p.source for p in self.inputs.train]
        self.vectors = np.empty((len(sources), corpus.DIM), dtype="<f4")
        for lo in range(0, len(sources), 16384):
            self.vectors[lo : lo + 16384] = embedder.embed(sources[lo : lo + 16384])
        self.entries = [(p.id, row) for p, row in zip(self.train, self.vectors)]

    def setup(self) -> float:
        from paraprompt import retrieval

        seconds = super().setup()
        started = time.perf_counter()
        retrieval.write_embeddings_binary(
            self.out / "embeddings.bin", self.out / "embeddings.ids.jsonl", self.entries)
        self.write_embeddings_s = time.perf_counter() - started
        return seconds + self.write_embeddings_s

    def stages(self):
        return [("generate", [
            "generate", "--train", str(self.train_path), "--test", str(self.test_path),
            "--out", str(self.out), "--mode", "rapt", "--k", str(self.K),
            "--generation-url", "mock:echo", "--embedding-url", self.stub.url + "/embed",
            "--max-in-flight", str(MAX_IN_FLIGHT)], len(self.test))]

    def check(self, stats, final):
        from paraprompt.textcore import normalize, render

        rows = {r["id"]: r for r in _read_jsonl(self.out / "generations.jsonl")}
        failed = sum("error" in r for r in rows.values())
        if set(rows) != {p.id for p in self.test}:
            raise CheckFailed("generate: output ids differ from the test ids")
        for p in self.test:
            if rows[p.id]["output"] != render(normalize(p.source)):
                raise CheckFailed(f"query {p.id}: output is not the query")
        if not final:
            return failed
        blob = np.fromfile(self.out / "embeddings.bin", dtype="<f4", offset=16)
        unit = blob.reshape(len(self.train), corpus.DIM).astype(np.float64)
        del blob
        # the same arithmetic as retrieval.build_index / query_knn, row by row
        norms = np.array([float(np.linalg.norm(row)) for row in unit])
        unit /= norms[:, None]
        queries = corpus.Embedder().embed([p.source for p in self.test])
        ids = [p.id for p in self.train]
        # a third of the sample copies a repeated train source, so ties are checked
        copies = int(len(self.test) * corpus.SPECS[self.name].query_copy_share)
        rng = random.Random(self.seed)
        sample = rng.sample(range(copies), CHECK_SAMPLE // 3)
        sample += rng.sample(range(copies, len(self.test)), CHECK_SAMPLE - len(sample))
        for i in sample:
            q = queries[i] / float(np.linalg.norm(queries[i]))
            order = np.argsort(-(unit @ q), kind="stable")[: self.K]
            want = [ids[j] for j in reversed(order)]
            row = rows[self.test[i].id]
            if row.get("examples") != want:
                raise CheckFailed(f"query {self.test[i].id}: examples {row.get('examples')}, "
                                  f"brute force {want}")
        return failed


class PipelineHttp(Workload):
    name = "pipeline-http"
    uses_stub = True
    pass_s = 5.0

    def stages(self):
        common = ["--out", str(self.out), "--embedding-url", self.stub.url + "/embed"]
        train, test = ["--train", str(self.train_path)], ["--test", str(self.test_path)]
        return [
            ("label", ["label", *train, "--out", str(self.out)], len(self.train)),
            ("index", ["index", *train, *common], len(self.train)),
            ("generate", ["generate", *train, *test, *common, "--mode", "ncrapt",
                          "--query-class", "high", "--generation-url", self.stub.url + "/generate",
                          "--max-in-flight", str(MAX_IN_FLIGHT)], len(self.test)),
            ("eval", ["eval", *test, *common], len(self.test)),
        ]

    def check(self, stats, final):
        failed = self._check_labels()
        rows = _read_jsonl(self.out / "generations.jsonl")
        failed += sum("error" in r for r in rows)
        if sorted(r["id"] for r in rows) != sorted(p.id for p in self.test):
            raise CheckFailed("generate: not exactly one row per test id")
        if stats["prompts"] != len(self.test) or stats["prompts_with_marker"] != stats["prompts"]:
            raise CheckFailed(f"stub saw {stats['prompts_with_marker']} of {stats['prompts']} "
                              f"prompts ending with the high infix, {len(self.test)} expected")
        lines = (self.out / "report.csv").read_text(encoding="utf-8").splitlines()
        if lines[0] != REPORT_HEADER or len(lines) < 2 or any(
                c == "" for c in lines[1].split(",")[1:7]) or len(lines[1].split(",")) != 7:
            raise CheckFailed(f"report.csv lacks the six metric columns: {lines}")
        return failed


WORKLOADS = {w.name: w for w in (LabelLong, RaptQqp140k, PipelineHttp)}


# ------------------------------------------------------------------ measuring

def run_pass(wl: Workload, spans_dir: Path | None = None) -> dict:
    if wl.stub:
        wl.stub.reset()
    stages = {}
    for name, args, items in wl.stages():
        spans = spans_dir / f"{name}.json" if spans_dir else None
        stages[name] = dict(run_stage(wl.work, name, args, spans), items=items)
    stats = wl.stub.stats() if wl.stub else None
    return {"stages": stages, "stats": stats, "wall": sum(s["wall"] for s in stages.values())}


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def pass_count(wl: Workload, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / wl.pass_s))


def measure(wl: Workload, seconds: float) -> tuple[dict, list[str], int, int]:
    """A fixed number of passes, with the set-ups spread evenly before
    them, so that set-ups and passes alike sample the whole run; this
    also spaces the passes of the long workloads apart in time."""
    setup, passes, failed = [], [], 0
    count = pass_count(wl, seconds)
    while len(passes) < count:
        while len(setup) < wl.setup_repeats * (len(passes) + 1) / count:
            setup.append(wl.setup())
        passes.append(run_pass(wl))
        failed += wl.check(passes[-1]["stats"], final=len(passes) == count)
    walls = [p["wall"] for p in passes]
    best = {name: min(p["stages"][name]["wall"] for p in passes) for name in passes[0]["stages"]}
    metrics = {
        "wall_s": (sum(best.values()), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(s["rss_mb"] for p in passes for s in p["stages"].values()), "MB"),
    }
    attempted = sum(s["items"] for p in passes for s in p["stages"].values())
    lines = [f"passes {len(passes)}; pass wall median {statistics.median(walls):.4f} "
             f"min {min(walls):.4f} max {max(walls):.4f}; setup runs "
             + " ".join(f"{s:.4f}" for s in setup)]
    for name in passes[0]["stages"]:
        stage_walls = [p["stages"][name]["wall"] for p in passes]
        items = passes[0]["stages"][name]["items"]
        lines.append(f"{name}.{STAGE_ITEMS[name]}_per_s {items / best[name]:.4f} 1/s "
                     f"(best of {len(stage_walls)}; median "
                     f"{items / statistics.median(stage_walls):.4f}; {items} {STAGE_ITEMS[name]})")
    lines.append(f"failed_frac {failed / attempted:.6f} ratio ({failed} failed / {attempted} attempted)")
    return metrics, lines, attempted, failed


def trace_metrics(wl: Workload) -> tuple[dict, list[str], int, int]:
    """One set-up, then ``trace_rounds`` rounds of a plain pass followed by a
    traced pass. Layer metrics come from the last traced pass; the
    overhead compares the fastest pass of each kind."""
    setup_s = wl.setup()
    write_s = getattr(wl, "write_embeddings_s", 0.0)
    spans_dir = wl.work / "spans"
    spans_dir.mkdir()
    plains, traceds, failed = [], [], 0
    for i in range(wl.trace_rounds):
        plains.append(run_pass(wl))
        failed += wl.check(plains[-1]["stats"], final=False)
        traceds.append(run_pass(wl, spans_dir))
        failed += wl.check(traceds[-1]["stats"], final=i == wl.trace_rounds - 1)
    traced = traceds[-1]
    spans: list[list] = []
    for name in traced["stages"]:
        part = json.loads((spans_dir / f"{name}.json").read_text(encoding="utf-8"))
        base = len(spans)
        spans += [s[:3] + [None if s[3] is None else s[3] + base] + s[4:] for s in part]
    agg = tracing.reduce_spans(spans)

    def get(name, key="s"):
        entry = agg.get(name)
        if entry is None:
            return 0
        return entry["meta"].get(key, 0) if key not in entry else entry[key]

    def durations_ms(*names):
        return [d * 1000 for n in names for d in (agg.get(n, {}).get("durations", []))]

    gen_names = ("backend.generate", "backend.mock.generate")
    gen_ms = durations_ms(*gen_names)
    batch_s = get("backend.generate_batch")
    stats = traced["stats"] or {}
    ter_calls = get("ter", "calls")
    prompts = get("promptkit.render_text", "calls")
    gen_rows = _read_jsonl(wl.out / "generations.jsonl") if "generate" in traced["stages"] else []
    hist = getattr(wl, "histogram", {}) if "label" in traced["stages"] else {}
    knn_calls = get("retrieval.query_knn", "calls")
    m = {
        "ter.calls": (ter_calls, "count"),
        "ter.s": (get("ter"), "s"),
        "ter.pair_p50_ms": (_pct(durations_ms("ter"), 50), "ms"),
        "ter.pair_p99_ms": (_pct(durations_ms("ter"), 99), "ms"),
        "ter.levenshtein.calls": (get("ter.levenshtein", "calls"), "count"),
        "ter.levenshtein.s": (get("ter.levenshtein"), "s"),
        "ter.levenshtein_per_pair": (get("ter.levenshtein", "calls") / ter_calls if ter_calls else 0, "count"),
        "ter.shifts": (wl.shift_sample(), "count"),
        "novelty.label_dataset.s": (get("novelty.label_dataset"), "s"),
        "novelty.low": (hist.get("low", 0), "count"),
        "novelty.medium": (hist.get("medium", 0), "count"),
        "novelty.high": (hist.get("high", 0), "count"),
        "textcore.normalize.calls": (get("textcore.normalize", "calls"), "count"),
        "textcore.normalize.s": (get("textcore.normalize"), "s"),
        "dataio.load_pairs.s": (get("dataio.load_pairs"), "s"),
        "dataio.load_pairs.rows": (get("dataio.load_pairs", "rows"), "count"),
        "dataio.write.s": (get("dataio.write"), "s"),
        "retrieval.load_embeddings.s": (get("retrieval.load_embeddings"), "s"),
        "retrieval.build_index.s": (get("retrieval.build_index"), "s"),
        "retrieval.query_knn.calls": (knn_calls, "count"),
        "retrieval.query_knn.s": (get("retrieval.query_knn"), "s"),
        "retrieval.query_knn.p50_ms": (_pct(durations_ms("retrieval.query_knn"), 50), "ms"),
        "retrieval.query_knn.p99_ms": (_pct(durations_ms("retrieval.query_knn"), 99), "ms"),
        "retrieval.query_knn.bytes": (get("retrieval.query_knn", "bytes") / knn_calls if knn_calls else 0, "B/query"),
        "retrieval.write_embeddings.s": (get("retrieval.write_embeddings") + write_s, "s"),
        "promptkit.assemble.s": (get("promptkit.assemble"), "s"),
        "promptkit.fit_examples_to_budget.s": (get("promptkit.fit_examples_to_budget"), "s"),
        "promptkit.layout_length.calls": (get("promptkit.layout_length", "calls"), "count"),
        "promptkit.layout_length_per_prompt": (get("promptkit.layout_length", "calls") / prompts if prompts else 0, "count"),
        "promptkit.render_text.s": (get("promptkit.render_text"), "s"),
        "promptkit.layout_to_json.s": (get("promptkit.layout_to_json"), "s"),
        "promptkit.dropped_examples": (sum(r.get("dropped_examples", 0) for r in gen_rows), "count"),
        "backend.embed.calls": (get("backend.embed", "calls"), "count"),
        "backend.embed.texts": (get("backend.embed", "texts"), "count"),
        "backend.embed.s": (get("backend.embed"), "s"),
        "backend.embed.bytes": (get("backend.embed", "bytes"), "B"),
        "backend.generate.requests": (len(gen_ms), "count"),
        "backend.generate.p50_ms": (_pct(gen_ms, 50), "ms"),
        "backend.generate.p99_ms": (_pct(gen_ms, 99), "ms"),
        "backend.generate_batch.s": (batch_s, "s"),
        "backend.concurrency_util": (sum(gen_ms) / 1000 / (MAX_IN_FLIGHT * batch_s) if batch_s else 0, "ratio"),
        "backend.retries": (get("backend.http_attempt", "calls") - get("backend.generate", "calls")
                            - get("backend.embed", "calls"), "count"),
        "backend.failed": (sum(get(n, "failed") for n in gen_names), "count"),
        "backend.connections": (stats.get("connections", 0), "count"),
        "backend.requests_per_connection": (stats["attempts"] / stats["connections"]
                                            if stats.get("connections") else 0, "count"),
        "backend.in_flight_max": (stats.get("in_flight_max", 0), "count"),
        "backend.parse_completion.failures": (get("backend.parse_completion", "failed"), "count"),
        "backend.mock.s": (get("backend.mock.generate") + get("backend.mock.embed"), "s"),
        "stub.busy_s": (stats.get("busy_s", 0.0), "s"),
        "metrics.bleu_corpus.s": (get("metrics.bleu_corpus"), "s"),
        "metrics.self_bleu.s": (get("metrics.self_bleu"), "s"),
        "metrics.self_ter.s": (get("metrics.self_ter"), "s"),
        "metrics.sari.s": (get("metrics.sari"), "s"),
        "metrics.semantic.s": (get("metrics.semantic"), "s"),
        "metrics.evaluate_all.s": (get("metrics.evaluate_all"), "s"),
    }
    for stage, unit in STAGE_ITEMS.items():
        m[f"cli.{stage}.self_s"] = (get(f"cli.{stage}", "self_s"), "s")
        if stage in traced["stages"]:
            best = min(p["stages"][stage]["wall"] for p in plains)
            m[f"{stage}.{unit}_per_s"] = (traced["stages"][stage]["items"] / best, "1/s")
        else:
            m[f"{stage}.{unit}_per_s"] = (0, "1/s")
    plain_walls, traced_walls = [p["wall"] for p in plains], [p["wall"] for p in traceds]
    m["trace.overhead_s"] = (min(traced_walls) - min(plain_walls), "s")
    attempted = sum(s["items"] for p in plains + traceds for s in p["stages"].values())
    lines = [f"setup_s {setup_s:.4f} s (one set-up)",
             f"trace.overhead_s is the fastest of {wl.trace_rounds} traced passes minus the "
             f"fastest of {wl.trace_rounds} plain passes, run alternately; plain walls "
             + " ".join(f"{w:.4f}" for w in plain_walls) + " s, traced walls "
             + " ".join(f"{w:.4f}" for w in traced_walls) + " s",
             f"samples: ter {ter_calls}, query_knn {knn_calls}, generate {len(gen_ms)}; "
             f"retrieval.query_knn.bytes is computed as rows x dim x itemsize",
             f"stub: {stats.get('dropped', 0)} first attempts dropped, "
             f"{stats.get('attempts', 0)} attempts, {stats.get('response_bytes', 0)} response bytes"]
    return m, lines, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _import_program()
    from paraprompt.novelty import NoveltyClass
    from paraprompt.promptkit import DEFAULT_TEMPLATE

    inputs = corpus.load_inputs(args.workload, args.seed, CACHE_DIR)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    wl = WORKLOADS[args.workload](inputs, work, args.seed)
    try:
        wl.prepare()
        if wl.uses_stub:
            wl.stub = Stub(args.seed, DEFAULT_TEMPLATE.infix_realization(NoveltyClass.HIGH))
        if args.trace:
            metrics, lines, attempted, failed = trace_metrics(wl)
        else:
            metrics, lines, attempted, failed = measure(wl, args.seconds)
        correct = True
    except CheckFailed as err:
        print(f"check failed: {err}", file=sys.stderr)
        metrics, lines, attempted, failed, correct = {}, [], 1, 1, False
    finally:
        if wl.stub:
            wl.stub.close()
        shutil.rmtree(work, ignore_errors=True)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} correct={correct}")
    for line in lines:
        print(f"# {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
