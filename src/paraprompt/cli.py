"""Pipeline command line: label -> index -> generate -> eval, plus params.

Batch and non-interactive. Every command is deterministic given the
config, the seed, and the mock backend, and each stage that writes files
writes beside them a snapshot of the config keys it read, so results can
be reproduced.

Exit codes: 0 success, 1 usage error, 2 data error, 3 backend error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from . import backend as backend_mod
from . import dataio, novelty, paramcount, promptkit
from .metrics import EvalRecord, evaluate_all, report_csv, report_text
from .textcore import NormalizationConfig, TokenSeq, normalize, render

if TYPE_CHECKING:
    from . import retrieval

# Allowed values of the enumerated run settings, read by both the argparse
# choices and PipelineConfig's validation.
CHOICES = {
    "mode": dataio.GENERATION_MODES,
    "strategy": ("knn", "random"),
    "query_class": tuple(c.label for c in novelty.NoveltyClass),
}

# GPT2 context is 1024; keep n + decode margin inside it by default.
DEFAULT_MAX_PROMPT_TOKENS = 1024 - promptkit.DECODE_MARGIN


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


@dataclass(frozen=True)
class PipelineConfig:
    """Run fields plus the typed sub-configs, which own their own fields,
    defaults and checks. Config keys are the run fields and the
    sub-configs' fields, flattened in declaration order."""

    train_path: str | None = None
    validation_path: str | None = None
    test_path: str | None = None
    dataset_name: str = "custom"
    out_dir: str = "out"
    seed: int = 0
    mode: str = "rapt"
    k: int = 2
    strategy: str = "knn"
    query_class: str = "high"
    slots: promptkit.SlotSpec = field(default_factory=promptkit.SlotSpec)
    max_prompt_tokens: int = DEFAULT_MAX_PROMPT_TOKENS
    thresholds: novelty.NoveltyThresholds = field(default_factory=novelty.NoveltyThresholds)
    normalization: NormalizationConfig = field(default_factory=NormalizationConfig)
    backend: backend_mod.BackendConfig = field(default_factory=backend_mod.BackendConfig)
    semantic: bool = True
    template_path: str | None = None

    def __post_init__(self) -> None:
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.max_prompt_tokens < 1:
            raise ValueError(f"max_prompt_tokens must be >= 1, got {self.max_prompt_tokens}")
        self.template  # a template file that does not parse fails before any stage runs

    @functools.cached_property
    def template(self) -> promptkit.TextTemplate:
        if self.template_path:
            return promptkit.load_template(self.template_path)
        return promptkit.DEFAULT_TEMPLATE


def config_keys() -> dict[str, tuple[str | None, str]]:
    """Config key -> (name of the sub-config field holding it, or None for
    a run field; the key's declared type), in snapshot order."""
    keys: dict[str, tuple[str | None, str]] = {}
    for f in dataclasses.fields(PipelineConfig):
        if dataclasses.is_dataclass(f.default_factory):
            for sub in dataclasses.fields(f.default_factory):
                keys[sub.name] = (f.name, sub.type)
        else:
            keys[f.name] = (None, f.type)
    return keys


_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_PARSERS = {"bool": lambda value: _BOOL_VALUES[value.lower()], "int": int, "float": float}


def load_config_file(path: str | Path) -> dict:
    """key=value config lines; # starts a comment, values are typed by field,
    and an empty value leaves its key at the default."""
    values = {key: value.strip() for _, key, value in dataio.key_values(path, UsageError)}
    keys = config_keys()
    typed: dict = {}
    for key, value in values.items():
        if key not in keys:
            raise UsageError(f"{path}: unknown config key {key!r}")
        if not value:
            continue
        ftype = keys[key][1]
        try:
            typed[key] = _PARSERS.get(ftype, str)(value)
        except (KeyError, ValueError):
            raise UsageError(f"{path}: bad {ftype} for {key}: {value!r}") from None
    return typed


def write_config_snapshot(config: PipelineConfig, out_dir: Path, command: str) -> None:
    lines = [f"# resolved config for: {command}"]
    for key, (section, _) in config_keys().items():
        if key in STAGES[command].keys:
            value = getattr(getattr(config, section) if section else config, key)
            lines.append(f"{key}={'' if value is None else value}")
    dataio.atomic_write_text(out_dir / f"resolved_config_{command}.txt", "\n".join(lines) + "\n")


def _require(config: PipelineConfig, attr: str, flag: str) -> str:
    value = getattr(config, attr)
    if not value:
        raise UsageError(f"{flag} is required for this command")
    return value


def cmd_label(config: PipelineConfig) -> int:
    """Label the training pairs with TER-based novelty classes."""
    train_path = _require(config, "train_path", "--train")
    out_dir = Path(config.out_dir)
    split = dataio.load_pairs(train_path)
    rows, meta = novelty.label_dataset(split.pairs, config.normalization, config.thresholds)
    labeled_path = out_dir / novelty.LABELED_FILE
    dataio.write_jsonl(labeled_path, (dict(zip(novelty.LABELED_FIELDS, row)) for row in rows))
    dataio.atomic_write_text(out_dir / "labeled_meta.json", json.dumps(meta, indent=2) + "\n")
    write_config_snapshot(config, out_dir, "label")
    print(f"labeled {len(rows)} pairs -> {labeled_path}")
    print(f"histogram: {meta['histogram']} (rejected: {meta['rejected']})")
    return 0


def cmd_index(config: PipelineConfig) -> int:
    """Embed training sources and write the binary embedding file + sidecar."""
    # retrieval (and numpy) load only in the stages that use them
    from . import retrieval
    train_path = _require(config, "train_path", "--train")
    out_dir = Path(config.out_dir)
    split = dataio.load_pairs(train_path)
    # a blank source, which normalizes to nothing under every setting and
    # which label rejects, is no example
    pairs = [p for p in split.pairs if p.source.strip()]
    if not pairs:
        raise dataio.DataFormatError(train_path, None, "no pairs to index")
    embedder = backend_mod.make_embedding_backend(config.backend)
    # float32 as the file stores them, so index refuses what generate would
    vectors = backend_mod.embed_all(embedder, [p.source for p in pairs], "float32")
    index = retrieval.RetrievalIndex([p.id for p in pairs], vectors, pairs.__getitem__)
    emb_path = out_dir / retrieval.EMBEDDING_FILE
    entries = [(p.id, vector) for p, vector in zip(pairs, vectors)]
    retrieval.write_embeddings_binary(emb_path, out_dir / dataio.EMBEDDING_IDS.name, entries)
    write_config_snapshot(config, out_dir, "index")
    skipped = len(split.pairs) - len(pairs)
    print(f"indexed {len(index)} vectors of dim {index.dim} -> {emb_path}"
          + (f" (skipped {skipped} blank sources)" if skipped else ""))
    return 0


def _load_index(config: PipelineConfig) -> tuple[retrieval.RetrievalIndex, bytes]:
    """The index over ``embeddings.bin``, its pairs read from the train file
    through ``train_rows.jsonl`` (``dataio.index_pairs``), and that file's sha256."""
    from . import retrieval
    train_path = _require(config, "train_path", "--train")
    out_dir = Path(config.out_dir)
    emb_path = out_dir / retrieval.EMBEDDING_FILE
    ids, matrix = retrieval.load_embeddings_binary(emb_path, out_dir / dataio.EMBEDDING_IDS.name)
    if not ids:  # index refuses to write such a file
        raise _artifact_error(config, emb_path, "holds no vectors")
    train_sha256 = dataio.file_sha256(train_path)
    pair_of = dataio.index_pairs(train_path, train_sha256, ids, out_dir / "train_rows.jsonl", emb_path)
    return retrieval.RetrievalIndex(ids, matrix, pair_of), train_sha256


def _retrieve(
    config: PipelineConfig, queries: Sequence[tuple[int, dataio.ParaphrasePair, TokenSeq]]
) -> list[list[promptkit.PromptExample]]:
    """Each query's examples in ascending similarity, in ncrapt each with
    the novelty class of its pair under ``config``'s normalization and
    thresholds. A query is a test pair's (position in the test file, pair,
    normalized source); the source is never empty, and the position seeds
    the random strategy."""
    import numpy as np
    from . import retrieval
    index, train_sha256 = _load_index(config)
    if not queries:
        return []
    embedder = backend_mod.make_embedding_backend(config.backend)
    vectors = backend_mod.embed_all(embedder, [pair.source for _, pair, _ in queries])
    if len(vectors[0]) != index.dim:
        raise dataio.DataFormatError(
            Path(config.out_dir) / retrieval.EMBEDDING_FILE, None,
            f"index dimension {index.dim} != query dimension {len(vectors[0])}; "
            "index and generate need the same embedding backend",
        )
    # a query from the train file itself, under any path or as a copy,
    # never retrieves its own row
    exclude_self = dataio.file_sha256(config.test_path) == train_sha256
    excludes = [{pair.id} if exclude_self else set() for _, pair, _ in queries]
    # a query vector without a direction cannot be ranked against the index
    zero = next((pair.id for (_, pair, _), v in zip(queries, vectors) if not np.linalg.norm(v)), None)
    if zero is not None:
        raise dataio.DataFormatError(config.test_path, None, f"query id {zero!r}: zero-norm vector")
    if config.strategy == "random":
        found = [
            retrieval.query_random(index, vector, config.k, exclude, seed=config.seed + position)
            for (position, _, _), vector, exclude in zip(queries, vectors, excludes)
        ]
    else:
        found = retrieval.query_knn_batch(index, vectors, config.k, excludes)
    # each distinct row is normalized, and in ncrapt classified, once
    texts: dict[str, tuple[TokenSeq, TokenSeq, novelty.NoveltyClass | None]] = {}

    def example(record: retrieval.ExampleRecord, sim: float) -> promptkit.PromptExample:
        if record.id not in texts:
            source = normalize(record.pair.source, config.normalization)
            if not source:  # index leaves such a pair out; --train is another file
                raise dataio.DataFormatError(config.train_path, None, f"index id {record.id!r}: source "
                                             "normalizes to nothing; run the index command on this file")
            target = normalize(record.pair.target, config.normalization)
            texts[record.id] = source, target, (
                novelty.classify(novelty.ter(target, source), config.thresholds)
                if config.mode == "ncrapt" else None
            )
        source, target, novelty_class = texts[record.id]
        return promptkit.PromptExample(source, target, sim, novelty_class, record.id)

    return [[example(record, sim) for record, sim in reversed(hits)] for hits in found]


def _generate_rows(config: PipelineConfig, pairs: Sequence[dataio.ParaphrasePair]) -> list[dict]:
    """Plan one prompt per query, send those within budget, parse the replies.
    A pair whose source normalizes to nothing becomes an error row, not a query."""
    template = config.template
    gen_backend = backend_mod.make_generation_backend(config.backend)
    query_class = novelty.NoveltyClass.from_label(config.query_class)
    assemble = {
        "manual": lambda x, examples: promptkit.assemble_manual(x, template),
        "rapt": lambda x, examples: promptkit.assemble_rapt(x, examples, config.slots),
        "ncrapt": lambda x, examples: promptkit.assemble_ncrapt(
            x, examples, query_class, config.slots
        ),
    }[config.mode]
    rows = [{"id": pair.id, "prompt_n": 0, "mode": config.mode} for pair in pairs]
    queries = []
    for position, pair in enumerate(pairs):
        x = normalize(pair.source, config.normalization)
        if x:
            queries.append((position, pair, x))
        else:
            rows[position].update(output="", error="empty source after normalization")
    retrieved = itertools.repeat(()) if config.mode == "manual" else _retrieve(config, queries)
    pending: list[tuple[dict, backend_mod.GenerationRequest, int]] = []
    for (position, pair, x), examples in zip(queries, retrieved):
        row = rows[position]
        layout, row["prompt_n"], dropped = promptkit.fit_examples_to_budget(
            lambda kept: assemble(x, kept), examples, promptkit.count_tokens,
            config.max_prompt_tokens,
        )
        if row["prompt_n"] > config.max_prompt_tokens:
            row.update(output="", error=f"prompt of {row['prompt_n']} tokens exceeds "
                       f"max_prompt_tokens {config.max_prompt_tokens}")
            continue
        if config.mode != "manual":
            # soft slot spans have no canonical text; the prompt crossed
            # the wire through the template's stand-in strings
            row.update(discrete_render=True, examples=[e.id for e in layout.examples])
        request = backend_mod.GenerationRequest(
            prompt=promptkit.render_text(layout, template),
            layout_json=promptkit.layout_to_json(layout),
            request_id=pair.id,
        )
        pending.append((row, request, dropped))

    completions = backend_mod.generate_batch(
        gen_backend, [request for _, request, _ in pending],
        max_in_flight=config.backend.max_in_flight,
    )
    for (row, _, dropped), completion in zip(pending, completions):
        try:
            row["output"] = render(backend_mod.parse_completion(completion, config.normalization))
        except backend_mod.CompletionParseError as err:
            row.update(output="", error=str(err))
        if dropped:
            row["dropped_examples"] = dropped
    return rows


def cmd_generate(config: PipelineConfig) -> int:
    """Assemble prompts for the test inputs and collect completions."""
    test_path = _require(config, "test_path", "--test")
    out_dir = Path(config.out_dir)
    gen_path = out_dir / dataio.GENERATIONS.name
    pairs = dataio.load_pairs(test_path, "test").pairs
    if config.mode in ("copy", "ground-truth"):
        rows = [
            {"id": pair.id, "prompt_n": 0,
             "output": pair.source if config.mode == "copy" else pair.target, "mode": config.mode}
            for pair in pairs
        ]
        summary = f"wrote {len(rows)} {config.mode} pseudo-generations"
    else:
        rows = _generate_rows(config, pairs)
        summary = f"wrote {len(rows)} generations ({config.mode}) -> {gen_path}"
    dataio.write_jsonl(gen_path, rows)
    write_config_snapshot(config, out_dir, "generate")
    print(summary)
    return 0


def cmd_eval(config: PipelineConfig) -> int:
    """Score generations against the test split's ground truths."""
    test_path = _require(config, "test_path", "--test")
    out_dir = Path(config.out_dir)
    cfg_norm = config.normalization
    gen_path = out_dir / dataio.GENERATIONS.name
    split = dataio.load_pairs(test_path, "test")
    generations = list(dataio.read_jsonl(gen_path, dataio.GENERATIONS))
    by_id = {p.id: p for p in split.pairs}

    records: list[EvalRecord] = []
    texts: list[tuple[str, str]] = []
    skipped_no_reference = 0
    for row in generations:
        pair = by_id.get(row["id"])
        if pair is None:
            raise dataio.DataFormatError(gen_path, None, f"generation id {row['id']!r} not present in {test_path}")
        if not pair.target:
            skipped_no_reference += 1
            continue
        records.append(
            EvalRecord(
                source=normalize(pair.source, cfg_norm),
                prediction=normalize(row["output"], cfg_norm),
                references=(normalize(pair.target, cfg_norm),),
            )
        )
        texts.append((pair.source, row["output"]))
    if not records:
        raise dataio.DataFormatError(gen_path, None, "nothing to evaluate")

    vector_pairs = None
    if config.semantic:
        embedder = backend_mod.make_embedding_backend(config.backend)
        # Sources, then the non-empty predictions; an empty prediction has no meaningful
        # embedding, so an all-zero vector stands in and the metric excludes and tallies it.
        vectors = backend_mod.embed_all(embedder, [s for s, _ in texts] + [p for _, p in texts if p])
        embedded = iter(vectors[len(texts):])
        zero = vectors[0] * 0.0
        vector_pairs = [(v, next(embedded) if pred else zero) for v, (_, pred) in zip(vectors, texts)]

    report = evaluate_all(records, vector_pairs, cfg_norm)
    if skipped_no_reference:
        report.diagnostics["missing_reference_skipped"] = skipped_no_reference
    label = generations[0].get("mode", config.mode)
    text = report_text(report, label=label)
    dataio.atomic_write_text(out_dir / "report.txt", text)
    dataio.atomic_write_text(out_dir / "report.csv", report_csv(report, label=label))
    write_config_snapshot(config, out_dir, "eval")
    print(text, end="")
    return 0


def cmd_params(args: argparse.Namespace) -> int:
    """Print the trainable-parameter table for the chosen model shapes."""
    shapes = [paramcount.GPT2_MEDIUM, paramcount.GPT2_LARGE]
    if args.shape:  # argparse admits only preset names
        shapes = [paramcount.PRESETS[name] for name in args.shape]
    if args.layers is not None or args.width is not None:
        if args.layers is None or args.width is None:
            raise UsageError("--layers and --width must be given together")
        if args.shape:
            raise UsageError("--shape cannot be combined with --layers and --width")
        try:
            shapes = [paramcount.ModelShape(f"custom-L{args.layers}-d{args.width}", args.layers, args.width)]
        except ValueError as err:
            raise UsageError(str(err)) from None
    table = paramcount.report_table(shapes)
    print(table.render_text(), end="")
    if args.out:
        out_dir = Path(args.out)
        dataio.atomic_write_text(out_dir / "params.txt", table.render_text())
        dataio.atomic_write_text(out_dir / "params.csv", table.render_csv())
    return 0


def cmd_validate(config: PipelineConfig) -> int:
    """Check loaded split sizes against the published table."""
    paths = {"train": config.train_path, "validation": config.validation_path, "test": config.test_path}
    splits = [dataio.load_pairs(path, name) for name, path in paths.items() if path]
    if not splits:
        raise UsageError("give at least one of --train/--validation/--test")
    print(dataio.validate_split_sizes(splits, config.dataset_name), end="")
    return 0


def cmd_pipeline(config: PipelineConfig) -> int:
    """The stages of ``PIPELINE`` in order; label and index run only in the
    retrieval modes, whose generate reads ``embeddings.bin``. No generate
    reads ``labeled.jsonl``; a rapt or ncrapt run still labels, since its
    labels are one of the artifacts the acceptance suite holds byte-identical."""
    for name in PIPELINE if config.mode in ("rapt", "ncrapt") else PIPELINE[2:]:
        STAGES[name].run(config)
    return 0


def _keys(*names: str) -> frozenset[str]:
    """The config keys named directly or through their sub-config."""
    return frozenset(key for key, (section, _) in config_keys().items() if key in names or section in names)


# A data subcommand's runner, the config keys it reads (its flags, besides
# --config, and its snapshot's lines) and the run-directory files it may
# write. A config file may hold any key; a stage ignores the ones outside its set.
Stage = NamedTuple("Stage", [("run", Callable[[PipelineConfig], int]), ("keys", frozenset[str]),
                             ("writes", tuple[str, ...])])
_EMBEDDING = ("embedding_url", "embedding_model_name", "timeout", "retry_limit")
STAGES = {
    "label": Stage(cmd_label, _keys("train_path", "out_dir", "normalization", "thresholds"),
                   ("labeled.jsonl", "labeled_meta.json", "resolved_config_label.txt")),
    "index": Stage(cmd_index, _keys("train_path", "out_dir", *_EMBEDDING),
                   ("embeddings.bin", "embeddings.ids.jsonl", "resolved_config_index.txt")),
    "generate": Stage(cmd_generate, _keys(
        "train_path", "test_path", "out_dir", "normalization", "seed", "mode", "k", "strategy",
        "query_class", "slots", "max_prompt_tokens", "thresholds", "backend", "template_path"),
        ("generations.jsonl", "train_rows.jsonl", "resolved_config_generate.txt")),
    "eval": Stage(cmd_eval, _keys("test_path", "out_dir", "normalization", "mode", "semantic", *_EMBEDDING),
                  ("report.txt", "report.csv", "resolved_config_eval.txt")),
    "validate": Stage(cmd_validate, _keys("train_path", "validation_path", "test_path", "dataset_name"), ()),
}
# pipeline runs these in this order, and reads and writes what they do
PIPELINE = ("label", "index", "generate", "eval")
STAGES["pipeline"] = Stage(cmd_pipeline, frozenset().union(*(STAGES[name].keys for name in PIPELINE)),
                           sum((STAGES[name].writes for name in PIPELINE), ()))


def _artifact_error(config: PipelineConfig, path: str | Path, problem: str) -> dataio.DataFormatError | None:
    """``problem`` with ``path``, naming the stage that writes it, if it is
    a file that a stage writes into ``config``'s run directory; else None."""
    path = Path(path)
    for name in PIPELINE if path.parent == Path(config.out_dir) else ():
        if path.name in STAGES[name].writes:
            return dataio.DataFormatError(path, None, f"{problem}; run the {name} command first")


# A key's flag is "--" + the key with dashes for underscores, after a
# "normalization-" prefix for the normalization keys; these are named otherwise
_FLAG_NAMES = {
    "train_path": "train",
    "validation_path": "validation",
    "test_path": "test",
    "out_dir": "out",
    "embedding_model_name": "embedding-model",
    "template_path": "template",
}


def build_parser() -> _Parser:
    parser = _Parser(prog="paraprompt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    keys = config_keys()
    for name, stage in STAGES.items():
        p = sub.add_parser(name)
        p.add_argument("--config")
        for key, (section, ftype) in keys.items():
            if key not in stage.keys:
                continue
            flag = _FLAG_NAMES.get(key, key.replace("_", "-"))
            if section == "normalization":
                flag = f"normalization-{flag}"
            if ftype == "bool":
                p.add_argument(f"--{flag}", dest=key, action=argparse.BooleanOptionalAction)
            else:
                p.add_argument(f"--{flag}", dest=key, type=_PARSERS.get(ftype), choices=CHOICES.get(key))

    params = sub.add_parser("params")
    params.add_argument("--shape", action="append", choices=sorted(paramcount.PRESETS))
    params.add_argument("--layers", type=int)
    params.add_argument("--width", type=int)
    params.add_argument("--out")
    return parser


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """Config-file values, overridden by flags, built and validated once."""
    values: dict = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    keys = config_keys()
    values.update((k, v) for k, v in vars(args).items() if k in keys and v is not None)
    run = {key: value for key, value in values.items() if keys[key][0] is None}
    try:
        for f in dataclasses.fields(PipelineConfig):
            if dataclasses.is_dataclass(f.default_factory):
                section = {key: value for key, value in values.items() if keys[key][0] == f.name}
                run[f.name] = f.default_factory(**section)
        return PipelineConfig(**run)
    except (TypeError, ValueError) as err:
        raise UsageError(str(err)) from err


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    config = None
    try:
        args = parser.parse_args(argv)
        if args.command == "params":
            return cmd_params(args)
        return STAGES[args.command].run(config := resolve_config(args))
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (dataio.DataFormatError, dataio.IndexBuildError, OSError) as err:
        # an OSError names its path: a missing file (and the stage that
        # writes it), a directory given for a file, an output under a regular file
        if isinstance(err, FileNotFoundError) and config and err.filename:
            err = _artifact_error(config, err.filename, "missing") or err
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except backend_mod.BackendError as err:
        print(f"backend error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
