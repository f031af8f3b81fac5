"""The CLI contract under drawn settings, test files, config files and
mutated artifacts: each command ends with an exit code of 0, 1, 2 or 3,
and no exception escapes ``main``."""

import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from paraprompt import dataio, novelty
from paraprompt.cli import STAGES, config_keys, main
from paraprompt.dataio import DATASET, EMBEDDING_IDS, GENERATIONS

TRAIN_ROWS = [
    {"id": "t0", "source": "how do i learn python", "target": "how do i learn python"},
    {"id": "t1", "source": "why is the sky blue", "target": "what makes the sky appear blue"},
    {"id": "t2", "source": "how can i lose weight fast", "target": "what is a quick way to shed pounds"},
    {"id": "t3", "source": " ", "target": "a pair label rejects"},
]

# small ints around each setting's lower bound, one that fits a prompt,
# and sizes past a C ssize_t
SIZES = st.one_of(st.integers(-1, 6), st.sampled_from([300, 2**63, 10**21]))

SOURCES = st.sampled_from(["how do i learn java", "why is the ocean salty", "   ", "\t"])

TEST_FILES = st.lists(SOURCES, min_size=1, max_size=3)

CONFIG_VALUES = st.sampled_from(["", "  ", "nan", "inf", "-1", "0", str(2**63), str(10**21), "word"])
# no request leaves the process, and each unit of max_in_flight can start a thread
KEY_VALUES = {
    "generation_url": st.sampled_from(["", "mock:echo", "mock:shuffle?seed=3", "mock:constant?text=hi"]),
    "embedding_url": st.sampled_from(["", "mock:hash", "mock:hash?dim=3", "mock:bogus"]),
    "max_in_flight": st.integers(1, 8).map(str),
}
CONFIG_LINES = st.lists(st.sampled_from(list(config_keys())), unique=True, max_size=5).flatmap(
    lambda keys: st.tuples(*(st.tuples(st.just(key), KEY_VALUES.get(key, CONFIG_VALUES)) for key in keys))
)


def _write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


@pytest.fixture(scope="module")
def indexed(tmp_path_factory):
    """A run directory holding the label and index outputs of TRAIN_ROWS."""
    root = tmp_path_factory.mktemp("contract")
    _write_jsonl(root / "train.jsonl", TRAIN_ROWS)
    for command in ("label", "index"):
        assert main([command, "--train", str(root / "train.jsonl"), "--out", str(root / "out")]) == 0
    return root


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    mode=st.sampled_from(["rapt", "ncrapt"]),
    strategy=st.sampled_from(["knn", "random"]),
    k=SIZES, seed=SIZES, max_prompt_tokens=SIZES,
    global_prefix_len=SIZES, class_prefix_len=SIZES, infix_len=SIZES,
    test_rows=TEST_FILES,
)
def test_generate_then_eval_exits_with_a_documented_code(
    indexed, mode, strategy, k, seed, max_prompt_tokens, global_prefix_len, class_prefix_len, infix_len,
    test_rows,
):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        shutil.copytree(indexed / "out", out)
        test = Path(tmp) / "test.jsonl"
        _write_jsonl(test, [{"id": f"q{i}", "source": source, "target": "what makes seawater salty"}
                            for i, source in enumerate(test_rows)])
        generate = [
            "generate", "--train", indexed / "train.jsonl", "--test", test, "--out", out,
            "--mode", mode, "--strategy", strategy, "--k", k, "--seed", seed,
            "--max-prompt-tokens", max_prompt_tokens, "--global-prefix-len", global_prefix_len,
            "--class-prefix-len", class_prefix_len, "--infix-len", infix_len,
        ]
        assert main([str(a) for a in generate]) in (0, 1, 2, 3)
        assert main(["eval", "--test", str(test), "--out", str(out)]) in (0, 1, 2, 3)


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(lines=CONFIG_LINES)
# empty values of keys whose type has no empty value, and a threshold JSON cannot hold
@example(lines=(("out_dir", ""),))
@example(lines=(("generation_url", ""), ("embedding_url", "")))
@example(lines=(("dataset_name", ""),))
@example(lines=(("high_min", "inf"),))
def test_config_file_lines_exit_with_a_documented_code(lines):
    with tempfile.TemporaryDirectory() as tmp:
        _write_jsonl(Path(tmp) / "pairs.jsonl", TRAIN_ROWS)
        Path(tmp, "run.cfg").write_text("".join(f"{key}={value}\n" for key, value in lines), encoding="utf-8")
        cwd = os.getcwd()
        os.chdir(tmp)  # a default out_dir writes here
        try:
            label = main(["label", "--config", "run.cfg", "--train", "pairs.jsonl"])
            assert label in (0, 1, 2, 3)
            if label == 0:
                out = dict(lines).get("out_dir", "").strip() or "out"
                json.loads(Path(out, "labeled_meta.json").read_text(), parse_constant=_no_constant)
            assert main(["validate", "--config", "run.cfg", "--train", "pairs.jsonl"]) in (0, 1, 2, 3)
            for command in (["generate", "--mode", "copy"], ["eval"]):
                assert main([*command, "--config", "run.cfg", "--test", "pairs.jsonl"]) in (0, 1, 2, 3)
        finally:
            os.chdir(cwd)


GENERATE_NCRAPT = ["generate", "--mode", "ncrapt", "--train", "{train}", "--test", "{test}", "--out", "{out}"]
# The command that reads each file of the schema table
CONSUMERS = {
    DATASET: ["label", "--train", "{train}", "--out", "{out}"],
    EMBEDDING_IDS: GENERATE_NCRAPT,
    GENERATIONS: ["eval", "--test", "{test}", "--out", "{out}"],
}
# values that no field type accepts
WRONG_TYPES = st.sampled_from([True, [], {"x": 1}])


def test_every_schema_has_a_consumer():
    declared = {v for module in (dataio, novelty) for v in vars(module).values() if isinstance(v, dataio.Schema)}
    assert declared == set(CONSUMERS)


@pytest.fixture(scope="module")
def complete_run(tmp_path_factory):
    """A run directory holding every file of the schema table: the index
    and ncrapt generate outputs of TRAIN_ROWS."""
    root = tmp_path_factory.mktemp("complete")
    _write_jsonl(root / "train.jsonl", TRAIN_ROWS)
    _write_jsonl(root / "test.jsonl", [{"id": "q0", "source": "how do i learn java", "target": "learn java"},
                                       {"id": "q1", "source": "why is the ocean salty", "target": "salty sea"}])
    assert main(_argv(root, ["index", "--train", "{train}", "--out", "{out}"])) == 0
    assert main(_argv(root, GENERATE_NCRAPT)) == 0
    return root


def _argv(root, args):
    return [a.format(train=root / "train.jsonl", test=root / "test.jsonl", out=root / "out") for a in args]


def _snapshot(root):
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(schema=st.sampled_from(list(CONSUMERS)), data=st.data())
def test_a_mutated_artifact_is_a_data_error_naming_its_line(complete_run, schema, data):
    """A field set to a wrong type or null, or a required field removed, in
    one row of any file: its consumer exits 2 naming the line, and every
    file keeps its bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "run"
        shutil.copytree(complete_run, root)
        path = root / "out" / schema.name if schema.name else root / "train.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        index = data.draw(st.integers(0, len(lines) - 1), label="row")
        field = data.draw(st.sampled_from(schema.fields), label="field")
        row = json.loads(lines[index])
        change = data.draw(st.sampled_from(["wrong type", "null", "removed"] if field.required
                                           else ["wrong type", "null"]), label="change")
        if change == "removed":
            del row[field.name]
        else:
            row[field.name] = data.draw(WRONG_TYPES) if change == "wrong type" else None
        lines[index] = json.dumps(row) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        before = _snapshot(root)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(_argv(root, CONSUMERS[schema]))
        assert code == 2 and stderr.getvalue().startswith(f"data error: {path}:{index + 1}: "), stderr.getvalue()
        assert _snapshot(root) == before


@pytest.fixture(scope="module")
def small_index(tmp_path_factory):
    """A run directory holding a 4-row, 16-d index (272 bytes) and a warm
    ``train_rows.jsonl``, with the rapt ``generate`` argv that reads them."""
    root = tmp_path_factory.mktemp("small_index")
    rows = [row for row in TRAIN_ROWS if row["source"].strip()]
    _write_jsonl(root / "train.jsonl", rows + [{"id": "t4", "source": "why do cats purr", "target": "cats purr"}])
    _write_jsonl(root / "test.jsonl", [{"id": "q0", "source": "how do i learn java", "target": "learn java"}])
    assert main(_argv(root, ["index", "--train", "{train}", "--out", "{out}"])) == 0
    generate = _argv(root, ["generate", "--mode", "rapt", "--train", "{train}", "--test", "{test}", "--out", "{out}"])
    assert main(generate) == 0
    return root / "out" / "embeddings.bin", generate


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_a_damaged_embedding_file_exits_0_or_2(small_index, data):
    """One byte of ``embeddings.bin``, header or body, changed to another
    value, or the file cut short: rapt ``generate`` either runs or exits 2
    with a data error, and no exception escapes ``main``."""
    path, generate = small_index
    intact = path.read_bytes()
    assert len(intact) == 272
    at = data.draw(st.integers(0, len(intact) - 1), label="at")
    if data.draw(st.booleans(), label="truncate"):
        damaged = intact[:at]
    else:
        damaged = bytearray(intact)
        damaged[at] ^= data.draw(st.integers(1, 255), label="xor")
    stderr = io.StringIO()
    try:
        # a fresh file: truncating one in place makes ext4 flush it on close
        path.unlink()
        path.write_bytes(damaged)
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(generate)
    finally:
        path.unlink()
        path.write_bytes(intact)
    err = stderr.getvalue()
    assert (code, err) == (0, "") or code == 2 and err.startswith("data error: "), (code, err)


# A valid value, other than the default, for every config key; the paths
# are files of the run below ({root} is its input directory)
OTHER_VALUES = {
    "train_path": "{root}/other.jsonl", "validation_path": "{root}/other.jsonl",
    "test_path": "{root}/other.jsonl", "dataset_name": "qqp-50k",
    "out_dir": "{root}/work/elsewhere", "seed": "7", "mode": "manual", "k": "1", "strategy": "random",
    "query_class": "low", "global_prefix_len": "3", "class_prefix_len": "2",
    "infix_len": "2", "max_prompt_tokens": "300", "low_max": "0.1", "high_min": "0.9",
    "lowercase": "false", "unicode_normalize": "false", "punctuation_split": "false",
    "generation_url": "mock:shuffle?seed=3", "embedding_url": "mock:hash?seed=1",
    "embedding_model_name": "other-model", "timeout": "5", "max_in_flight": "2", "retry_limit": "3",
    "semantic": "false", "template_path": "{root}/q.template",
}
INPUTS = "--train {root}/train.jsonl --test {root}/test.jsonl --out {work}/out"
STAGE_ARGV = {
    "label": "label --train {root}/train.jsonl --out {work}/out",
    "index": "index --train {root}/train.jsonl --out {work}/out",
    "generate": f"generate --mode ncrapt {INPUTS}",
    "eval": "eval --test {root}/test.jsonl --out {work}/out",
    "validate": "validate --train {root}/train.jsonl --test {root}/test.jsonl",
    "pipeline": f"pipeline --mode ncrapt {INPUTS}",
}


def test_every_config_key_is_read_by_some_stage():
    assert set(OTHER_VALUES) == set(config_keys()) == frozenset().union(*(s.keys for s in STAGES.values()))
    assert set(STAGE_ARGV) == set(STAGES)


@pytest.fixture(scope="module")
def stage_run(tmp_path_factory):
    """Inputs, a run directory holding every stage's inputs (the index and
    ncrapt generate outputs of TRAIN_ROWS), and each stage's result run
    under an empty config file: (exit code, stdout, files of the run)."""
    root = tmp_path_factory.mktemp("stages")
    _write_jsonl(root / "train.jsonl", TRAIN_ROWS)
    _write_jsonl(root / "test.jsonl", [{"id": "q0", "source": "how do i learn java", "target": "learn java"},
                                       {"id": "q1", "source": "why is the ocean salty", "target": "salty sea"}])
    _write_jsonl(root / "other.jsonl", [{"id": "o0", "source": "what is love", "target": "define love"}])
    (root / "q.template").write_text("prefix=Q:\n", encoding="utf-8")
    (root / "empty.cfg").write_text("", encoding="utf-8")
    prepared = root / "prepared"
    for command in ("index", "generate"):
        assert main(_stage_argv(STAGE_ARGV[command], root, prepared)) == 0
    base = {stage: _run_stage(root, stage, root / "empty.cfg") for stage in STAGES}
    assert {code for code, _, _ in base.values()} == {0}
    return root, base


def _stage_argv(line, root, work):
    return [arg.format(root=root, work=work) for arg in line.split()]


def _run_stage(root, stage, config):
    """A stage run on a fresh copy of the prepared run directory."""
    work = root / "work"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(root / "prepared", work)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([*_stage_argv(STAGE_ARGV[stage], root, work), "--config", str(config)])
    return code, stdout.getvalue(), _snapshot(work)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_a_key_outside_a_stage_leaves_its_outputs_alone(stage_run, data):
    """A config-file key that a stage does not read, set to another valid
    value, changes nothing it writes: not its files, its snapshot
    included, and not its stdout."""
    root, base = stage_run
    stage = data.draw(st.sampled_from(list(STAGES)), label="stage")
    key = data.draw(st.sampled_from(sorted(set(config_keys()) - STAGES[stage].keys)), label="key")
    config = root / "one.cfg"
    config.write_text(f"{key}={OTHER_VALUES[key].format(root=root)}\n", encoding="utf-8")
    assert _run_stage(root, stage, config) == base[stage]
