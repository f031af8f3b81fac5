import argparse
import hashlib
import json
import os
import re
import shutil
import stat
from pathlib import Path

import numpy as np
import pytest

import exit_cases
from exit_cases import TEST_ROWS, TRAIN_ROWS, jsonl
from paraprompt import novelty
from paraprompt.cli import PIPELINE, STAGES, PipelineConfig, build_parser, main
from paraprompt.textcore import normalize


def write_jsonl(path, rows):
    path.write_text(jsonl(rows), encoding="utf-8")


@pytest.fixture
def data_dir(tmp_path):
    write_jsonl(tmp_path / "train.jsonl", TRAIN_ROWS)
    write_jsonl(tmp_path / "test.jsonl", TEST_ROWS)
    return tmp_path


def run(args):
    return main([str(a) for a in args])


ROWS = {case.name: case for case in exit_cases.CASES}
# Rows that keep the test ids they had before they joined the table: id -> row.
INVALID_SETTINGS = {flags or line: f"generate-{exit_cases.slug(flags or 'config ' + line)}"
                    for flags, line in exit_cases.INVALID_SETTINGS}
BAD_MOCK_URLS = {f"{flag}-{url}": f"pipeline-{exit_cases.slug(flag + ' ' + url)}"
                 for flag, url in exit_cases.BAD_MOCK_URLS}
BAD_PATHS = {name: name for name in ["label-train-dir", "label-config-dir", "generate-template-dir", "label-out-file",
                                     "label-out-under-file", "index-url-no-scheme", "index-url-no-host",
                                     "index-url-ftp"]}
EVAL_RULES = {kind: f"eval-{kind}" for kind in ["repeated-id", "true-id", "float-id", "number-mode", "null-mode",
                                                 "list-mode", "two-line-mode"]}
EVAL_OUTPUTS = {"None": "eval-output-null", "3": "eval-output-number", "output2": "eval-output-list"}
KEPT_IDS = [INVALID_SETTINGS, BAD_MOCK_URLS, BAD_PATHS, EVAL_RULES, EVAL_OUTPUTS]


def check_row(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    problems = exit_cases.check(ROWS[name], tmp_path, exit_cases.in_process)
    assert not problems, "; ".join(problems)


def rows(kept):
    return pytest.mark.parametrize("name", list(kept.values()), ids=list(kept))


@pytest.mark.parametrize("name", [name for name in ROWS if all(name not in kept.values() for kept in KEPT_IDS)])
def test_exit_code_contract(name, tmp_path, monkeypatch):
    check_row(name, tmp_path, monkeypatch)


@rows(INVALID_SETTINGS)
def test_invalid_setting_is_usage_error(name, tmp_path, monkeypatch):
    check_row(name, tmp_path, monkeypatch)


@rows(BAD_MOCK_URLS)
def test_bad_mock_url_is_a_usage_error_before_any_stage_writes(name, tmp_path, monkeypatch):
    check_row(name, tmp_path, monkeypatch)


@rows(BAD_PATHS)
def test_bad_path_or_unusable_url_exits_without_a_traceback(name, tmp_path, monkeypatch):
    check_row(name, tmp_path, monkeypatch)


@rows(EVAL_RULES)
def test_eval_reads_generations_under_the_dataset_rules(name, tmp_path, monkeypatch):
    check_row(name, tmp_path, monkeypatch)


@rows(EVAL_OUTPUTS)
def test_eval_refuses_an_output_that_is_not_a_string(name, tmp_path, monkeypatch):
    check_row(name, tmp_path, monkeypatch)


def test_label_writes_histogram_and_is_idempotent(data_dir, capsys):
    out = data_dir / "out"
    assert run(["label", "--train", data_dir / "train.jsonl", "--out", out]) == 0
    labeled = (out / "labeled.jsonl").read_text()
    assert len(labeled.splitlines()) == len(TRAIN_ROWS)
    meta = json.loads((out / "labeled_meta.json").read_text())
    assert sum(meta["histogram"].values()) == len(TRAIN_ROWS)
    assert meta["histogram"]["low"] >= 1  # t0 is an identity pair

    # relabeling the labeled output reproduces it byte for byte
    out2 = data_dir / "out2"
    assert run(["label", "--train", out / "labeled.jsonl", "--out", out2]) == 0
    assert (out2 / "labeled.jsonl").read_text() == labeled


def test_index_writes_embedding_file(data_dir, capsys):
    out = data_dir / "out"
    assert run(["index", "--train", data_dir / "train.jsonl", "--out", out]) == 0
    blob = (out / "embeddings.bin").read_bytes()
    assert blob.startswith(b"RAPTEMB1")
    assert "indexed 5 vectors of dim 16" in capsys.readouterr().out
    first = blob
    assert run(["index", "--train", data_dir / "train.jsonl", "--out", out]) == 0
    assert (out / "embeddings.bin").read_bytes() == first


def _generate(data_dir, out, mode, extra=()):
    args = [
        "generate", "--train", data_dir / "train.jsonl",
        "--test", data_dir / "test.jsonl", "--out", out, "--mode", mode,
    ]
    return run(args + list(extra))


def test_generate_manual_mode_needs_no_index(data_dir):
    out = data_dir / "out"
    assert run([
        "generate", "--test", data_dir / "test.jsonl", "--out", out, "--mode", "manual",
    ]) == 0
    rows = [json.loads(l) for l in (out / "generations.jsonl").read_text().splitlines()]
    assert len(rows) == len(TEST_ROWS)
    for row, src in zip(rows, TEST_ROWS):
        assert row["output"] == src["source"]  # the mock echoes the query
        assert "examples" not in row
        assert row["prompt_n"] >= 3


def test_generate_rapt_prompts_contain_two_examples(data_dir):
    out = data_dir / "out"
    assert run(["index", "--train", data_dir / "train.jsonl", "--out", out]) == 0
    assert _generate(data_dir, out, "rapt") == 0
    rows = [json.loads(line) for line in (out / "generations.jsonl").read_text().splitlines()]
    assert len(rows) == len(TEST_ROWS)
    for row in rows:
        # prompt_n covers 296 soft slots plus the text
        assert row["prompt_n"] > 296
        assert row["output"]


def test_generate_on_training_file_excludes_self(data_dir):
    out = data_dir / "out"
    assert run(["index", "--train", data_dir / "train.jsonl", "--out", out]) == 0
    # querying the training file itself: each row must not retrieve itself
    assert run([
        "generate", "--train", data_dir / "train.jsonl",
        "--test", data_dir / "train.jsonl", "--out", out, "--mode", "rapt",
    ]) == 0
    rows = [json.loads(l) for l in (out / "generations.jsonl").read_text().splitlines()]
    for row in rows:
        assert row["id"] not in row["examples"]
        assert len(row["examples"]) == 2


@pytest.mark.parametrize("test_name", ["./train.jsonl", "copy.jsonl"], ids=["same-file", "byte-identical-copy"])
def test_generate_auto_excludes_self_under_another_path_spelling(data_dir, test_name):
    out = data_dir / "out"
    shutil.copyfile(data_dir / "train.jsonl", data_dir / "copy.jsonl")
    assert run(["index", "--train", data_dir / "train.jsonl", "--out", out]) == 0
    # "./" names the same file and a copy has the same contents, so every
    # row must still skip itself
    assert run([
        "generate", "--train", data_dir / "train.jsonl",
        "--test", f"{data_dir}/{test_name}", "--out", out, "--mode", "rapt", "--k", "1",
    ]) == 0
    rows = [json.loads(l) for l in (out / "generations.jsonl").read_text().splitlines()]
    assert len(rows) == len(TRAIN_ROWS)
    for row in rows:
        assert row["examples"] and row["id"] not in row["examples"]


def test_each_stage_writes_exactly_the_files_the_stage_table_names(data_dir):
    def run_into(out, names):
        config = PipelineConfig(train_path=str(data_dir / "train.jsonl"), test_path=str(data_dir / "test.jsonl"),
                                out_dir=str(out), mode="ncrapt")
        for name in names:
            before = set(os.listdir(out)) if out.exists() else set()
            assert STAGES[name].run(config) == 0
            assert set(os.listdir(out)) - before == set(STAGES[name].writes), name

    run_into(data_dir / "staged", PIPELINE)
    run_into(data_dir / "piped", ["pipeline"])


@pytest.mark.parametrize("mode", ["copy", "manual"])
def test_generate_without_retrieval_writes_some_of_its_files(data_dir, mode):
    out = data_dir / "out"
    assert _generate(data_dir, out, mode) == 0
    assert set(os.listdir(out)) <= set(STAGES["generate"].writes)


# A run-directory file that one stage writes and another reads -> the reader
READERS = {
    "embeddings.ids.jsonl": ["generate", "--mode", "rapt"],
    "embeddings.bin": ["generate", "--mode", "rapt"],
    "generations.jsonl": ["eval"],
}


@pytest.mark.parametrize("name", READERS)
def test_a_missing_artifact_names_the_stage_that_writes_it(data_dir, capsys, name):
    train, test, out = data_dir / "train.jsonl", data_dir / "test.jsonl", data_dir / "out"
    assert run(["pipeline", "--train", train, "--test", test, "--out", out, "--mode", "rapt"]) == 0
    (out / name).unlink()
    capsys.readouterr()
    train_flag = ["--train", train] if READERS[name][0] == "generate" else []
    assert run([*READERS[name], *train_flag, "--test", test, "--out", out]) == 2
    (writer,) = [stage for stage in PIPELINE if name in STAGES[stage].writes]
    assert capsys.readouterr().err == f"data error: {out / name}: missing; run the {writer} command first\n"


def test_the_readme_names_the_writer_of_each_file_as_the_stage_table_does():
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    for name in [*PIPELINE, "validate"]:
        (cells,) = re.findall(rf"^\| `{name}` \| (.*) \|$", text, re.MULTILINE)
        assert re.findall(r"`([^`]+)`", cells) == list(STAGES[name].writes), name
    # the "Written by" column of the schema table
    written_by = re.findall(r"^\| `([\w.]+)` \| `(\w+)` \|", text, re.MULTILINE)
    assert written_by == [("embeddings.ids.jsonl", "index"), ("generations.jsonl", "generate")]
    assert all(name in STAGES[writer].writes for name, writer in written_by)


def test_index_rejects_out_of_range_embedding_as_backend_error(data_dir, capsys, monkeypatch):
    from paraprompt.backend import requests as requests_lib

    reply = json.dumps({"vectors": [[1e39, 0.0]] * len(TRAIN_ROWS)}).encode()
    monkeypatch.setattr(requests_lib, "post", lambda *args, **kwargs: (200, reply))
    out = data_dir / "out"
    assert run([
        "index", "--train", data_dir / "train.jsonl", "--out", out,
        "--embedding-url", "http://embed.invalid/embed",
    ]) == 3
    assert "float32 range" in capsys.readouterr().err
    assert not (out / "embeddings.bin").exists()


def test_generate_rejects_non_finite_embedding_as_data_error(data_dir, capsys):
    from paraprompt import retrieval

    out = data_dir / "out"
    assert run(["index", "--train", data_dir / "train.jsonl", "--out", out]) == 0
    ids, matrix = retrieval.load_embeddings_binary(out / "embeddings.bin", out / "embeddings.ids.jsonl")
    rows = matrix.copy()
    rows[2, 3] = float("nan")
    retrieval.write_embeddings_binary(out / "embeddings.bin", out / "embeddings.ids.jsonl",
                                      list(zip(ids, rows)))
    capsys.readouterr()
    assert _generate(data_dir, out, "rapt") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert "id 't2': vector is not finite" in err


def test_generate_index_shares_memory_with_the_loaded_file(data_dir, monkeypatch):
    from paraprompt import cli, retrieval

    returned = {}

    def recording(name, fn):
        def wrapper(*args):
            returned[name] = fn(*args)
            return returned[name]
        return wrapper

    monkeypatch.setattr(retrieval, "load_embeddings_binary",
                        recording("loaded", retrieval.load_embeddings_binary))
    monkeypatch.setattr(cli, "_load_index", recording("index", cli._load_index))
    out = data_dir / "out"
    assert run(["index", "--train", data_dir / "train.jsonl", "--out", out]) == 0
    assert _generate(data_dir, out, "rapt") == 0
    _, matrix = returned["loaded"]
    index, _ = returned["index"]
    assert np.shares_memory(index._matrix, matrix)


def test_generate_rapt_creates_records_only_for_hits(data_dir, monkeypatch):
    from paraprompt import retrieval

    made = []
    record = retrieval.ExampleRecord

    def counting(**fields):
        made.append(fields["id"])
        return record(**fields)

    monkeypatch.setattr(retrieval, "ExampleRecord", counting)
    out = data_dir / "out"
    assert run(["index", "--train", data_dir / "train.jsonl", "--out", out]) == 0
    assert _generate(data_dir, out, "rapt", ["--k", "2"]) == 0
    assert 0 < len(made) <= 2 * len(TEST_ROWS)


def test_generate_on_test_file_keeps_id_collisions(data_dir):
    # distinct files may reuse ids; self-exclusion must not drop train rows
    # that merely share an id with the query
    colliding = [dict(r, id=f"t{i}") for i, r in enumerate(TEST_ROWS)]
    write_jsonl(data_dir / "test_colliding.jsonl", colliding)
    out = data_dir / "out"
    assert run(["index", "--train", data_dir / "train.jsonl", "--out", out]) == 0
    assert run([
        "generate", "--train", data_dir / "train.jsonl",
        "--test", data_dir / "test_colliding.jsonl", "--out", out, "--mode", "rapt",
    ]) == 0
    rows = [json.loads(l) for l in (out / "generations.jsonl").read_text().splitlines()]
    retrieved = {rid for row in rows for rid in row["examples"]}
    # nothing stops t0/t1 from appearing: exclusion was off for a foreign file
    assert all(len(row["examples"]) == 2 for row in rows)
    assert retrieved <= {r["id"] for r in TRAIN_ROWS}


def test_generate_ncrapt_uses_query_class(data_dir):
    out = data_dir / "out"
    assert run(["label", "--train", data_dir / "train.jsonl", "--out", out]) == 0
    assert run(["index", "--train", data_dir / "train.jsonl", "--out", out]) == 0
    assert _generate(data_dir, out, "ncrapt", ["--query-class", "high"]) == 0
    rows = [json.loads(line) for line in (out / "generations.jsonl").read_text().splitlines()]
    assert all(r["output"] for r in rows)


def test_every_generation_row_carries_the_mode(data_dir):
    # an error row first: eval labels its report with the first row's mode
    test = data_dir / "test_blank.jsonl"
    write_jsonl(test, [{"id": "blank", "source": "   ", "target": "x"}] + TEST_ROWS)
    out = data_dir / "out"
    for command in ("label", "index"):
        assert run([command, "--train", data_dir / "train.jsonl", "--out", out]) == 0
    assert run([
        "generate", "--train", data_dir / "train.jsonl", "--test", test, "--out", out,
        "--mode", "ncrapt",
    ]) == 0
    rows = [json.loads(line) for line in (out / "generations.jsonl").read_text().splitlines()]
    assert rows[0] == {"id": "blank", "prompt_n": 0, "mode": "ncrapt", "output": "",
                       "error": "empty source after normalization"}
    assert [row["mode"] for row in rows] == ["ncrapt"] * 3
    assert run(["eval", "--test", test, "--out", out]) == 0
    assert (out / "report.csv").read_text().splitlines()[1].startswith("ncrapt,")


def test_generate_copy_and_eval_pattern(data_dir, capsys):
    out = data_dir / "out"
    assert _generate(data_dir, out, "copy") == 0
    assert run(["eval", "--test", data_dir / "test.jsonl", "--out", out]) == 0
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "Method,BERT,Self-TER,Self-BLEU,BLEU,iBLEU,SARI"
    cells = report[1].split(",")
    assert cells[0] == "copy"
    assert cells[1] == "100.00"  # BERT
    assert cells[2] == "0.00"    # Self-TER
    assert cells[3] == "100.00"  # Self-BLEU


def test_generate_ground_truth_bleu_100(data_dir):
    out = data_dir / "out"
    assert _generate(data_dir, out, "ground-truth") == 0
    assert run(["eval", "--test", data_dir / "test.jsonl", "--out", out]) == 0
    cells = (out / "report.csv").read_text().splitlines()[1].split(",")
    assert cells[4] == "100.00"  # BLEU


def test_random_strategy_deterministic_under_seed(data_dir):
    out_a = data_dir / "ra"
    out_b = data_dir / "rb"
    for out in (out_a, out_b):
        assert run(["index", "--train", data_dir / "train.jsonl", "--out", out]) == 0
        assert _generate(
            data_dir, out, "rapt", ["--strategy", "random", "--seed", 21]
        ) == 0
    assert (out_a / "generations.jsonl").read_bytes() == (out_b / "generations.jsonl").read_bytes()


def test_pipeline_deterministic_across_runs(data_dir):
    out_a = data_dir / "a"
    out_b = data_dir / "b"
    for out in (out_a, out_b):
        assert run([
            "pipeline", "--train", data_dir / "train.jsonl",
            "--test", data_dir / "test.jsonl", "--out", out,
            "--mode", "rapt", "--seed", 7,
        ]) == 0
    for name in ("labeled.jsonl", "generations.jsonl", "report.csv", "report.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_params_prints_published_table(capsys):
    assert run(["params"]) == 0
    out = capsys.readouterr().out
    assert "354,823,168" in out and "774,030,080" in out
    assert "1,089,536" in out and "1,853,440" in out
    # equal rows
    lines = [l for l in out.splitlines() if l.startswith(("LPT", "RAPT"))]
    assert lines[0].split()[1:] == lines[1].split()[1:]


def test_params_custom_shape(capsys):
    assert run(["params", "--layers", "6", "--width", "512"]) == 0
    out = capsys.readouterr().out
    assert "custom-L6-d512" in out


def test_validate_reports_sizes(data_dir, capsys):
    assert run([
        "validate", "--train", data_dir / "train.jsonl",
        "--dataset-name", "qqp-50k",
    ]) == 0
    out = capsys.readouterr().out
    assert "expected 46000, got 5 [MISMATCH]" in out


@pytest.mark.parametrize("command, key, default", [
    ("label", "out_dir", "out"),
    ("generate", "generation_url", "mock:echo"),
    ("index", "embedding_url", "mock:hash"),
    ("label", "low_max", "0.2"),
    ("validate", "dataset_name", "custom"),
])
def test_empty_config_value_leaves_the_default(data_dir, monkeypatch, capsys, command, key, default):
    monkeypatch.chdir(data_dir)
    config = data_dir / "run.conf"
    config.write_text(f"{key}=\n", encoding="utf-8")
    # manual generate reads generation_url and needs no index
    extra = ["--test", data_dir / "test.jsonl", "--mode", "manual"] if command == "generate" else []
    assert run([command, "--config", config, "--train", data_dir / "train.jsonl", *extra]) == 0
    if command == "validate":
        assert capsys.readouterr().out.startswith(f"dataset: {default} ")
    else:
        snapshot = (data_dir / "out" / f"resolved_config_{command}.txt").read_text().splitlines()
        assert f"{key}={default}" in snapshot


def test_a_snapshot_read_back_as_config_writes_the_same_snapshot(data_dir):
    out = data_dir / "out"
    assert _generate(data_dir, out, "copy") == 0
    snapshot = (out / "resolved_config_generate.txt").read_text()
    config = data_dir / "snapshot.conf"
    config.write_text(snapshot, encoding="utf-8")
    assert run(["generate", "--config", config]) == 0
    assert (out / "resolved_config_generate.txt").read_text() == snapshot


def test_zero_norm_query_vector_is_a_data_error(data_dir, capsys, monkeypatch):
    from paraprompt.backend import MockBackend

    out = data_dir / "out"
    assert run(["index", "--train", data_dir / "train.jsonl", "--out", out]) == 0
    embed = MockBackend.embed
    monkeypatch.setattr(MockBackend, "embed", lambda self, texts: np.array([
        vector * 0.0 if text == TEST_ROWS[1]["source"] else vector
        for text, vector in zip(texts, embed(self, texts))
    ]))
    capsys.readouterr()
    assert _generate(data_dir, out, "rapt") == 2
    assert capsys.readouterr().err == (
        f"data error: {data_dir / 'test.jsonl'}: query id 'q1': zero-norm vector\n"
    )
    assert not (out / "generations.jsonl").exists()


def test_index_refuses_a_vector_that_is_zero_in_float32(data_dir, capsys, monkeypatch):
    # 1e-46 is not 0 in float64 but rounds to 0 in the float32 file, which
    # generate would refuse; index refuses it first and writes no file
    from paraprompt.backend import MockBackend

    embed = MockBackend.embed
    monkeypatch.setattr(MockBackend, "embed", lambda self, texts: np.array([
        np.full_like(vector, 1e-46) if text == TRAIN_ROWS[1]["source"] else vector
        for text, vector in zip(texts, embed(self, texts))
    ]))
    out = data_dir / "out"
    assert run(["index", "--train", data_dir / "train.jsonl", "--out", out]) == 2
    assert capsys.readouterr().err == "data error: id 't1': zero-norm vector\n"
    assert not (out / "embeddings.bin").exists()


@pytest.mark.parametrize("mode", ["rapt", "ncrapt"])
def test_generate_retrieval_mode_on_empty_test_file(data_dir, capsys, mode):
    out = data_dir / "out"
    for command in ("label", "index"):
        assert run([command, "--train", data_dir / "train.jsonl", "--out", out]) == 0
    empty = data_dir / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert run([
        "generate", "--train", data_dir / "train.jsonl",
        "--test", empty, "--out", out, "--mode", mode,
    ]) == 0
    assert (out / "generations.jsonl").read_text() == ""
    assert "wrote 0 generations" in capsys.readouterr().out


def test_url_flags_are_the_urls_that_run(data_dir, monkeypatch):
    # no environment variable outranks a flag or leaves the snapshot wrong
    out = data_dir / "out"
    assert run(["index", "--train", data_dir / "train.jsonl", "--out", out]) == 0
    monkeypatch.setenv("PARAPROMPT_GENERATION_URL", "mock:constant?text=hi")
    monkeypatch.setenv("PARAPROMPT_EMBEDDING_URL", "mock:hash?dim=8")
    assert _generate(data_dir, out, "rapt", ["--generation-url", "mock:echo"]) == 0
    rows = [json.loads(line) for line in (out / "generations.jsonl").read_text().splitlines()]
    assert [row["output"] for row in rows] == [r["source"] for r in TEST_ROWS]
    snapshot = (out / "resolved_config_generate.txt").read_text().splitlines()
    assert {"generation_url=mock:echo", "embedding_url=mock:hash"} <= set(snapshot)


def test_template_file_is_parsed_once_per_run(data_dir, monkeypatch):
    from paraprompt import promptkit

    calls = []
    load = promptkit.load_template
    monkeypatch.setattr(promptkit, "load_template", lambda path: calls.append(path) or load(path))
    template = data_dir / "q.template"
    template.write_text("prefix=Q:\n", encoding="utf-8")
    assert _generate(data_dir, data_dir / "out", "manual", ["--template", template]) == 0
    assert calls == [str(template)]


def test_a_completion_that_repeats_an_infix_without_a_newline_is_read_whole(data_dir):
    # the completion's first line is the output, whatever it holds
    template = data_dir / "so.template"
    template.write_text("infix= so\n", encoding="utf-8")
    out = data_dir / "out"
    assert _generate(data_dir, out, "manual", [
        "--template", template, "--generation-url", "mock:constant?text=x+so+y%0Az",
    ]) == 0
    rows = [json.loads(line) for line in (out / "generations.jsonl").read_text().splitlines()]
    assert [row["output"] for row in rows] == ["x so y"] * len(TEST_ROWS)


# sha256 of the JSON bodies that generate posts to an HTTP generation
# service on the fixture above, one line per request in request-id order
HTTP_PAYLOAD_DIGESTS = [
    (["--mode", "manual"], "074f2803d52efe068013d765d01d7919d8c25b48f3a2ad38c2aa3e7a3b37e167"),
    (["--mode", "rapt"], "b0a01f9540d9d46b6578b5e7429b6b318e35f08d4e7acb85b70615b92edede95"),
    (["--mode", "ncrapt", "--query-class", "low"],
     "2bacd26960fc96c5b2adae3ef3ff18f63e6d107caf7f20abcb2580362b59200f"),
]


@pytest.mark.parametrize(
    "flags, digest", HTTP_PAYLOAD_DIGESTS, ids=[" ".join(flags) for flags, _ in HTTP_PAYLOAD_DIGESTS]
)
def test_http_generate_payloads_keep_their_bytes(data_dir, monkeypatch, flags, digest):
    from paraprompt.backend import requests as requests_lib

    sent = []
    reply = b'{"text": " x y", "token_count": 2}'
    monkeypatch.setattr(requests_lib, "post", lambda url, json, timeout: sent.append(json) or (200, reply))
    out = data_dir / "out"
    if flags[1] != "manual":
        assert run(["label", "--train", data_dir / "train.jsonl", "--out", out]) == 0
        assert run(["index", "--train", data_dir / "train.jsonl", "--out", out]) == 0
    assert _generate(data_dir, out, flags[1], [
        *flags[2:], "--generation-url", "http://gen.invalid/generate",
    ]) == 0
    body = "".join(json.dumps(p) + "\n" for p in sorted(sent, key=lambda p: p["request_id"]))
    assert len(sent) == len(TEST_ROWS)
    assert hashlib.sha256(body.encode()).hexdigest() == digest


def test_prompt_over_budget_without_examples_is_an_error_row(data_dir, monkeypatch):
    from paraprompt.backend import MockBackend

    sent = []
    generate = MockBackend.generate
    monkeypatch.setattr(
        MockBackend, "generate", lambda self, request: sent.append(request) or generate(self, request)
    )
    out = data_dir / "out"
    assert run(["index", "--train", data_dir / "train.jsonl", "--out", out]) == 0
    # the 248-slot global prefix alone exceeds the budget
    assert _generate(data_dir, out, "rapt", ["--max-prompt-tokens", "100"]) == 0
    rows = [json.loads(line) for line in (out / "generations.jsonl").read_text().splitlines()]
    assert sent == []
    assert [row["id"] for row in rows] == [r["id"] for r in TEST_ROWS]
    for row in rows:
        assert row["output"] == ""
        assert row["mode"] == "rapt"
        assert row["prompt_n"] > 248
        assert row["error"] == f"prompt of {row['prompt_n']} tokens exceeds max_prompt_tokens 100"


def test_eval_with_every_prediction_empty_leaves_bert_blank(data_dir):
    out = data_dir / "out"
    # the bare manual prompt exceeds 3 tokens, so every output is empty
    assert run([
        "pipeline", "--train", data_dir / "train.jsonl", "--test", data_dir / "test.jsonl",
        "--out", out, "--mode", "manual", "--max-prompt-tokens", "3",
    ]) == 0
    header, row = (out / "report.csv").read_text().splitlines()
    assert header == "Method,BERT,Self-TER,Self-BLEU,BLEU,iBLEU,SARI"
    cells = row.split(",")
    assert cells[1] == "" and all(cells[2:]) and len(cells) == 7
    assert f"'bert_excluded': {len(TEST_ROWS)}" in (out / "report.txt").read_text()


@pytest.mark.parametrize("mode, flags", [
    ("copy", []), ("copy", ["--no-semantic"]), ("manual", []),
])
def test_eval_with_no_scorable_source_leaves_self_ter_blank(data_dir, mode, flags):
    test = data_dir / "test_blank.jsonl"
    write_jsonl(test, [
        {"id": "a", "source": "   ", "target": "hello there"},
        {"id": "b", "source": "\t", "target": "why not"},
    ])
    out = data_dir / "out"
    assert run(["generate", "--test", test, "--out", out, "--mode", mode]) == 0
    assert run(["eval", "--test", test, "--out", out, *flags]) == 0
    cells = (out / "report.csv").read_text().splitlines()[1].split(",")
    assert cells[2] == ""
    assert "'self_ter_skipped': 2" in (out / "report.txt").read_text()


def test_eval_embeds_sources_and_outputs_in_one_request(data_dir, monkeypatch):
    from paraprompt.backend import requests as requests_lib

    sent = []

    dumps = json.dumps

    def post(url, json, timeout):
        sent.append(json["texts"])
        # each request's vectors are one component longer than the last's
        vectors = [[1.0] * (len(sent) + 1)] * len(json["texts"])
        return 200, dumps({"vectors": vectors}).encode()

    monkeypatch.setattr(requests_lib, "post", post)
    out = data_dir / "out"
    assert _generate(data_dir, out, "copy") == 0
    assert run(["eval", "--test", data_dir / "test.jsonl", "--out", out,
                "--embedding-url", "http://e.invalid/embed"]) == 0
    sources = [row["source"] for row in TEST_ROWS]
    assert sent == [sources + sources]


@pytest.mark.parametrize("mode, flag", [("rapt", "--global-prefix-len"), ("ncrapt", "--infix-len")])
def test_a_slot_length_beyond_a_c_size_is_an_over_budget_row(data_dir, mode, flag):
    out = data_dir / "out"
    for command in ("label", "index"):
        assert run([command, "--train", data_dir / "train.jsonl", "--out", out]) == 0
    assert _generate(data_dir, out, mode, [flag, 10**21]) == 0
    rows = [json.loads(line) for line in (out / "generations.jsonl").read_text().splitlines()]
    assert [row["id"] for row in rows] == [r["id"] for r in TEST_ROWS]
    for row in rows:
        assert row["prompt_n"] > 10**21
        assert row["error"] == f"prompt of {row['prompt_n']} tokens exceeds max_prompt_tokens 924"


def test_ncrapt_never_retrieves_a_train_pair_without_a_class(data_dir, capsys):
    # label rejects the blank source and index leaves it out
    train = data_dir / "train_blank.jsonl"
    write_jsonl(train, TRAIN_ROWS[:4] + [{"id": "blank", "source": "   "}])
    out = data_dir / "out"
    for command in ("label", "index"):
        assert run([command, "--train", train, "--out", out]) == 0
    assert "rejected: 1" in capsys.readouterr().out
    assert run([
        "generate", "--train", train, "--test", data_dir / "test.jsonl", "--out", out,
        "--mode", "ncrapt", "--k", "5",
    ]) == 0
    rows = [json.loads(line) for line in (out / "generations.jsonl").read_text().splitlines()]
    assert [row["id"] for row in rows] == [r["id"] for r in TEST_ROWS]
    for row in rows:
        assert sorted(row["examples"]) == ["t0", "t1", "t2", "t3"]


def _ncrapt_layouts(data_dir, monkeypatch, out, extra=()):
    """The layouts an ncrapt generate at --k 5 sends to an HTTP generation service."""
    from paraprompt.backend import requests as requests_lib

    sent = []
    reply = b'{"text": " x y", "token_count": 2}'
    monkeypatch.setattr(requests_lib, "post", lambda url, json, timeout: sent.append(json) or (200, reply))
    assert _generate(data_dir, out, "ncrapt", [
        "--k", 5, "--generation-url", "http://gen.invalid/generate", *extra,
    ]) == 0
    return [payload["layout"] for payload in sent]


def _ncrapt_example_classes(data_dir, monkeypatch, out, extra=()):
    """{example id: class} over those layouts: the class of the span each
    example's class prefix cites (the query's comes last)."""
    classes = {}
    for layout in _ncrapt_layouts(data_dir, monkeypatch, out, extra):
        cited = [seg["class"] for seg in layout["segments"] if seg["kind"] == "class_prefix"]
        assert len(cited) == len(layout["examples"]) + 1
        for example, cls in zip(layout["examples"], cited):
            assert classes.setdefault(example["id"], cls) == cls
    return classes


def _labeled_classes(out):
    return {row["id"]: row["class"] for row in map(json.loads, (out / "labeled.jsonl").read_text().splitlines())}


def test_ncrapt_classes_ignore_labels_of_another_train_file(data_dir, monkeypatch):
    out = data_dir / "out"
    for command in ("label", "index"):
        assert run([command, "--train", data_dir / "train.jsonl", "--out", out]) == 0
    own = _labeled_classes(out)
    assert set(own.values()) == {"low", "high"}
    assert _ncrapt_example_classes(data_dir, monkeypatch, out) == own
    # labels rebuilt from a file with the same ids, every pair a copy
    copies = data_dir / "copies.jsonl"
    write_jsonl(copies, [{**row, "target": row["source"]} for row in TRAIN_ROWS])
    assert run(["label", "--train", copies, "--out", out]) == 0
    assert set(_labeled_classes(out).values()) == {"low"}
    assert _ncrapt_example_classes(data_dir, monkeypatch, out) == own


def test_ncrapt_classes_follow_the_generate_thresholds(data_dir, monkeypatch):
    out = data_dir / "out"
    for command in ("label", "index"):
        assert run([command, "--train", data_dir / "train.jsonl", "--out", out]) == 0
    thresholds = novelty.NoveltyThresholds(high_min=0.9)
    want = {
        row["id"]: novelty.classify(novelty.ter(normalize(row["target"]), normalize(row["source"])), thresholds).label
        for row in TRAIN_ROWS
    }
    assert want != _labeled_classes(out)
    assert _ncrapt_example_classes(data_dir, monkeypatch, out, ["--high-min", 0.9]) == want


def test_ncrapt_request_layout_names_each_example_class(data_dir, monkeypatch):
    # a low example's class is the IntEnum 0, which must not read as no class
    out = data_dir / "out"
    for command in ("label", "index"):
        assert run([command, "--train", data_dir / "train.jsonl", "--out", out]) == 0
    named = {
        example["id"]: example["class"]
        for layout in _ncrapt_layouts(data_dir, monkeypatch, out) for example in layout["examples"]
    }
    assert named == _labeled_classes(out)
    assert "low" in named.values()


def test_ncrapt_needs_no_labels(data_dir):
    labeled, unlabeled = data_dir / "labeled", data_dir / "unlabeled"
    for command in ("label", "index"):
        assert run([command, "--train", data_dir / "train.jsonl", "--out", labeled]) == 0
    assert run(["index", "--train", data_dir / "train.jsonl", "--out", unlabeled]) == 0
    for out in (labeled, unlabeled):
        assert _generate(data_dir, out, "ncrapt") == 0
    assert not (unlabeled / "labeled.jsonl").exists()
    assert (unlabeled / "generations.jsonl").read_bytes() == (labeled / "generations.jsonl").read_bytes()


def test_pipeline_artifacts_get_the_umask_mode(data_dir):
    out = data_dir / "out"
    old = os.umask(0o027)
    try:
        assert run([
            "pipeline", "--train", data_dir / "train.jsonl", "--test", data_dir / "test.jsonl",
            "--out", out, "--mode", "ncrapt",
        ]) == 0
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
    assert len(modes) == 12
    assert modes == dict.fromkeys(modes, 0o640)


def test_rapt_never_retrieves_a_train_pair_with_a_blank_source(data_dir, capsys):
    train = data_dir / "train_blank.jsonl"
    write_jsonl(train, TRAIN_ROWS[:4] + [{"id": "blank", "source": "   "}])
    out = data_dir / "out"
    assert run(["index", "--train", train, "--out", out]) == 0
    summary = capsys.readouterr().out
    assert "indexed 4 vectors of dim 16" in summary and "skipped 1 blank source" in summary
    assert run([
        "generate", "--train", train, "--test", data_dir / "test.jsonl", "--out", out,
        "--mode", "rapt", "--k", "5",
    ]) == 0
    rows = [json.loads(line) for line in (out / "generations.jsonl").read_text().splitlines()]
    assert [row["id"] for row in rows] == [r["id"] for r in TEST_ROWS]
    for row in rows:
        assert sorted(row["examples"]) == ["t0", "t1", "t2", "t3"]


BLANK_FIRST_ROWS = [{"id": "blank", "source": " \t", "target": "x"}] + TEST_ROWS


def test_a_blank_query_is_not_embedded(data_dir, monkeypatch):
    from paraprompt.backend import MockBackend

    embedded = []
    embed = MockBackend.embed
    monkeypatch.setattr(MockBackend, "embed", lambda self, texts: embedded.append(list(texts)) or embed(self, texts))
    test = data_dir / "test_blank.jsonl"
    write_jsonl(test, BLANK_FIRST_ROWS)
    out = data_dir / "out"
    assert run(["index", "--train", data_dir / "train.jsonl", "--out", out]) == 0
    embedded.clear()
    assert run([
        "generate", "--train", data_dir / "train.jsonl", "--test", test, "--out", out, "--mode", "rapt",
    ]) == 0
    assert embedded == [[r["source"] for r in TEST_ROWS]]


def test_random_strategy_seeds_each_query_by_its_position_in_the_test_file(data_dir):
    # the blank row keeps its position: q0 draws with seed 5 + 1, q1 with 5 + 2
    test = data_dir / "test_blank.jsonl"
    write_jsonl(test, BLANK_FIRST_ROWS)
    out = data_dir / "out"
    assert run(["index", "--train", data_dir / "train.jsonl", "--out", out]) == 0
    assert run([
        "generate", "--train", data_dir / "train.jsonl", "--test", test, "--out", out,
        "--mode", "rapt", "--strategy", "random", "--seed", "5",
    ]) == 0
    assert hashlib.sha256((out / "generations.jsonl").read_bytes()).hexdigest() == (
        "c50af5366719688784cb04ee18a699613f1638d5a869b00d053e948591cea3d7"
    )


# Every subcommand's flags, written out: (option strings, dest, type, choices,
# action class). A flag that is renamed, retyped or moved between
# subcommands fails here.
_STORE, _BOOL = "_StoreAction", "BooleanOptionalAction"
# each config key's flag
_KEY_FLAGS = {flag[1]: flag for flag in [
    (("--train",), "train_path", None, None, _STORE),
    (("--validation",), "validation_path", None, None, _STORE),
    (("--test",), "test_path", None, None, _STORE),
    (("--dataset-name",), "dataset_name", None, None, _STORE),
    (("--out",), "out_dir", None, None, _STORE),
    (("--seed",), "seed", int, None, _STORE),
    (("--mode",), "mode", None, ("manual", "rapt", "ncrapt", "copy", "ground-truth"), _STORE),
    (("--k",), "k", int, None, _STORE),
    (("--strategy",), "strategy", None, ("knn", "random"), _STORE),
    (("--query-class",), "query_class", None, ("low", "medium", "high"), _STORE),
    (("--global-prefix-len",), "global_prefix_len", int, None, _STORE),
    (("--class-prefix-len",), "class_prefix_len", int, None, _STORE),
    (("--infix-len",), "infix_len", int, None, _STORE),
    (("--max-prompt-tokens",), "max_prompt_tokens", int, None, _STORE),
    (("--low-max",), "low_max", float, None, _STORE),
    (("--high-min",), "high_min", float, None, _STORE),
    (("--normalization-lowercase", "--no-normalization-lowercase"),
     "lowercase", None, None, _BOOL),
    (("--normalization-unicode-normalize", "--no-normalization-unicode-normalize"),
     "unicode_normalize", None, None, _BOOL),
    (("--normalization-punctuation-split", "--no-normalization-punctuation-split"),
     "punctuation_split", None, None, _BOOL),
    (("--generation-url",), "generation_url", None, None, _STORE),
    (("--embedding-url",), "embedding_url", None, None, _STORE),
    (("--embedding-model",), "embedding_model_name", None, None, _STORE),
    (("--timeout",), "timeout", float, None, _STORE),
    (("--max-in-flight",), "max_in_flight", int, None, _STORE),
    (("--retry-limit",), "retry_limit", int, None, _STORE),
    (("--semantic", "--no-semantic"), "semantic", None, None, _BOOL),
    (("--template",), "template_path", None, None, _STORE),
]}


def _flags(keys):
    """--config plus the flags of the space-separated config keys."""
    return {(("--config",), "config", None, None, _STORE)} | {_KEY_FLAGS[key] for key in keys.split()}


_NORMALIZATION = "lowercase unicode_normalize punctuation_split"
_EMBEDDING = "embedding_url embedding_model_name timeout retry_limit"
_GENERATE = (
    "train_path test_path out_dir seed mode k strategy query_class "
    f"global_prefix_len class_prefix_len infix_len max_prompt_tokens low_max high_min {_NORMALIZATION} "
    f"generation_url {_EMBEDDING} max_in_flight template_path"
)
FLAG_CONTRACT = {
    "label": _flags(f"train_path out_dir low_max high_min {_NORMALIZATION}"),
    "index": _flags(f"train_path out_dir {_EMBEDDING}"),
    "generate": _flags(_GENERATE),
    "eval": _flags(f"test_path out_dir mode {_NORMALIZATION} semantic {_EMBEDDING}"),
    "validate": _flags("train_path validation_path test_path dataset_name"),
    "pipeline": _flags(f"{_GENERATE} semantic"),
    "params": {
        (("--shape",), "shape", None, ("gpt2-large", "gpt2-medium"), "_AppendAction"),
        (("--layers",), "layers", int, None, _STORE),
        (("--width",), "width", int, None, _STORE),
        (("--out",), "out", None, None, _STORE),
    },
}


def test_every_subcommand_keeps_its_flags():
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert set(subparsers.choices) == set(FLAG_CONTRACT)
    for command, parser in subparsers.choices.items():
        flags = {
            (tuple(a.option_strings), a.dest, a.type,
             None if a.choices is None else tuple(a.choices), type(a).__name__)
            for a in parser._actions if not isinstance(a, argparse._HelpAction)
        }
        assert flags == FLAG_CONTRACT[command], command


# sha256 of every artifact of `pipeline` on the fixture above; label and
# index do not depend on the mode, and run only in rapt and ncrapt
_SHARED_DIGESTS = {
    "labeled.jsonl": "e282a90b9da6de513a94847e0d8e026b07368ad3bcfd8eaf4e3941413271b08d",
    "labeled_meta.json": "e93a7001bbfa517e6c9c488d3d393d3db5937c1f0d5db0d1a67f2abd161bc39b",
    "embeddings.bin": "8dcf0b5e9f18a7cdfd7b6b001e049a798e1b44598fdd67de934ff4c6c98ab472",
    "embeddings.ids.jsonl": "bebb9da4ada90102838cd50dd3969a0105f7633f616db7b7013783e88cbb1eeb",
}
GOLDEN_RUNS = [
    (["--mode", "rapt"], {
        "generations.jsonl": "31ed549f0664b191b6cc0d58952733ab0bcde328179855026c35a8912a4afb47",
        "report.txt": "745ae2dbcd2206c75170f10640540aa3d34cefdc7198d2804a2a6ca51e551e98",
        "report.csv": "2f5dd053ce20a0b1b4388524edac171f9b6eb96adfe23e96b428883f06028d3f",
    }),
    (["--mode", "ncrapt", "--query-class", "low"], {
        "generations.jsonl": "6181a1b9579bb060bf9266cfb0dbea9fd8de4e15c8a4e0c9388cd72d4fecfb96",
        "report.txt": "aafe505fcda79ed414bbc3498eb1e0da23d8b13d23619a739e7c05e1710fb8cc",
        "report.csv": "b2b531e6ad9aa55c4f56255165ead5c130ac6dca2aae30134a924a7251094f5e",
    }),
    (["--mode", "manual"], {
        "generations.jsonl": "0094ce339a4f240af119e5e1b28a252c3437e2c76f4fd5a627d9866418b04c8e",
        "report.txt": "60a9e7f0468449f3d5d360eaf6ea2db39cc09630c380ec6ea1c8a2b25f9884b6",
        "report.csv": "6f26e3ccf7fb0012e17f44a50865b1c59a16c3dafc26311dcaba540e22e05612",
    }),
    (["--mode", "rapt", "--strategy", "random", "--seed", "5"], {
        "generations.jsonl": "70e09f593c5a5a87e90173d9c45bf20260969f508897c6b25c5f3fd60923a3cb",
        "report.txt": "745ae2dbcd2206c75170f10640540aa3d34cefdc7198d2804a2a6ca51e551e98",
        "report.csv": "2f5dd053ce20a0b1b4388524edac171f9b6eb96adfe23e96b428883f06028d3f",
    }),
    (["--mode", "ncrapt", "--k", "4", "--generation-url", "mock:shuffle?seed=3"], {
        "generations.jsonl": "29173765a22a4076ea8f850dd1fdfaa72a8c4af9e6cbe380b431bf12554c1064",
        "report.txt": "9e572a62b3741e5c39b8cc8871af46c9c16366062756b6e488c4af8af1432300",
        "report.csv": "7bf245722f0092a361747813f0b204d05d23ee302126771c2181a26aaeda431c",
    }),
]


@pytest.mark.parametrize(
    "flags, digests", GOLDEN_RUNS, ids=[" ".join(flags) for flags, _ in GOLDEN_RUNS]
)
def test_pipeline_outputs_keep_their_bytes(data_dir, capsys, flags, digests):
    out = data_dir / "out"
    assert run([
        "pipeline", "--train", data_dir / "train.jsonl",
        "--test", data_dir / "test.jsonl", "--out", out, *flags,
    ]) == 0
    retrieval = flags[flags.index("--mode") + 1] in ("rapt", "ncrapt")
    shared = _SHARED_DIGESTS if retrieval else {}
    found = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in {**shared, **digests}
    }
    assert found == {**shared, **digests}
    assert [name for name in _SHARED_DIGESTS if (out / name).exists()] == list(shared)
