"""``generate`` reads the train file through ``train_rows.bin``: a cold run
(no table) does the full validation and writes the table, a warm run
parses only the lines of the rows it retrieves. Outputs must not depend
on which of the two ran, and a table that does not fit its inputs is
rebuilt, never trusted and never an error."""

import hashlib
import json

import pytest

from paraprompt import dataio
from paraprompt.cli import main

ROWS = [
    {"id": "t0", "source": "how do i learn python", "target": "how do i learn python"},
    {"id": "t1", "source": "what is the best way to learn python", "target": "which way is best for learning python"},
    {"id": "t2", "source": "why is the sky blue", "target": "what makes the sky appear blue"},
    {"id": "t3", "source": "how can i lose weight fast", "target": "what is a quick way to shed pounds"},
    {"id": "t4", "source": "where should i travel in europe", "target": "which european places are worth visiting"},
    {"id": "t5", "source": "how do i cook rice", "target": "what is the way to cook rice"},
    {"id": "t6", "source": "why do cats purr", "target": "what makes a cat purr"},
    {"id": "t7", "source": "how can i sleep better", "target": "what helps me sleep well"},
]
QUERIES = [
    {"id": "q0", "source": "how do i learn java", "target": "what is the way to learn java"},
    {"id": "q1", "source": "why is the ocean salty", "target": "what makes seawater salty"},
]
K = 2
BLANK_SOURCE = {"id": "blank", "source": "   ", "target": "nothing"}


def _jsonl(rows, ids=True, newline="\n"):
    return "".join(
        json.dumps(row if ids else {k: v for k, v in row.items() if k != "id"}) + newline for row in rows
    ).encode("utf-8")


def _tsv(rows, ids):
    return "".join(
        "\t".join(([row["id"]] if ids else []) + [row["source"], row["target"]]) + "\n" for row in rows
    ).encode("utf-8")


def _with_blank_lines(rows):
    lines = _jsonl(rows).decode("utf-8").splitlines(keepends=True)
    return ("\n" + "".join(line + ("  \n\t\n" if i % 2 else "") for i, line in enumerate(lines))).encode("utf-8")


# name -> (file name, rows -> file bytes, rows)
CASES = {
    "jsonl-ids": ("train.jsonl", _jsonl, ROWS),
    "jsonl-no-ids": ("train.jsonl", lambda rows: _jsonl(rows, ids=False), ROWS),
    "tsv-2-columns": ("train.tsv", lambda rows: _tsv(rows, ids=False), ROWS),
    "tsv-3-columns": ("train.tsv", lambda rows: _tsv(rows, ids=True), ROWS),
    "blank-lines": ("train.jsonl", _with_blank_lines, ROWS),
    "blank-source": ("train.jsonl", lambda rows: _jsonl(rows, ids=False), ROWS[:2] + [BLANK_SOURCE] + ROWS[2:]),
    "crlf": ("train.jsonl", lambda rows: _jsonl(rows, ids=False, newline="\r\n"), ROWS),
    "lone-cr": ("train.jsonl", lambda rows: _jsonl(rows, newline="\r"), ROWS),
    "bom": ("train.jsonl", lambda rows: b"\xef\xbb\xbf" + _jsonl(rows, ids=False), ROWS),
}

# sha256 of generations.jsonl from `index` then `generate --mode rapt --k 2`
# on each case, as written by the full load of the train file that every
# run made before the row table existed
GENERATIONS_SHA256 = {
    "jsonl-ids": "b9fdef432c29ac2fa642de375ed57c180ed7bf44a139e1aa363c1f52f8761df4",
    "jsonl-no-ids": "41031e751e1ab2a059d0aaf8e6f31813642f3d306f3b0747995d565d1702b4a7",
    "tsv-2-columns": "41031e751e1ab2a059d0aaf8e6f31813642f3d306f3b0747995d565d1702b4a7",
    "tsv-3-columns": "b9fdef432c29ac2fa642de375ed57c180ed7bf44a139e1aa363c1f52f8761df4",
    "blank-lines": "b9fdef432c29ac2fa642de375ed57c180ed7bf44a139e1aa363c1f52f8761df4",
    "blank-source": "f3a02b87b7aa88213dfdf51eb5f6481c027d0e4f7f74b4d2a9b65246a6110271",
    "crlf": "41031e751e1ab2a059d0aaf8e6f31813642f3d306f3b0747995d565d1702b4a7",
    "lone-cr": "b9fdef432c29ac2fa642de375ed57c180ed7bf44a139e1aa363c1f52f8761df4",
    "bom": "41031e751e1ab2a059d0aaf8e6f31813642f3d306f3b0747995d565d1702b4a7",
}


class Run:
    """One case's files, and `generate` runs on them recorded as
    (exit code, stderr, generations.jsonl bytes or None)."""

    def __init__(self, tmp_path, case, capsys):
        name, self.write, self.rows = CASES[case]
        self.train = tmp_path / name
        self.test = tmp_path / "test.jsonl"
        self.out = tmp_path / "out"
        self.table = self.out / "train_rows.bin"
        self.capsys = capsys
        self.train.write_bytes(self.write(self.rows))
        self.test.write_bytes(_jsonl(QUERIES))
        assert main(["index", "--train", str(self.train), "--out", str(self.out)]) == 0

    def generate(self, *extra):
        generations = self.out / "generations.jsonl"
        generations.unlink(missing_ok=True)
        self.capsys.readouterr()
        code = main(["generate", "--train", str(self.train), "--test", str(self.test),
                     "--out", str(self.out), "--mode", "rapt", "--k", str(K), *extra])
        return code, self.capsys.readouterr().err, generations.read_bytes() if generations.exists() else None

    def cold(self, *extra):
        """A run with no table, the full load's outcome."""
        self.table.unlink(missing_ok=True)
        return self.generate(*extra)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(params=sorted(CASES))
def case(request, tmp_path, capsys):
    return Run(tmp_path, request.param, capsys), request.param


def test_cold_and_warm_runs_write_the_same_bytes(case, monkeypatch):
    run, name = case
    code, err, cold = run.cold()
    assert (code, err, _sha256(cold)) == (0, "", GENERATIONS_SHA256[name])
    table = run.table.read_bytes()

    loaded, parsed = [], []
    load_pairs, pair_from_line = dataio.load_pairs, dataio.pair_from_line

    def recording_load(path, *args):
        loaded.append(str(path))
        return load_pairs(path, *args)

    def recording_parse(path, *args):
        if str(path) == str(run.train):
            parsed.append(args[0])
        return pair_from_line(path, *args)

    monkeypatch.setattr(dataio, "load_pairs", recording_load)
    monkeypatch.setattr(dataio, "pair_from_line", recording_parse)
    assert run.generate() == (0, "", cold)
    assert loaded == [str(run.test)]
    assert 0 < len(parsed) <= K * len(QUERIES)
    assert run.table.read_bytes() == table


def _changed_text(rows):
    return [dict(row, target=row["target"] + " indeed") for row in rows]


EDITS = {
    "changed text": lambda run: run.write(_changed_text(run.rows)),
    "malformed line": lambda run: run.write(run.rows[:3]) + b"a\tb\tc\td\n" + run.write(run.rows[3:]),
    "removed id": lambda run: run.write(run.rows[:4] + run.rows[5:]),
}


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_an_edited_train_file_is_read_in_full(case, edit):
    run, _ = case
    code, _, before = run.cold()
    assert code == 0
    run.train.write_bytes(EDITS[edit](run))
    stale = run.generate()
    assert stale == run.cold()
    if edit == "changed text":
        assert stale[0] == 0 and stale[2] != before
    else:
        assert stale[0] == 2 and stale[1].startswith("data error:") and stale[2] is None


def _lines_reversed(data, count):
    """The table with the rows' line numbers in reverse order: each in
    range, but no longer the body its header's digest names."""
    start = len(data) - 8 * count
    lines = [data[i : i + 4] for i in range(start, start + 4 * count, 4)]
    return data[:start] + b"".join(reversed(lines)) + data[start + 4 * count :]


CORRUPTIONS = {
    "truncated": lambda data, count: data[: len(data) // 2],
    "lines reversed": _lines_reversed,
    "garbled header": lambda data, count: data[:20] + bytes(8) + data[28:],
    "garbled body": lambda data, count: data[:-8] + b"\xff" * 8,
    "foreign version": lambda data, count: data[:8] + (2).to_bytes(4, "little") + data[12:],
    "empty": lambda data, count: b"",
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_a_damaged_table_is_rebuilt(case, corruption):
    run, _ = case
    cold = run.cold()
    table = run.table.read_bytes()
    count = len(dataio.RowTable.read(run.table).lines)
    run.table.write_bytes(CORRUPTIONS[corruption](table, count))
    assert run.generate() == cold
    assert run.table.read_bytes() == table


# intact tables, written with a valid body digest, whose rows are wrong
WRONG_ROWS = {
    # each row pointed at the next row's pair: in range, so the per-row id check must catch it
    "next row's line": lambda lines, positions: (lines[1:] + lines[:1], positions[1:] + positions[:1]),
    "past the last line": lambda lines, positions: ([10**6] * len(lines), positions),
    "position past the last line": lambda lines, positions: (lines, [10**6] * len(positions)),
}


@pytest.mark.parametrize("wrong", sorted(WRONG_ROWS))
def test_a_table_whose_rows_name_other_lines_is_rebuilt(case, wrong):
    run, _ = case
    cold = run.cold()
    good = dataio.RowTable.read(run.table)
    lines, positions = WRONG_ROWS[wrong](list(good.lines), list(good.positions))
    dataio.RowTable(good.data_format, good.train_sha256, good.ids_sha256, lines, positions).write(run.table)
    assert run.generate() == cold
    assert dataio.RowTable.read(run.table) == good


def test_a_changed_sidecar_rebuilds_the_table(case):
    run, _ = case
    cold = run.cold()
    ids_path = run.out / "embeddings.ids.jsonl"
    ids_path.write_text(ids_path.read_text().replace('{"id": ', '{"id":'))
    old = dataio.RowTable.read(run.table)
    assert run.generate() == cold
    new = dataio.RowTable.read(run.table)
    assert new.ids_sha256 != old.ids_sha256
    assert (new.lines, new.positions) == (old.lines, old.positions)


def test_a_changed_format_reads_the_file_in_full(case):
    run, _ = case
    assert run.cold()[0] == 0
    table = run.table.read_bytes()
    other = "jsonl" if run.train.suffix == ".tsv" else "tsv"
    # --format names the format of both files; the queries must still read
    run.test.write_bytes(_jsonl(QUERIES) if other == "jsonl" else _tsv(QUERIES, ids=True))
    stale = run.generate("--format", other)
    assert stale[0] == 2 and stale[1].startswith(f"data error: {run.train}:")
    # the failed full load leaves the table as it was, and it still fits its own format
    assert run.table.read_bytes() == table
    assert run.generate("--format", other) == stale
    run.table.unlink()
    assert run.generate("--format", other) == stale
