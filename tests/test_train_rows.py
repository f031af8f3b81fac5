"""``generate`` reads the index rows' pairs through ``train_rows.jsonl``: a
cold run (no cache) does the full validation and writes the cache, a warm
run parses only the cached rows it retrieves. Outputs must not depend on
which of the two ran, and a cache whose seal does not hold is rebuilt,
never trusted and never an error."""

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
EMOJI = "\U0001f600"
# non-ASCII text, U+2028, a tab, a quote, a backslash and an emoji
UNICODE_ROWS = [
    dict(row, source=row["source"] + " caf\u00e9", target=row["target"] + f' \u2028 \t "q" \\ {EMOJI}')
    for row in ROWS
]


def _jsonl(rows, ids=True, newline="\n"):
    return "".join(
        json.dumps(row if ids else {k: v for k, v in row.items() if k != "id"}) + newline for row in rows
    ).encode("utf-8")


def _jsonl_unicode(rows):
    """Rows with their non-ASCII text raw and the emoji as a surrogate-pair escape."""
    return "".join(
        json.dumps(row, ensure_ascii=False).replace(EMOJI, "\\ud83d\\ude00") + "\n" for row in rows
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
    "unicode": ("train.jsonl", _jsonl_unicode, UNICODE_ROWS),
}

# sha256 of generations.jsonl from `index` then `generate --mode rapt --k 2`
# on each case, as written by a full load of the train file
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
    "unicode": "650f329651cb5e4779bee8d6b1d10275481f1123e43297856e1c5da248a590ae",
}


class Run:
    """One case's files, and `generate` runs on them recorded as
    (exit code, stderr, generations.jsonl bytes or None)."""

    def __init__(self, tmp_path, case, capsys):
        name, self.write, self.rows = CASES[case]
        self.train = tmp_path / name
        self.test = tmp_path / "test.jsonl"
        self.out = tmp_path / "out"
        self.cache = self.out / "train_rows.jsonl"
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
        """A run with no cache, the full load's outcome."""
        self.cache.unlink(missing_ok=True)
        return self.generate(*extra)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(params=sorted(CASES))
def case(request, tmp_path, capsys):
    return Run(tmp_path, request.param, capsys), request.param


def _record_reads(monkeypatch):
    """The paths ``load_pairs`` reads and the ids of the pairs built, as lists
    that fill while the patch holds."""
    loaded, built = [], []
    load_pairs = dataio.load_pairs

    def recording_load(path, *args):
        loaded.append(str(path))
        return load_pairs(path, *args)

    class RecordingPair(dataio.ParaphrasePair):
        def __post_init__(self):
            built.append(self.id)
            super().__post_init__()

    monkeypatch.setattr(dataio, "load_pairs", recording_load)
    monkeypatch.setattr(dataio, "ParaphrasePair", RecordingPair)
    return loaded, built


def test_cold_and_warm_runs_write_the_same_bytes(case, monkeypatch):
    run, name = case
    code, err, cold = run.cold()
    assert (code, err, _sha256(cold)) == (0, "", GENERATIONS_SHA256[name])
    cache = run.cache.read_bytes()

    loaded, built = _record_reads(monkeypatch)
    assert run.generate() == (0, "", cold)
    assert loaded == [str(run.test)]
    train_built = [pair_id for pair_id in built if pair_id not in {q["id"] for q in QUERIES}]
    assert 0 < len(train_built) <= K * len(QUERIES)
    assert run.cache.read_bytes() == cache


def test_a_warm_read_returns_the_pairs_of_a_full_load(case, monkeypatch):
    run, _ = case
    assert run.cold()[0] == 0
    ids = [row["id"] for row in dataio.read_jsonl(run.out / "embeddings.ids.jsonl", dataio.EMBEDDING_IDS)]
    by_id = {pair.id: pair for pair in dataio.load_pairs(run.train).pairs}
    # a warm read parses nothing but the cache
    monkeypatch.setattr(dataio, "load_pairs", None)
    train_sha256 = dataio.file_sha256(run.train)
    pair_of = dataio.index_pairs(run.train, train_sha256, ids, run.cache, run.out / "embeddings.bin")
    assert [pair_of(row) for row in range(len(ids))] == [by_id[pair_id] for pair_id in ids]


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


def _lines_reversed(run, data):
    """The body's rows in reverse order, each still a valid row."""
    seal, body = data.split(b"\n", 1)
    return seal + b"\n" + b"".join(reversed(body.splitlines(keepends=True)))


def _text_edited(run, data):
    """The first row's source with its first letter's case flipped: valid
    JSON, another text."""
    seal, body = data.split(b"\n", 1)
    assert body.startswith(b'["')
    return seal + b"\n" + body[:2] + body[2:3].swapcase() + body[3:]


def _foreign_version(run, data):
    """The cache as a run under another layout version writes it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "_TRAIN_ROWS_VERSION", b"paraprompt train_rows 0")
        assert run.cold()[0] == 0
    return run.cache.read_bytes()


CORRUPTIONS = {
    "truncated": lambda run, data: data[: len(data) // 2],
    "lines reversed": _lines_reversed,
    # the header is the seal line
    "garbled header": lambda run, data: data[:20] + b"zzzzzzzz" + data[28:],
    "garbled body": lambda run, data: data[:-8] + b"\xff" * 8,
    "foreign version": _foreign_version,
    "empty": lambda run, data: b"",
    "text edited in place": _text_edited,
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_a_damaged_table_is_rebuilt(case, corruption):
    run, _ = case
    cold = run.cold()
    cache = run.cache.read_bytes()
    damaged = CORRUPTIONS[corruption](run, cache)
    assert damaged != cache
    run.cache.write_bytes(damaged)
    assert run.generate() == cold
    assert run.cache.read_bytes() == cache


def test_a_changed_sidecar_rebuilds_the_table(case, monkeypatch):
    run, _ = case
    run.cold()
    cache = run.cache.read_bytes()
    ids_path = run.out / "embeddings.ids.jsonl"
    # the same ids on other rows: the vectors now stand for other pairs
    ids_path.write_text("".join(reversed(ids_path.read_text().splitlines(keepends=True))))
    reordered = run.generate()
    assert run.cache.read_bytes() != cache
    assert reordered[0] == 0 and reordered == run.cold()
    # a sidecar that spells the same ids otherwise keeps the cache
    cache = run.cache.read_bytes()
    ids_path.write_text(ids_path.read_text().replace('{"id": ', '{"id":'))
    loaded, _ = _record_reads(monkeypatch)
    assert run.generate() == reordered
    assert loaded == [str(run.test)]
    assert run.cache.read_bytes() == cache


def test_a_changed_format_reads_the_file_in_full(case):
    run, _ = case
    assert run.cold()[0] == 0
    cache = run.cache.read_bytes()
    # the same bytes under a name of the other format: the seal holds the
    # format the name implies, so the cache does not serve the new name
    run.train = run.train.rename(run.train.with_suffix(".jsonl" if run.train.suffix == ".tsv" else ".tsv"))
    stale = run.generate()
    assert stale[0] == 2 and stale[1].startswith(f"data error: {run.train}:")
    # the failed full load leaves the cache as it was
    assert run.cache.read_bytes() == cache
    assert run.generate() == stale
    run.cache.unlink()
    assert run.generate() == stale
