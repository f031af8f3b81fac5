import json
import os
import random
import re
import stat
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import load_jsonl_objects_per_line, load_pairs_per_line, load_tsv_per_line, write_pairs_per_row
from paraprompt import dataio, novelty
from paraprompt.dataio import (
    DATASET,
    EMBEDDING_IDS,
    GENERATIONS,
    DataFormatError,
    DatasetSplit,
    ParaphrasePair,
    Schema,
    atomic_write,
    key_values,
    load_pairs,
    read_jsonl,
    validate_split_sizes,
    write_jsonl,
    write_pairs,
)

# The schema table by test id; test_the_table_lists_every_schema keeps it whole
TABLE = {"pairs": DATASET, "ids": EMBEDDING_IDS, "generations": GENERATIONS}
# One row that every schema accepts
ROW = {"id": "a", "source": "s", "target": "t", "output": "o", "mode": "rapt"}


def _ids(path):
    return [row["id"] for row in read_jsonl(path, EMBEDDING_IDS)]


def test_pair_requires_source():
    with pytest.raises(ValueError):
        ParaphrasePair(id="0", source="", target="x")


def test_load_tsv_three_rows(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("a\tb\nc\td\ne\tf\n", encoding="utf-8")
    split = load_pairs(path)
    assert len(split) == 3
    assert split.pairs[0] == ParaphrasePair(id="0", source="a", target="b")


def test_load_tsv_with_ids(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("p1\thello there\tgoodbye\n", encoding="utf-8")
    split = load_pairs(path)
    assert split.pairs[0].id == "p1"


def test_load_tsv_wrong_column_count(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("a\tb\nonly-one-column\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=r":2: expected 2 or 3"):
        load_pairs(path)


def test_load_jsonl_auto_ids(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text(
        '{"source": "a", "target": "b"}\n{"source": "c", "target": "d"}\n',
        encoding="utf-8",
    )
    split = load_pairs(path)
    assert [p.id for p in split.pairs] == ["0", "1"]


def test_load_jsonl_malformed_line_numbered(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text('{"source": "a"}\nnot json\n', encoding="utf-8")
    with pytest.raises(DataFormatError, match=r":2: invalid JSON"):
        load_pairs(path)


def test_load_jsonl_duplicate_ids(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text(
        '{"id": "x", "source": "a"}\n{"id": "x", "source": "b"}\n', encoding="utf-8"
    )
    with pytest.raises(DataFormatError, match="duplicate id"):
        load_pairs(path)


_BAD_ID = '"id" must be a string or an integer'
_BAD_SOURCE = '"source" must be a string'
_BAD_TARGET = '"target" must be a string'


@pytest.mark.parametrize(
    "row, message",
    [
        pytest.param('{"id": null, "source": "a", "target": "b"}', _BAD_ID, id="null-id"),
        pytest.param('{"id": true, "source": "a"}', _BAD_ID, id="bool-id"),
        pytest.param('{"id": 1.5, "source": "a"}', _BAD_ID, id="float-id"),
        pytest.param('{"id": ["x"], "source": "a"}', _BAD_ID, id="list-id"),
        pytest.param('{"id": "x", "source": null, "target": null}', _BAD_SOURCE, id="null-source"),
        pytest.param('{"source": ["a", "b"], "target": {"x": 1}}', _BAD_SOURCE, id="list-source"),
        pytest.param('{"source": true}', _BAD_SOURCE, id="bool-source"),
        pytest.param('{"source": 3}', _BAD_SOURCE, id="int-source"),
        pytest.param('{"source": "a", "target": null}', _BAD_TARGET, id="null-target"),
        pytest.param('{"source": "a", "target": {"x": 1}}', _BAD_TARGET, id="dict-target"),
        pytest.param('{"source": "a", "target": false}', _BAD_TARGET, id="bool-target"),
    ],
)
def test_load_jsonl_rejects_non_string_fields(tmp_path, row, message):
    path = tmp_path / "pairs.jsonl"
    path.write_text('{"id": "ok", "source": "a"}\n' + row + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=r":2: " + message):
        load_pairs(path)


def test_load_jsonl_integer_ids_and_absent_target(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text('{"id": 7, "source": "a"}\n{"id": -3, "source": "b", "target": "c"}\n',
                    encoding="utf-8")
    assert load_pairs(path).pairs == [ParaphrasePair("7", "a", ""), ParaphrasePair("-3", "b", "c")]


def test_id_file_follows_the_pair_id_rule(tmp_path):
    path = tmp_path / "ids.jsonl"
    path.write_text('{"id": "a"}\n\n{"id": 12}\n', encoding="utf-8")
    assert _ids(path) == ["a", "12"]
    path.write_text('{"id": "a"}\n\n{"id": null}\n', encoding="utf-8")
    with pytest.raises(DataFormatError, match=":3: " + _BAD_ID):
        _ids(path)


# Line bodies for the differential reader test: pair objects (with raw
# U+2028/U+0085 and NaN/Infinity among their values) and lines json.loads
# rejects. The spliced pair is one value split across two lines.
_SPLICED = ['{"id": "a", "source": "s"}, {"id": "b", "source": "t", "x": [{}', "{}]}"]
_BROKEN = [
    "not json", '{"source": "a"', '{"source": "a"} x', '{"source": "a"}}', "[1, 2]",
    '"text"', "3", "null", '{"source": "abc\t', '{"source": "a\x01"}', '{"source" "a"}',
    '{"source": "a",}', '{"source": "\\q"}', "{'source': 'a'}",
]
# (before, after) a line body: JSON whitespace (the first six), other
# Unicode whitespace, and a byte-order mark in mid-file
_WRAPS = [
    ("", ""), ("", ""), ("", ""), (" ", " "), ("\t", ""), ("", " \t"), ("\xa0", ""),
    ("", "\xa0"), ("\u3000", "\u3000"), ("\x0b", ""), ("", "\x0c"), ("\x1f", ""),
    ("\ufeff", ""), (" \ufeff", ""), ("\xa0\ufeff", ""), ("\u2028", ""),
]
_BLANKS = ["", " ", "\t", "\xa0", "\u2028", " \u3000 ", "\x85"]


def _pair_object(rng: random.Random) -> str:
    fields = []
    if rng.random() < 0.7:
        fields.append('"id": ' + rng.choice(['"a"', '"b"', '"\u00e9"', "7", '"7"', '"x\u2028y"', '"q\\"z"']))
    fields.append('"source": ' + rng.choice(['"s"', '""', '"caf\u00e9"', '"a\u2028b"', '"a\x85b"',
                                              '"tab\\tbed"', '"\u2029"', '"say \\"hi\\""']))
    if rng.random() < 0.6:
        fields.append('"target": ' + rng.choice(['"t"', '""', '"l\u00edne\u0085"']))
    if rng.random() < 0.3:
        fields.append(rng.choice(['"score": NaN', '"w": Infinity', '"n": -Infinity', '"x": [1, {"y": null}]']))
    rng.shuffle(fields)
    return "{" + ", ".join(fields) + "}"


def _jsonl_case(rng: random.Random) -> bytes:
    bodies: list[str] = []
    count = rng.randint(1, 6)
    # a third of the files hold only blank lines and pair objects wrapped
    # in JSON whitespace, so that duplicate ids and empty sources show
    clean = rng.random() < 1 / 3
    while len(bodies) < count:
        roll = rng.random() * (0.7 if clean else 1.0)
        if roll < 0.55:
            before, after = rng.choice(_WRAPS[:6] if clean else _WRAPS)
            bodies.append(before + _pair_object(rng) + after)
        elif roll < 0.7:
            bodies.append(rng.choice(_BLANKS))
        elif roll < 0.8:
            bodies.extend(_SPLICED)
        else:
            before, after = rng.choice(_WRAPS)
            bodies.append(before + rng.choice(_BROKEN) + after)
    text = "".join(body + rng.choice(["\n", "\n", "\r\n", "\r"]) for body in bodies)
    if rng.random() < 0.2:
        text = text.rstrip("\r\n")
    data = text.encode("utf-8")
    return b"\xef\xbb\xbf" + data if rng.random() < 0.2 else data


def _outcome(read, path):
    try:
        return "ok", repr(read(path))
    except DataFormatError as err:
        return "error", str(err), err.line


def _pairs_per_line(path):
    """The per-line oracle's pairs, its message for a line without a source
    worded as every schema words it."""
    try:
        return load_pairs_per_line(path)
    except DataFormatError as err:
        if not str(err).endswith('expected an object with a "source" field'):
            raise
        raise DataFormatError(path, err.line, "expected an object with source") from None


def _ids_per_line(path):
    """The per-line oracle's ids, or its error, unless a repeated id, which
    every schema refuses, comes on an earlier line."""
    with open(path, encoding="utf-8-sig") as fh:
        lines = list(fh)
    try:
        rows, error = load_jsonl_objects_per_line(path, ("id",)), None
    except DataFormatError as err:
        # the rows before the line the oracle refuses
        head = path.with_name(f"head-{path.name}")
        head.write_text("".join(lines[: err.line - 1]), encoding="utf-8")
        rows, error = load_jsonl_objects_per_line(head, ("id",)), err
    linenos = [lineno for lineno, line in enumerate(lines, start=1) if line.strip()]
    seen = set()
    for lineno, obj in zip(linenos, rows):
        if str(obj["id"]) in seen:
            raise DataFormatError(path, lineno, f"duplicate id {str(obj['id'])!r}")
        seen.add(str(obj["id"]))
    if error:
        raise error
    return [str(obj["id"]) for obj in rows]


def test_jsonl_readers_match_per_line_json_loads(tmp_path):
    """A dataset file and an artifact are read as the former json.loads-per-line
    readers read them, or the same message is raised on the same line."""
    readers = [
        (lambda p: load_pairs(p).pairs, _pairs_per_line),
        (_ids, _ids_per_line),
    ]
    rng = random.Random(20240607)
    seen = set()
    for i in range(300):
        # a fresh name each time: rewriting one file stalls on some file systems
        path = tmp_path / f"case{i}.jsonl"
        path.write_bytes(_jsonl_case(rng))
        for read, oracle in readers:
            want = _outcome(oracle, path)
            assert _outcome(read, path) == want, path.read_bytes()
            seen.add(want[1].split(f"{want[2]}: ", 1)[1] if want[0] == "error" else "ok")
    # the corpus reaches every kind of outcome
    for outcome in ["ok", "Extra data", "Expecting value", "Unexpected UTF-8 BOM",
                    "Invalid control character", "Unterminated string", "expected an object",
                    "duplicate id", "source must be non-empty"]:
        assert any(outcome in message for message in seen), outcome


# TSV fields: empty, whitespace-only, short ids that repeat, non-ASCII, and
# any other text without a tab or a line break
_tsv_field = st.one_of(
    st.sampled_from(["", " ", "\xa0", "\u3000", "\x0b", "0", "1", "a", "\u00e9", "\u4e2d\u6587", " x "]),
    st.text(st.characters(codec="utf-8", blacklist_characters="\t\n\r"), max_size=6),
)
# lines of 1 to 4 fields, mostly the 2 or 3 a row may have
_tsv_line = st.tuples(
    st.sampled_from([1, 2, 2, 2, 3, 3, 3, 4])
    .flatmap(lambda n: st.lists(_tsv_field, min_size=n, max_size=n))
    .map("\t".join),
    st.sampled_from(["\n", "\r\n"]),
)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(lines=st.lists(_tsv_line, max_size=8), last_newline=st.booleans(), bom=st.booleans())
@example(lines=[("a\tb", "\n"), ("1\tc\td", "\r\n"), ("", "\n"), ("0\t \t", "\n")], last_newline=True, bom=False)
@example(lines=[("x\t", "\r\n"), ("\ty", "\n")], last_newline=True, bom=True)
def test_tsv_pairs_match_the_former_tsv_reader(tmp_path_factory, lines, last_newline, bom):
    """A TSV file gives the former per-line reader's pairs, or its message on the same line."""
    text = "".join(line + ending for line, ending in lines)
    if lines and not last_newline:
        text = text.removesuffix(lines[-1][1])
    path = tmp_path_factory.mktemp("tsv") / "pairs.tsv"
    path.write_bytes(b"\xef\xbb\xbf" * bom + text.encode("utf-8"))
    assert _outcome(lambda p: load_pairs(p).pairs, path) == _outcome(load_tsv_per_line, path)


def test_artifacts_accept_unicode_space_around_a_value(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('\xa0{"id": "a"}\u3000\n', encoding="utf-8")
    assert list(read_jsonl(path, EMBEDDING_IDS)) == [{"id": "a"}]
    with pytest.raises(DataFormatError, match=r":1: invalid JSON: Expecting value"):
        load_pairs(path)


def test_the_table_lists_every_schema():
    declared = {v for module in (dataio, novelty) for v in vars(module).values() if isinstance(v, Schema)}
    assert declared == set(TABLE.values())


@pytest.mark.parametrize("schema", [*TABLE.values(), None], ids=[*TABLE, "tsv pairs"])
def test_readers_refuse_bytes_that_are_not_utf8(tmp_path, schema):
    path = tmp_path / ("rows.jsonl" if schema else "rows.tsv")
    path.write_bytes(b'{"id": "a", "source": "s", "output": "o"}\n{"id": "caf\xe9"}\n')
    with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
        list(read_jsonl(path, schema)) if schema else load_pairs(path)


@pytest.mark.parametrize("schema", TABLE.values(), ids=TABLE)
def test_readers_refuse_a_lone_surrogate_escape(tmp_path, schema):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"id": "\\ud83d\\ude00", "source": "s", "target": "t", "output": "o"}\n'
                    '{"id": "b", "source": "s", "output": "\\\\ud800 x\\udfff"}\n', encoding="utf-8")
    with pytest.raises(DataFormatError, match=r":2: a \\u escape names a lone surrogate"):
        list(read_jsonl(path, schema))


@pytest.mark.parametrize("schema", TABLE.values(), ids=TABLE)
def test_every_schema_refuses_a_repeated_id(tmp_path, schema):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [ROW, {**ROW, "id": 7}, ROW])
    with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}:3: duplicate id 'a'$"):
        list(read_jsonl(path, schema))


# JSON that json.loads refuses with a ValueError or a RecursionError, not a JSONDecodeError
PAST_LIMITS = {
    "digits": ("1" * 5000, r"Exceeds the limit \(4300 digits\)"),
    "nesting": ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
}


@pytest.mark.parametrize("schema", TABLE.values(), ids=TABLE)
@pytest.mark.parametrize("value, message", PAST_LIMITS.values(), ids=PAST_LIMITS)
def test_json_past_a_python_limit_is_a_data_error(tmp_path, schema, value, message):
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps(ROW)[:-1] + ', "n": ' + value + "}\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=r":1: invalid JSON: " + message):
        list(read_jsonl(path, schema))


@pytest.mark.parametrize("schema", TABLE.values(), ids=TABLE)
def test_a_missing_file_is_not_found_under_every_schema(tmp_path, schema):
    # the command line names the stage that writes a missing artifact
    # (test_cli::test_a_missing_artifact_names_the_stage_that_writes_it)
    with pytest.raises(FileNotFoundError):
        list(read_jsonl(tmp_path / "missing.jsonl", schema))


def test_write_jsonl_matches_json_dumps_per_row(tmp_path):
    rows = [
        {"id": "0", "source": "caf\u00e9 \u2028 \x85", "target": 'say "hi"\n'},
        {"nested": [1, 2.5, {"x": None, "y": True}], "nan": float("nan"), "inf": float("-inf")},
        {"\u00fc": "\U0001f600", "tab": "\t\\"},
        {},
    ]
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, iter(rows))
    want = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
    assert path.read_bytes() == want.encode("utf-8")


def test_load_infers_format_from_suffix(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("a\tb\n", encoding="utf-8")
    assert len(load_pairs(path)) == 1


@pytest.mark.parametrize("name", ["pairs.TSV", "pairs.TXT", "pairs.Tsv", "pairs.jsonl.txt"])
def test_a_tsv_suffix_in_any_letter_case_is_read_as_tsv(tmp_path, name):
    path = tmp_path / name
    path.write_text("p1\thello there\tgoodbye\n", encoding="utf-8")
    assert load_pairs(path).pairs == [ParaphrasePair("p1", "hello there", "goodbye")]


def test_bom_tolerated(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_bytes(b'\xef\xbb\xbf{"source": "a", "target": "b"}\n')
    assert load_pairs(path).pairs[0].source == "a"


def test_order_preserved(tmp_path):
    path = tmp_path / "pairs.tsv"
    rows = [f"s{i}\tt{i}" for i in range(50)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    split = load_pairs(path)
    assert [p.source for p in split.pairs] == [f"s{i}" for i in range(50)]


pair_strategy = st.builds(
    ParaphrasePair,
    id=st.uuids().map(str),
    source=st.text(min_size=1, max_size=30).filter(lambda s: s.strip() != ""),
    target=st.text(max_size=30),
)


@given(st.lists(pair_strategy, max_size=12, unique_by=lambda p: p.id))
def test_pairs_round_trip(tmp_path_factory, pairs):
    path = tmp_path_factory.mktemp("data") / "pairs.jsonl"
    write_pairs(path, pairs)
    loaded = load_pairs(path)
    assert loaded.pairs == pairs


# Characters JSON escapes, or one escaper escapes and the other does not:
# the quote, the backslash, C0 controls, DEL (U+007F, which ensure_ascii
# escapes and ensure_ascii=False keeps), NEL, the line separator, and
# non-ASCII and astral text.
_ESCAPED = '"\\' + "".join(map(chr, range(0x20))) + "\x7f\x85\u2028\u2029\u00e9\u4e2d\U0001f600"
_field_text = st.text(st.one_of(st.sampled_from(_ESCAPED), st.characters(codec="utf-8")), max_size=12)
_written_pair = st.builds(
    ParaphrasePair,
    id=st.one_of(_field_text, st.integers(-(10**20), 10**20)),
    source=_field_text.filter(bool),
    target=_field_text,
)


@pytest.mark.parametrize("chunk", [1, 3, dataio._PAIRS_PER_CHUNK])
@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(pairs=st.lists(_written_pair, max_size=10), as_generator=st.booleans())
@example(pairs=[], as_generator=False)
@example(pairs=[ParaphrasePair("\x7f", "\x7f", "\x7f")], as_generator=False)
def test_write_pairs_writes_the_bytes_of_a_dict_per_row(tmp_path_factory, chunk, pairs, as_generator):
    root = tmp_path_factory.mktemp("pairs")
    with mock.patch.object(dataio, "_PAIRS_PER_CHUNK", chunk):
        write_pairs(root / "chunked.jsonl", iter(pairs) if as_generator else pairs)
    write_pairs_per_row(root / "per_row.jsonl", pairs)
    assert (root / "chunked.jsonl").read_bytes() == (root / "per_row.jsonl").read_bytes()


@pytest.mark.parametrize("writer", [write_pairs, write_pairs_per_row])
def test_a_lone_surrogate_in_the_last_chunk_keeps_the_old_pair_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "pairs.jsonl"
    path.write_bytes(b"old")
    monkeypatch.setattr(dataio, "_PAIRS_PER_CHUNK", 2)
    pairs = [ParaphrasePair(str(i), "a", "b") for i in range(5)] + [ParaphrasePair("5", "a", "\ud800")]
    with pytest.raises(UnicodeEncodeError):
        writer(path, pairs)
    assert [p.name for p in tmp_path.iterdir()] == ["pairs.jsonl"]
    assert path.read_bytes() == b"old"


def test_write_pairs_holds_a_few_chunks_at_a_time(tmp_path):
    import tracemalloc

    chunks = 16
    pairs = [ParaphrasePair(f"p{i}", f"{i:<150}", f"{-i:<150}") for i in range(chunks * dataio._PAIRS_PER_CHUNK)]
    path = tmp_path / "pairs.jsonl"
    write_pairs(path, pairs[:1])
    tracemalloc.start()
    try:
        write_pairs(path, pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one chunk's rows, joined text and bytes; the whole file would be 16 chunks
    assert peak < 3 * path.stat().st_size / chunks


def test_generation_records_round_trip(tmp_path):
    path = tmp_path / "generations.jsonl"
    rows = [
        {"id": "0", "prompt_n": 12, "output": "text one"},
        {"id": "1", "prompt_n": 300, "output": "text two", "mode": "rapt"},
        {"id": "2", "prompt_n": 3, "output": "x é y"},
    ]
    write_jsonl(path, rows)
    assert list(read_jsonl(path, GENERATIONS)) == rows


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.jsonl"
    write_pairs(path, [ParaphrasePair("0", "a", "b")])
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


class _CallersError(ValueError):
    pass


def test_key_values_strip_keys_and_keep_values_as_written(tmp_path):
    path = tmp_path / "kv.txt"
    path.write_bytes(b"\xef\xbb\xbf# comment\n\n  key = a=b  \n   # indented comment\nx=\n")
    assert list(key_values(path, _CallersError)) == [(3, "key", " a=b  "), (5, "x", "")]
    path.write_text("ok=1\n  no equals sign\n", encoding="utf-8")
    with pytest.raises(_CallersError, match=re.escape(f"{path}:2: expected key=value, got '  no equals sign'")):
        list(key_values(path, _CallersError))
    path.write_bytes(b"k=caf\xe9\n")
    with pytest.raises(_CallersError, match=re.escape(f"{path}: not UTF-8 text (invalid continuation byte)")):
        list(key_values(path, _CallersError))


def test_write_jsonl_failure_mid_stream_keeps_the_old_file(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [{"id": "old"}])

    def rows():
        yield {"id": "0"}
        assert [p.name for p in tmp_path.iterdir()] != ["rows.jsonl"]  # streaming into a temp file
        yield {"id": object()}

    with pytest.raises(TypeError):
        write_jsonl(path, rows())
    assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]
    assert path.read_bytes() == b'{"id": "old"}\n'


def test_a_rewrite_renames_onto_a_free_name(tmp_path, monkeypatch):
    # a rename over an existing file makes ext4 flush the new file first
    from paraprompt.retrieval import write_embeddings_binary

    rows, text = tmp_path / "rows.jsonl", tmp_path / "text.txt"
    bin_path, ids_path = tmp_path / "vectors.bin", tmp_path / "vectors.ids.jsonl"

    def write_all(tag):
        write_jsonl(rows, [{"id": tag}])
        dataio.atomic_write_text(text, tag)
        write_embeddings_binary(bin_path, ids_path, [(tag, [1.0])])

    write_all("old")
    replace = os.replace

    def replace_onto_a_free_name(src, dst):
        assert not os.path.lexists(dst)
        replace(src, dst)

    monkeypatch.setattr(dataio.os, "replace", replace_onto_a_free_name)
    write_all("new")
    assert rows.read_text() == '{"id": "new"}\n' and text.read_text() == "new"
    assert ids_path.read_text() == '{"id": "new"}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "rows.jsonl", "text.txt", "vectors.bin", "vectors.ids.jsonl"]


def test_atomic_write_makes_files_under_the_umask(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old")
    path.chmod(0o600)
    old = os.umask(0o022)
    try:
        atomic_write(path, [b"a", b"b"])
    finally:
        os.umask(old)
    assert path.read_bytes() == b"ab"
    assert stat.S_IMODE(path.stat().st_mode) == 0o644


def test_split_sizes_known_dataset_match():
    splits = [
        DatasetSplit("train", [_mk(i) for i in range(5)]),
        DatasetSplit("test", [_mk(i) for i in range(2)]),
    ]
    assert validate_split_sizes(splits, "custom") == (
        "dataset: custom (custom, informational)\n"
        "  train: expected -, got 5 [ok]\n"
        "  test: expected -, got 2 [ok]\n"
    )


def test_split_sizes_published_table():
    train = DatasetSplit("train", [_mk(i) for i in range(10)])
    validation = DatasetSplit("validation", [_mk(i) for i in range(4_000)])
    assert validate_split_sizes([train, validation], "QQP 50K") == (
        "dataset: QQP 50K\n"
        "  train: expected 46000, got 10 [MISMATCH]\n"
        "  validation: expected 4000, got 4000 [ok]\n"
    )


def test_split_sizes_off_by_one_flagged():
    train = DatasetSplit("train", [_mk(i) for i in range(45_999)])
    report = validate_split_sizes([train], "qqp-50k")
    assert report.splitlines()[1] == "  train: expected 46000, got 45999 [MISMATCH]"


def _mk(i):
    return ParaphrasePair(id=str(i), source=f"s{i}", target=f"t{i}")
