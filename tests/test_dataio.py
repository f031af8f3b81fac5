import pytest
from hypothesis import given, strategies as st

from paraprompt.dataio import (
    DataFormatError,
    DatasetSplit,
    ParaphrasePair,
    load_generations,
    load_pairs,
    validate_split_sizes,
    write_generations,
    write_pairs,
)


def test_pair_requires_source():
    with pytest.raises(ValueError):
        ParaphrasePair(id="0", source="", target="x")


def test_load_tsv_three_rows(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("a\tb\nc\td\ne\tf\n", encoding="utf-8")
    split = load_pairs(path, "tsv")
    assert len(split) == 3
    assert split.pairs[0] == ParaphrasePair(id="0", source="a", target="b")


def test_load_tsv_with_ids(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("p1\thello there\tgoodbye\n", encoding="utf-8")
    split = load_pairs(path, "tsv")
    assert split.pairs[0].id == "p1"


def test_load_tsv_wrong_column_count(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("a\tb\nonly-one-column\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=r":2: expected 2 or 3"):
        load_pairs(path, "tsv")


def test_load_jsonl_auto_ids(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text(
        '{"source": "a", "target": "b"}\n{"source": "c", "target": "d"}\n',
        encoding="utf-8",
    )
    split = load_pairs(path, "jsonl")
    assert [p.id for p in split.pairs] == ["0", "1"]


def test_load_jsonl_malformed_line_numbered(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text('{"source": "a"}\nnot json\n', encoding="utf-8")
    with pytest.raises(DataFormatError, match=r":2: invalid JSON"):
        load_pairs(path, "jsonl")


def test_load_jsonl_duplicate_ids(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text(
        '{"id": "x", "source": "a"}\n{"id": "x", "source": "b"}\n', encoding="utf-8"
    )
    with pytest.raises(DataFormatError, match="duplicate id"):
        load_pairs(path)


def test_load_infers_format_from_suffix(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("a\tb\n", encoding="utf-8")
    assert len(load_pairs(path)) == 1


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
    loaded = load_pairs(path, "jsonl")
    assert loaded.pairs == pairs


def test_generation_records_round_trip(tmp_path):
    path = tmp_path / "generations.jsonl"
    rows = [
        {"id": "0", "prompt_n": 12, "output": "text one"},
        {"id": "1", "prompt_n": 300, "output": "text two", "mode": "rapt"},
        {"id": "2", "prompt_n": 3, "output": "x é y"},
    ]
    write_generations(path, rows)
    assert load_generations(path) == rows


def test_generation_records_schema_enforced(tmp_path):
    with pytest.raises(ValueError, match="missing fields"):
        write_generations(tmp_path / "g.jsonl", [{"id": "0"}])


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.jsonl"
    write_pairs(path, [ParaphrasePair("0", "a", "b")])
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


def test_split_sizes_known_dataset_match():
    splits = [
        DatasetSplit("train", [_mk(i) for i in range(5)], expected_size=5),
        DatasetSplit("test", [_mk(i) for i in range(2)], expected_size=2),
    ]
    report = validate_split_sizes(splits, "custom")
    assert report.all_match
    assert not report.known


def test_split_sizes_published_table():
    train = DatasetSplit("train", [_mk(i) for i in range(10)])
    report = validate_split_sizes([train], "QQP 50K")
    assert report.known
    assert not report.all_match  # 10 != 46,000
    entry = report.entries[0]
    assert entry[1] == 46_000 and entry[2] == 10
    assert "MISMATCH" in report.render()


def test_split_sizes_off_by_one_flagged():
    train = DatasetSplit("train", [_mk(i) for i in range(45_999)])
    report = validate_split_sizes([train], "qqp-50k")
    assert not report.all_match


def _mk(i):
    return ParaphrasePair(id=str(i), source=f"s{i}", target=f"t{i}")
