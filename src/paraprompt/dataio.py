"""Dataset ingestion, split-size validation, and file emission.

JSONL is the canonical format; TSV is accepted because public paraphrase
corpora ship that way. All writes are atomic (temp file + rename) and
UTF-8; a BOM is tolerated on read and never written.

Every JSONL reader goes through ``_jsonl_values``, which accepts exactly
what ``json.loads`` accepts on each line and raises its messages.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

DATA_FORMATS = ("jsonl", "tsv")

# Published split sizes, used for sanity-checking loaded corpora.
KNOWN_SPLIT_SIZES: dict[str, dict[str, int]] = {
    "qqp-50k": {"train": 46_000, "validation": 4_000, "test": 4_000},
    "qqp-140k": {"train": 134_206, "validation": 5_255, "test": 5_255},
    "msrpc": {"train": 2_203, "validation": 550, "test": 1_147},
    "parasci-acl": {"train": 28_883, "validation": 2_753, "test": 2_345},
}


class DataFormatError(ValueError):
    """Malformed input file; carries path and 1-based line number."""

    def __init__(self, path: str | Path, line: int | None, message: str) -> None:
        where = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{where}: {message}")
        self.path = str(path)
        self.line = line


class IndexBuildError(ValueError):
    """Vectors that cannot form a retrieval index (raised by ``retrieval``,
    declared here so the CLI can catch it without loading numpy)."""


@dataclass(frozen=True)
class ParaphrasePair:
    """One dataset row: an input text and its (possibly empty) target."""

    id: str
    source: str
    target: str = ""

    def __post_init__(self) -> None:
        if not self.source:
            raise ValueError(f"pair {self.id!r}: source must be non-empty")


@dataclass
class DatasetSplit:
    name: str
    pairs: list[ParaphrasePair]

    def __len__(self) -> int:
        return len(self.pairs)


def _open_text(path: str | Path):
    # utf-8-sig transparently strips a BOM if present.
    return open(path, "r", encoding="utf-8-sig")


# The whitespace json.loads skips around a value.
_JSON_SPACE = " \t\r\n"
_scan_once = json.JSONDecoder().scan_once


def _jsonl_values(path: str | Path, strip: bool) -> Iterator[tuple[int, object]]:
    """(1-based line number, value) for each non-blank line of a JSONL file.

    A line is blank when it holds only whitespace (``str.isspace``). Any
    other line must parse as ``json.loads`` parses the line without its
    newline or, when ``strip``, the line after ``str.strip()``; if it does
    not, ``DataFormatError`` carries json's message. A value with only JSON
    whitespace around it is scanned in place; any other line is handed to
    ``json.loads`` itself, so the BOM message and the error for, say, an
    unterminated string before a trailing tab stay json's own.
    """
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip(_JSON_SPACE)
            try:
                value, end = _scan_once(text, 0)
            except (StopIteration, json.JSONDecodeError):
                end = -1
            if end == len(text):
                yield lineno, value
            elif not line.isspace():
                try:
                    value = json.loads(line.strip() if strip else line.rstrip("\n"))
                except json.JSONDecodeError as err:
                    raise DataFormatError(path, lineno, f"invalid JSON: {err.msg}") from err
                yield lineno, value


def id_text(path: str | Path, lineno: int, value: object) -> str:
    """A non-string id read from JSON: an integer (not a boolean) becomes
    its decimal text; anything else is a ``DataFormatError``."""
    if type(value) is not int:
        raise DataFormatError(path, lineno, '"id" must be a string or an integer')
    return str(value)


def load_pairs(path: str | Path, fmt: str | None = None, name: str = "train") -> DatasetSplit:
    """Load paraphrase pairs from a JSONL or TSV file, preserving order.

    JSONL lines look like {"id": ..., "source": ..., "target": ...}:
    ``source`` is a string, ``target`` a string or absent, and ``id`` a
    string, an integer or absent; absent ids are auto-assigned as "0",
    "1", ... TSV rows carry either source<TAB>target or
    id<TAB>source<TAB>target. Duplicate ids are rejected.
    """
    if fmt is None:
        fmt = "tsv" if str(path).endswith((".tsv", ".txt")) else "jsonl"
    if fmt not in DATA_FORMATS:
        raise ValueError(f"unknown dataset format {fmt!r}")
    pairs: list[ParaphrasePair] = []
    seen: set[str] = set()
    if fmt == "tsv":
        with _open_text(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.rstrip("\n").rstrip("\r")
                if not line.strip():
                    continue
                pair = _parse_tsv_line(path, lineno, line, default_id=str(len(pairs)))
                if pair.id in seen:
                    raise DataFormatError(path, lineno, f"duplicate id {pair.id!r}")
                seen.add(pair.id)
                pairs.append(pair)
        return DatasetSplit(name=name, pairs=pairs)
    for lineno, obj in _jsonl_values(path, strip=False):
        if not isinstance(obj, dict) or "source" not in obj:
            raise DataFormatError(path, lineno, 'expected an object with a "source" field')
        source = obj["source"]
        target = obj.get("target", "")
        row_id = obj["id"] if "id" in obj else str(len(pairs))
        if type(source) is not str:
            raise DataFormatError(path, lineno, '"source" must be a string')
        if type(target) is not str:
            raise DataFormatError(path, lineno, '"target" must be a string')
        if type(row_id) is not str:
            row_id = id_text(path, lineno, row_id)
        try:
            pair = ParaphrasePair(id=row_id, source=source, target=target)
        except ValueError as err:
            raise DataFormatError(path, lineno, str(err)) from err
        if row_id in seen:
            raise DataFormatError(path, lineno, f"duplicate id {row_id!r}")
        seen.add(row_id)
        pairs.append(pair)
    return DatasetSplit(name=name, pairs=pairs)


def _parse_tsv_line(path, lineno: int, line: str, default_id: str) -> ParaphrasePair:
    cols = line.split("\t")
    if len(cols) == 2:
        row_id, source, target = default_id, cols[0], cols[1]
    elif len(cols) == 3:
        row_id, source, target = cols
    else:
        raise DataFormatError(
            path, lineno, f"expected 2 or 3 tab-separated columns, got {len(cols)}"
        )
    try:
        return ParaphrasePair(id=row_id, source=source, target=target)
    except ValueError as err:
        raise DataFormatError(path, lineno, str(err)) from err


@dataclass
class SplitSizeReport:
    dataset: str
    known: bool
    entries: list[tuple[str, int | None, int, bool]] = field(default_factory=list)

    @property
    def all_match(self) -> bool:
        return all(ok for _, _, _, ok in self.entries)

    def render(self) -> str:
        lines = [f"dataset: {self.dataset}" + ("" if self.known else " (custom, informational)")]
        for split, expected, actual, ok in self.entries:
            expect_s = "-" if expected is None else str(expected)
            flag = "ok" if ok else "MISMATCH"
            lines.append(f"  {split}: expected {expect_s}, got {actual} [{flag}]")
        return "\n".join(lines) + "\n"


def validate_split_sizes(
    splits: Iterable[DatasetSplit], dataset_name: str
) -> SplitSizeReport:
    """Compare split sizes against the published table; report, never raise."""
    key = dataset_name.lower().replace(" ", "-").replace("_", "-")
    expected_table = KNOWN_SPLIT_SIZES.get(key)
    report = SplitSizeReport(dataset=dataset_name, known=expected_table is not None)
    for split in splits:
        expected = (expected_table or {}).get(split.name)
        ok = expected is None or expected == len(split)
        report.entries.append((split.name, expected, len(split), ok))
    return report


def atomic_write_text(path: str | Path, content: str) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# json.dumps(row, ensure_ascii=False) without building an encoder per call
_encode_row = json.JSONEncoder(ensure_ascii=False).encode


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    buf = io.StringIO()
    for row in rows:
        buf.write(_encode_row(row))
        buf.write("\n")
    atomic_write_text(path, buf.getvalue())


def write_pairs(path: str | Path, pairs: Sequence[ParaphrasePair]) -> None:
    write_jsonl(
        path, ({"id": p.id, "source": p.source, "target": p.target} for p in pairs)
    )


def write_generations(path: str | Path, rows: Sequence[dict]) -> None:
    """Generation records: {"id", "prompt_n", "output"} plus free extras."""
    for row in rows:
        missing = {"id", "prompt_n", "output"} - set(row)
        if missing:
            raise ValueError(f"generation record missing fields: {sorted(missing)}")
    write_jsonl(path, rows)


def iter_jsonl_objects(path: str | Path, required: Sequence[str]) -> Iterator[tuple[int, dict]]:
    """(1-based line number, object) for each non-blank line of a JSONL
    file; each object must carry the ``required`` keys."""
    keys = frozenset(required)
    for lineno, obj in _jsonl_values(path, strip=True):
        if not isinstance(obj, dict) or not obj.keys() >= keys:
            raise DataFormatError(path, lineno, f"expected an object with {', '.join(required)}")
        yield lineno, obj


def load_jsonl_objects(path: str | Path, required: Sequence[str]) -> list[dict]:
    """The objects of ``iter_jsonl_objects``, read in full."""
    return [obj for _, obj in iter_jsonl_objects(path, required)]


def load_ids(path: str | Path) -> list[str]:
    """The ids of a JSONL id file, one {"id": ...} object per non-blank
    line, as text; an id must be a string or an integer, as in
    ``load_pairs``."""
    return [
        obj["id"] if type(obj["id"]) is str else id_text(path, lineno, obj["id"])
        for lineno, obj in iter_jsonl_objects(path, ("id",))
    ]


def load_generations(path: str | Path) -> list[dict]:
    return load_jsonl_objects(path, ("id", "output"))
