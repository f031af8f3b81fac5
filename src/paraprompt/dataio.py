"""Dataset ingestion, split-size validation, and file emission.

JSONL is the canonical format; TSV is accepted because public paraphrase
corpora ship that way. All writes are atomic (temp file + rename) and
UTF-8; a BOM is tolerated on read and never written.

Every JSONL reader goes through ``_jsonl_values``, which accepts exactly
what ``json.loads`` accepts on each line and raises its messages.

``generate`` reads the train file through ``TrainFile``: a full, validated
``load_pairs`` that records in a ``RowTable`` where each index row's pair
sits, and, while the table's digests match the train file and the id
sidecar, a parse of only the lines of the rows that retrieval returns.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
import sys
import tempfile
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

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
    # the 1-based file line of each pair, as ``load_pairs`` read it
    lines: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.pairs)


_ENCODING = "utf-8-sig"  # transparently strips a BOM if present


def _open_text(path: str | Path):
    return open(path, "r", encoding=_ENCODING)


# The whitespace json.loads skips around a value.
_JSON_SPACE = " \t\r\n"
_scan_once = json.JSONDecoder().scan_once


def _jsonl_values(
    path: str | Path, numbered_lines: Iterable[tuple[int, str]], strip: bool
) -> Iterator[tuple[int, object]]:
    """(1-based line number, value) for each non-blank line of a JSONL file,
    given as (line number, line) with each line's newline kept or not.

    A line is blank when it is empty or holds only whitespace
    (``str.isspace``). Any other line must parse as ``json.loads`` parses
    the line without its newline or, when ``strip``, the line after
    ``str.strip()``; if it does not, ``DataFormatError`` carries json's
    message. A value with only JSON whitespace around it is scanned in
    place; any other line is handed to ``json.loads`` itself, so the BOM
    message and the error for, say, an unterminated string before a
    trailing tab stay json's own.
    """
    for lineno, line in numbered_lines:
        text = line.strip(_JSON_SPACE)
        try:
            value, end = _scan_once(text, 0)
        except (StopIteration, json.JSONDecodeError):
            end = -1
        if end == len(text):
            yield lineno, value
        elif line and not line.isspace():
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


def data_format(path: str | Path, fmt: str | None) -> str:
    """``fmt``, or the format the file name implies when it is None."""
    if fmt is None:
        fmt = "tsv" if str(path).endswith((".tsv", ".txt")) else "jsonl"
    if fmt not in DATA_FORMATS:
        raise ValueError(f"unknown dataset format {fmt!r}")
    return fmt


def load_pairs(path: str | Path, fmt: str | None = None, name: str = "train") -> DatasetSplit:
    """Load paraphrase pairs from a JSONL or TSV file, preserving order.

    JSONL lines look like {"id": ..., "source": ..., "target": ...}:
    ``source`` is a string, ``target`` a string or absent, and ``id`` a
    string, an integer or absent; absent ids are auto-assigned as "0",
    "1", ... TSV rows carry either source<TAB>target or
    id<TAB>source<TAB>target. Duplicate ids are rejected.
    """
    fmt = data_format(path, fmt)
    pairs: list[ParaphrasePair] = []
    lines: list[int] = []
    seen: set[str] = set()
    with _open_text(path) as fh:
        for lineno, pair in _pairs(path, enumerate(fh, start=1), fmt):
            if pair.id in seen:
                raise DataFormatError(path, lineno, f"duplicate id {pair.id!r}")
            seen.add(pair.id)
            pairs.append(pair)
            lines.append(lineno)
    return DatasetSplit(name=name, pairs=pairs, lines=lines)


def pair_from_line(
    path: str | Path, lineno: int, line: str, fmt: str, position: int
) -> ParaphrasePair | None:
    """The pair on one line of a dataset file, read as ``load_pairs`` reads
    it, or None for a blank line; ``position`` is the number of pairs above
    the line."""
    return next((pair for _, pair in _pairs(path, [(lineno, line)], fmt, position)), None)


def _pairs(
    path: str | Path, numbered_lines: Iterable[tuple[int, str]], fmt: str, position: int = 0
) -> Iterator[tuple[int, ParaphrasePair]]:
    """(1-based line number, pair) for each non-blank line of a dataset
    file, given as (line number, line) with each line's newline kept or
    not. ``position`` is the first pair's position among the file's pairs,
    which names a pair that has no id. A malformed line is a
    ``DataFormatError``."""
    if fmt == "tsv":
        for lineno, raw in numbered_lines:
            line = raw.rstrip("\n").rstrip("\r")
            if line.strip():
                yield lineno, _parse_tsv_line(path, lineno, line, default_id=str(position))
                position += 1
        return
    for lineno, obj in _jsonl_values(path, numbered_lines, strip=False):
        if not isinstance(obj, dict) or "source" not in obj:
            raise DataFormatError(path, lineno, 'expected an object with a "source" field')
        source = obj["source"]
        target = obj.get("target", "")
        row_id = obj["id"] if "id" in obj else str(position)
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
        yield lineno, pair
        position += 1


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
    """Write UTF-8 via a temp file in the same directory, then rename into place."""
    _atomic_write(path, content, "w", encoding="utf-8", newline="")


def _atomic_write(path: str | Path, content: str | bytes, mode: str, **options) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, mode, **options) as fh:
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
    with _open_text(path) as fh:
        for lineno, obj in _jsonl_values(path, enumerate(fh, start=1), strip=True):
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


def file_sha256(path: str | Path) -> bytes | None:
    """The sha256 of a file, hashed a MiB at a time (``hashlib.file_digest``
    needs Python 3.11); None when the file cannot be read."""
    digest = hashlib.sha256()
    buf = bytearray(1 << 20)
    view = memoryview(buf)
    try:
        with open(path, "rb", buffering=0) as fh:
            while size := fh.readinto(buf):
                digest.update(view[:size])
    except OSError:
        return None
    return digest.digest()


def _lines_if_sha256(path: str | Path, want: bytes) -> tuple[bytes | None, list[str] | None]:
    """The sha256 of a file (None when it cannot be read) and, when that is
    ``want``, the file's lines without their newlines, decoded from the same
    bytes as ``load_pairs`` decodes the file (utf-8-sig, universal
    newlines); else None for the lines."""
    try:
        data = Path(path).read_bytes()
    except OSError:
        return None, None
    digest = hashlib.sha256(data).digest()
    if digest != want:
        return digest, None
    try:
        text = io.TextIOWrapper(io.BytesIO(data), encoding=_ENCODING).read()
    except UnicodeDecodeError:
        return digest, None
    del data
    return digest, text.split("\n")


_ROW_TABLE_MAGIC = b"PPROWTAB"
_ROW_TABLE_VERSION = 1
# magic, version, row count, data format, then the sha256 of the train
# file, of the id sidecar and of the table's own body
_ROW_TABLE_HEADER = struct.Struct("<8sII8s32s32s32s")


@dataclass(frozen=True)
class RowTable:
    """Where each index row's pair sits in the train file: its 1-based line
    and its position among the file's pairs, which names a pair that has
    no id. It holds for the data format and the two files whose sha256 it
    records. Stored little-endian: the header, then every line, then every
    position, as u32."""

    data_format: str
    train_sha256: bytes
    ids_sha256: bytes
    lines: Sequence[int]
    positions: Sequence[int]

    @classmethod
    def read(cls, path: str | Path) -> RowTable | None:
        """The table in ``path``; None when there is none or it is not a
        whole, intact table of this version."""
        try:
            data = Path(path).read_bytes()
        except OSError:
            return None
        if len(data) < _ROW_TABLE_HEADER.size:
            return None
        magic, version, count, fmt, train, ids, body_sha256 = _ROW_TABLE_HEADER.unpack_from(data)
        fmt = fmt.rstrip(b"\0").decode("ascii", "replace")
        body = data[_ROW_TABLE_HEADER.size :]
        if (magic, version) != (_ROW_TABLE_MAGIC, _ROW_TABLE_VERSION) or fmt not in DATA_FORMATS \
                or len(body) != 8 * count or hashlib.sha256(body).digest() != body_sha256:
            return None
        numbers = array("I", body)
        if sys.byteorder == "big":
            numbers.byteswap()
        return cls(fmt, train, ids, numbers[:count], numbers[count:])

    def write(self, path: str | Path) -> None:
        numbers = array("I", self.lines)
        numbers.extend(self.positions)
        if sys.byteorder == "big":
            numbers.byteswap()
        body = numbers.tobytes()
        header = _ROW_TABLE_HEADER.pack(
            _ROW_TABLE_MAGIC, _ROW_TABLE_VERSION, len(self.lines), self.data_format.encode(),
            self.train_sha256, self.ids_sha256, hashlib.sha256(body).digest(),
        )
        _atomic_write(path, header + body, "wb")

    def fits(self, count: int, line_count: int) -> bool:
        """Whether the table has ``count`` rows, each on one of ``line_count`` lines."""
        return len(self.lines) == count and (count == 0 or (
            min(self.lines) >= 1 and max(self.lines) <= line_count and max(self.positions) < line_count))


class TrainFile:
    """The train file as ``generate`` reads it, with a ``RowTable`` as its
    cache: one writer, after the full validation, and one reader.

    A table whose format and digests equal those of this run's train file
    and id sidecar stands for bytes that ``load_pairs`` and the unknown-id
    check have already accepted, so nothing is parsed up front; a row's
    pair is parsed from its line when the row is returned, and its id
    checked against the sidecar's. Any other table is a miss: ``load_pairs``
    runs here, with its messages, and the table is rewritten once the
    index's ids are checked. A check that fails after a hit is a miss too.
    """

    def __init__(self, path: str | Path, fmt: str | None, table_path: Path, ids_path: Path) -> None:
        self.path = path
        self.fmt = data_format(path, fmt)
        self._table_path = table_path
        self._table = table = RowTable.read(table_path)
        self._ids_sha256 = file_sha256(ids_path)
        if table is not None and (table.data_format, table.ids_sha256) == (self.fmt, self._ids_sha256):
            self._sha256, self._lines = _lines_if_sha256(path, table.train_sha256)
        else:
            # hashed before it is parsed, so a file changed in between has another digest
            self._sha256, self._lines = file_sha256(path), None
        self._split = None if self._lines is not None else load_pairs(path, self.fmt, "train")

    def pair_lookup(self, ids: Sequence[str], emb_path: Path) -> Callable[[int], ParaphrasePair]:
        """Row -> pair for an index over ``ids``, the rows of ``emb_path``."""
        table, lines = self._table, self._lines
        if lines is None or not table.fits(len(ids), len(lines)):
            return self._validated(ids, emb_path).__getitem__
        validated: list[ParaphrasePair] = []

        def pair_of(row: int) -> ParaphrasePair:
            if not validated:
                lineno = table.lines[row]
                try:
                    pair = pair_from_line(self.path, lineno, lines[lineno - 1], self.fmt, table.positions[row])
                except DataFormatError:
                    pair = None
                if pair is not None and pair.id == ids[row]:
                    return pair
                validated.extend(self._validated(ids, emb_path))
            return validated[row]

        return pair_of

    def _validated(self, ids: Sequence[str], emb_path: Path) -> list[ParaphrasePair]:
        """The pairs of ``ids`` from the full load, which writes the table."""
        if self._split is None:
            self._split = load_pairs(self.path, self.fmt, "train")
        split = self._split
        position = dict(zip([pair.id for pair in split.pairs], range(len(split))))
        rows = list(map(position.get, ids))
        if None in rows:
            raise DataFormatError(emb_path, None, "embeddings reference unknown train ids "
                                  f"(first: {ids[rows.index(None)]!r})")
        if self._sha256 is not None and self._ids_sha256 is not None:
            RowTable(self.fmt, self._sha256, self._ids_sha256,
                     list(map(split.lines.__getitem__, rows)), rows).write(self._table_path)
        return list(map(split.pairs.__getitem__, rows))
