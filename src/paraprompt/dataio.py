"""Dataset ingestion, split-size validation, and file emission.

JSONL is the canonical format; TSV is accepted because public paraphrase
corpora ship that way. A dataset file's name fixes its format: a name
ending ``.tsv`` or ``.txt``, in any letter case, is TSV, and any other
name is JSONL, so the files of one run may differ in format.

Every file is written whole to a temp file, then the old file is
unlinked and the new one renamed onto the free name, so no reader sees a
partial file and a failed write keeps the old file; nothing is fsynced.
Text is UTF-8; a BOM is tolerated on read and never written.

Every JSONL file is read by ``read_jsonl`` under its ``Schema``: the
``DATASET`` files the user names, and the artifacts ``EMBEDDING_IDS``
and ``GENERATIONS``. It accepts exactly what
``json.loads`` accepts on each line and raises its messages. A missing
file is a ``FileNotFoundError``; the CLI's stage table names its writer.

Text that is not UTF-8, or a ``\\u`` escape of a lone surrogate, is a
``DataFormatError``, so every text read can be written back.

``generate`` reads the index rows' pairs through ``index_pairs``, which
keeps them, validated, under a seal over the digests of their inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

# The modes of ``generate``, recorded in each row it writes
GENERATION_MODES = ("manual", "rapt", "ncrapt", "copy", "ground-truth")

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


_ENCODING = "utf-8-sig"  # transparently strips a BOM if present


def _open_text(path: str | Path):
    return open(path, "r", encoding=_ENCODING)


def _numbered_lines(path: str | Path, fh) -> Iterator[tuple[int, str]]:
    """(1-based line number, line) for each line of ``path``, open as
    ``fh``; bytes that are not UTF-8 are a ``DataFormatError``."""
    try:
        yield from enumerate(fh, start=1)
    except UnicodeDecodeError as err:
        raise DataFormatError(path, None, f"not UTF-8 text ({err.reason})") from None


def key_values(path: str | Path, error: type[Exception]) -> Iterator[tuple[int, str, str]]:
    """(1-based line number, stripped key, value as written) for each
    ``key=value`` line of a text file, skipping blank lines and lines whose
    first non-blank character is "#". A line without "=", a key given
    twice, or bytes that are not UTF-8, raise ``error`` naming the file."""
    with _open_text(path) as fh:
        try:
            lines = list(_numbered_lines(path, fh))
        except DataFormatError as err:
            raise error(str(err)) from None
    seen: set[str] = set()
    for lineno, raw in lines:
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise error(f"{path}:{lineno}: expected key=value, got {line!r}")
        if (key := key.strip()) in seen:
            raise error(f"{path}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        yield lineno, key, value


# The whitespace json.loads skips around a value.
_JSON_SPACE = " \t\r\n"
_scan_once = json.JSONDecoder().scan_once


@dataclass(frozen=True)
class FieldType:
    """A check on a JSON value; a value that fails it reads ``"<field>" must be <must_be>``."""

    test: Callable[[object], bool]
    must_be: str


STRING = FieldType(lambda v: type(v) is str, "a string")
# the id rule; an integer is read as its decimal text
ID = FieldType(lambda v: type(v) is str or type(v) is int, "a string or an integer")


def one_of(values: Sequence[str]) -> FieldType:
    return FieldType(lambda v: v in values, f"one of {', '.join(values)}")


@dataclass(frozen=True)
class Field:
    """One field of a JSONL row. An absent optional field reads as its
    default, or stays absent when that is None; a ``nonempty`` one is not ""."""

    name: str
    type: FieldType
    required: bool = True
    default: object = None
    nonempty: bool = False


@dataclass(frozen=True)
class Schema:
    """A kind of JSONL file: its name in the run directory (None for a
    dataset, which the user names) and its fields, the id first; an absent
    optional id reads as the row's position."""

    name: str | None
    fields: tuple[Field, ...]


DATASET = Schema(None, (
    Field("id", ID, required=False),
    Field("source", STRING, nonempty=True),
    Field("target", STRING, required=False, default=""),
))
EMBEDDING_IDS = Schema("embeddings.ids.jsonl", (Field("id", ID),))
# other keys of a generation row are kept unchecked
GENERATIONS = Schema("generations.jsonl", (
    Field("id", ID),
    Field("output", STRING),
    Field("mode", one_of(GENERATION_MODES), required=False),
))


def read_jsonl(path: str | Path, schema: Schema) -> Iterator[dict]:
    """The rows of a JSONL file under ``schema``, one object per non-blank
    line, in order: its id as text, its absent fields' defaults filled in
    and every other key as read. A missing file is a ``FileNotFoundError``.

    A line is blank when it is empty or holds only whitespace
    (``str.isspace``). Any other line must parse as ``json.loads`` parses
    the line without its newline or, in an artifact, the line after
    ``str.strip()``; if it does not, ``DataFormatError`` carries json's
    message, or Python's for an integer past its digit limit (4,300 by
    default) or a value nested past its recursion limit. A value with only JSON whitespace around it is scanned in
    place; any other line is handed to ``json.loads`` itself, so the BOM
    message and the error for, say, an unterminated string before a
    trailing tab stay json's own. A ``\\u`` escape of a lone surrogate,
    which no UTF-8 file can hold, is a ``DataFormatError`` too, and so is
    a value that is not an object, an absent required field, a field that
    fails its type check, an empty ``nonempty`` field and a repeated id;
    the fields are checked in the schema's order.
    """
    shape = "expected an object with " + ", ".join(f.name for f in schema.fields if f.required)
    seen: set[str] = set()
    with _open_text(path) as fh:
        for lineno, line in _numbered_lines(path, fh):
            text = line.strip(_JSON_SPACE)
            try:
                row, end = _scan_once(text, 0)
            except (StopIteration, ValueError, RecursionError):
                end = -1
            if end != len(text):
                if not line or line.isspace():
                    continue
                try:
                    # a dataset line is parsed as it stands, an artifact line stripped
                    row = json.loads(line.rstrip("\n") if schema.name is None else line.strip())
                except (ValueError, RecursionError) as err:
                    raise DataFormatError(path, lineno, f"invalid JSON: {getattr(err, 'msg', err)}") from err
            # only a \u escape can decode to a surrogate
            if "\\u" in line:
                try:
                    _encode_row(row).encode("utf-8")
                except UnicodeEncodeError:
                    raise DataFormatError(path, lineno, "a \\u escape names a lone surrogate, "
                                          "which is not text") from None
            if not isinstance(row, dict):
                raise DataFormatError(path, lineno, shape)
            # an absent id is the row's position among the file's rows
            row_id = str(row.get("id", len(seen)))
            for f in schema.fields:
                if f.name not in row:
                    if f.required:
                        raise DataFormatError(path, lineno, shape)
                    if f.default is not None:
                        row[f.name] = f.default
                elif not f.type.test(row[f.name]):
                    raise DataFormatError(path, lineno, f'"{f.name}" must be {f.type.must_be}')
                elif f.nonempty and not row[f.name]:
                    raise DataFormatError(path, lineno, f"pair {row_id!r}: {f.name} must be non-empty")
            row["id"] = row_id
            if row_id in seen:
                raise DataFormatError(path, lineno, f"duplicate id {row_id!r}")
            seen.add(row_id)
            yield row


def data_format(path: str | Path) -> str:
    """The format a dataset file's name implies: "tsv" or "jsonl"."""
    return "tsv" if str(path).lower().endswith((".tsv", ".txt")) else "jsonl"


def load_pairs(path: str | Path, name: str = "train") -> DatasetSplit:
    """Load paraphrase pairs from a JSONL or TSV file, as its name implies,
    preserving order.

    JSONL rows are read under ``DATASET``. TSV rows carry either
    source<TAB>target or id<TAB>source<TAB>target, the first kind named by
    position as "0", "1", ... Duplicate ids are rejected.
    """
    if data_format(path) == "jsonl":
        pairs = [ParaphrasePair(row["id"], row["source"], row["target"]) for row in read_jsonl(path, DATASET)]
        return DatasetSplit(name=name, pairs=pairs)
    by_id: dict[str, ParaphrasePair] = {}
    with _open_text(path) as fh:
        for lineno, raw in _numbered_lines(path, fh):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            pair = _parse_tsv_line(path, lineno, line, default_id=str(len(by_id)))
            if pair.id in by_id:
                raise DataFormatError(path, lineno, f"duplicate id {pair.id!r}")
            by_id[pair.id] = pair
    return DatasetSplit(name=name, pairs=list(by_id.values()))


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


def validate_split_sizes(splits: Iterable[DatasetSplit], dataset_name: str) -> str:
    """A report of each split's size against the published table, one line
    per split; a size that differs is flagged, never raised."""
    key = dataset_name.lower().replace(" ", "-").replace("_", "-")
    expected_table = KNOWN_SPLIT_SIZES.get(key)
    lines = [f"dataset: {dataset_name}" + ("" if expected_table else " (custom, informational)")]
    for split in splits:
        expected = (expected_table or {}).get(split.name, "-")
        flag = "ok" if expected in ("-", len(split)) else "MISMATCH"
        lines.append(f"  {split.name}: expected {expected}, got {len(split)} [{flag}]")
    return "\n".join(lines) + "\n"


def atomic_write(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Stream ``chunks`` into a new file beside ``path``, made as ``open()``
    makes one (under the process umask); once it is whole, unlink ``path``
    and rename the new file onto the free name. Nothing is fsynced. If the
    write or the unlink fails, ``path`` is left as it was; any error
    removes the new file.

    A rename onto an existing name makes ext4 (``auto_da_alloc``) flush the
    new file's blocks first, tens of milliseconds even for a small file.
    Between the unlink and the rename no file is at ``path``; a reader that
    has the old file open or mapped keeps reading the old bytes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "xb")  # outside the try: a name clash must not unlink the other file
    try:
        with fh:
            fh.writelines(chunks)
        path.unlink(missing_ok=True)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: str | Path, content: str) -> None:
    """``atomic_write`` of ``content`` as UTF-8."""
    atomic_write(path, [content.encode("utf-8")])


def table_text(rows: Sequence[Sequence[str]]) -> str:
    """Rows of cells, the header first, as aligned text: the first column
    left-aligned, the others right-aligned, two spaces apart."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "".join(
        "  ".join([row[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(row[1:], widths[1:])]) + "\n"
        for row in rows
    )


def table_csv(rows: Sequence[Sequence[str]]) -> str:
    """Rows of cells, the header first, as CSV lines."""
    return "".join(",".join(row) + "\n" for row in rows)


# json.dumps(row, ensure_ascii=False) without building an encoder per call
_encode_row = json.JSONEncoder(ensure_ascii=False).encode


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    atomic_write(path, (f"{_encode_row(row)}\n".encode("utf-8") for row in rows))


def write_pairs(path: str | Path, pairs: Sequence[ParaphrasePair]) -> None:
    write_jsonl(
        path, ({"id": p.id, "source": p.source, "target": p.target} for p in pairs)
    )


def file_sha256(path: str | Path) -> bytes:
    """The sha256 of a file, hashed a MiB at a time (``hashlib.file_digest``
    needs Python 3.11)."""
    digest = hashlib.sha256()
    buf = bytearray(1 << 20)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buf):
            digest.update(view[:size])
    return digest.digest()


# The layout of ``train_rows.jsonl``, hashed into its seal
_TRAIN_ROWS_VERSION = b"paraprompt train_rows 1"


def index_pairs(
    train_path: str | Path, train_sha256: bytes, ids: Sequence[str], cache_path: str | Path, emb_path: Path
) -> Callable[[int], ParaphrasePair]:
    """Row -> pair for an index whose rows, those of ``emb_path``, have the
    train ids ``ids``, read through the cache file ``cache_path``.

    The cache's first line is its seal: the hex sha256 over the layout
    version, the train file's data format, ``train_sha256`` (its
    ``file_sha256``, taken before it is parsed, so a file changed in
    between has another digest), the sha256 of the parsed ids, and the
    body, which holds one ASCII-escaped ``[source, target]`` array per
    index row. While the seal holds, only the rows asked for are parsed;
    otherwise ``load_pairs`` reads the train file, every id is looked up
    in it, and the cache is rewritten.
    """
    key = hashlib.sha256(b"%s\0%s\0" % (_TRAIN_ROWS_VERSION, data_format(train_path).encode()))
    key.update(train_sha256)
    key.update(hashlib.sha256(json.dumps(ids).encode()).digest())
    try:
        data = Path(cache_path).read_bytes()
    except OSError:
        data = b""
    # the seal, one line per row, and the empty text after the last newline
    lines = data.split(b"\n")
    sealed = key.copy()
    sealed.update(memoryview(data)[len(lines[0]) + 1 :])
    if len(lines) == len(ids) + 2 and lines[0] == sealed.hexdigest().encode():
        def pair_of(row: int) -> ParaphrasePair:
            source, target = json.loads(lines[row + 1])
            return ParaphrasePair(ids[row], source, target)

        return pair_of
    by_id = {pair.id: pair for pair in load_pairs(train_path).pairs}
    pairs = list(map(by_id.get, ids))
    if None in pairs:
        raise DataFormatError(emb_path, None, "embeddings reference unknown train ids "
                              f"(first: {ids[pairs.index(None)]!r})")
    body = "".join(
        f"[{encode_basestring_ascii(p.source)}, {encode_basestring_ascii(p.target)}]\n" for p in pairs
    ).encode("ascii")
    key.update(body)
    atomic_write(cache_path, [key.hexdigest().encode(), b"\n", body])
    return pairs.__getitem__
