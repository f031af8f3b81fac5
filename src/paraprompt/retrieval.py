"""Exact kNN retrieval over sentence-embedding vectors.

Search returns ``(row, similarity)`` pairs: the index holds only the row
ids and vectors, and mapping a row to its training pair is the caller's.
The index keeps the (n, dim) rows exactly as given (``generate`` passes
the read-only float32 view of ``embeddings.bin``, never copied) and one
screened float64 norm per row (below). A row's unit vector,
``row.astype(float64) / norm``, is formed only when the row is rescored
or returned, and its norm then is the exact one, equal bit for bit to
``float(np.linalg.norm(row.astype(np.float64)))``. Search is exact:
corpora here are at most ~134K rows, where a brute-force scan is cheap
and, unlike approximate structures, deterministic. Cosine similarity is
the dot product of unit vectors; ties break by insertion order, and a
query may exclude ids (a training item must not retrieve itself, or the
prompt would contain its own answer).

Let u be the unit roundoff of the rows' dtype (eps / 2). The screen sums
each row's squares in that dtype, which is within about dim * u of the
exact sum in any summation order (Higham, Accuracy and Stability of
Numerical Algorithms, 3.1), so its square root is within about
dim * u / 2 of the norm. A sum that is not a normal number at least a
factor 4 inside the dtype's range (or every sum, when dim * eps > 1/2)
is replaced by the exact norm. So a screened row is neither zero, nor
non-finite, nor guarded (below), by the exact norm too, and every
verdict is the exact norm's.

Queries are scored in blocks: one ``fl(Q_block) @ M.T`` product in the
rows' dtype per block of at most ``SCORE_BLOCK_BYTES`` of scores, divided
in place by the screened norms. That score only draws a shortlist.
Rounding the unit query to the dtype moves a score by at most u, the
product stays within about dim * u of its exact value, the screened norm
adds about dim * u / 2 and the division's rounding u; BLAS also rounds a
row by where it sits in the operand, so identical rows can score apart.
A score is thus within about (3 * dim / 2 + 2) * u of the row's cosine,
and the float64 similarity it stands for (below) within (dim + 1) * u. A
row of the exact top m, m = k + |exclude|, therefore trails the m-th
largest score by at most about (5 * dim + 6) * u, and the threshold,
rounded to the dtype, moves by u more; the shortlist keeps every row
within ``4 * (dim + 1) * eps`` (8 * (dim + 1) * u) of it.

The bound assumes no product underflows or overflows, which holds when a
row's norm lies in [sqrt(tiny), sqrt(max)] of its dtype. Rows outside
that range are listed once when the index is built (normally none); they
are scored -inf for the threshold and always shortlisted.

Each shortlisted row is rescored as a full scan would score it: its
float64 unit vector times the float64 unit query, reduced along the row,
a value that depends only on the row's values. Those are the returned
similarities, and a stable sort on them gives the top k with ties in
insertion order, identical vectors included.

Embedding files are binary (magic "RAPTEMB1", u32-LE count, u32-LE dim,
then count*dim f32-LE values) with ids in a JSONL sidecar. The reader
parses a sidecar spelled exactly as the writer spells it in one pass, and
any other through ``read_jsonl``, which returns the same ids; a repeated
id or a lone surrogate sends it there too, for its line-numbered message.
The writer converts and writes ``_WRITE_CHUNK_ROWS`` rows at a time. The
reader maps the file read-only and views its rows in place, so
``generate`` holds no copy of them; while a ``generate`` runs, the file
must be replaced, never rewritten in place, or the mapped rows change
under the index. This package's writer replaces it: the new file is
written whole (never a partial file at the name, no fsync), the old one
is unlinked, and the new one is renamed onto the free name. A mapping of
the old file keeps its rows, and a failed write keeps the old file.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import mmap
import os
import random
import struct
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .dataio import EMBEDDING_IDS, DataFormatError, IndexBuildError, ParaphrasePair, read_jsonl
from .dataio import atomic_write, atomic_write_text

EMBEDDING_MAGIC = b"RAPTEMB1"
# The embedding file in a run directory; its sidecar is ``EMBEDDING_IDS.name``
EMBEDDING_FILE = "embeddings.bin"

# Byte budget for one block of query-by-row product scores; a block holds
# at least one query.
SCORE_BLOCK_BYTES = 64 * 2**20

# Rows upcast to float64 at a time while exact norms are computed.
_NORM_CHUNK_ROWS = 256

# Rows converted to float32 at a time while an embedding file is written.
_WRITE_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class ExampleRecord:
    id: str
    vector: np.ndarray


class RetrievalIndex:
    """Immutable exact-kNN store: the row ids, their (n, dim) rows as given
    and one screened float64 norm per row.

    ``matrix`` is kept, not copied, when it is a C-contiguous float32 or
    float64 array; the caller must not write to it afterwards. A duplicate
    id, or a row of dimension 0, zero norm or a non-finite value, raises
    ``IndexBuildError`` naming the first such id.
    """

    def __init__(self, ids: Sequence[str], matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix)
        if matrix.dtype not in (np.float32, np.float64):
            matrix = matrix.astype(np.float64)
        matrix = np.ascontiguousarray(matrix).view()
        matrix.setflags(write=False)
        self._ids = list(ids)
        if matrix.ndim != 2 or matrix.shape[0] != len(self._ids):
            raise IndexBuildError(
                f"{len(self._ids)} ids need an ({len(self._ids)}, dim) matrix, "
                f"got shape {matrix.shape}"
            )
        if self._ids and matrix.shape[1] == 0:
            raise IndexBuildError(f"id {self._ids[0]!r}: vector has dimension 0")
        if len(set(self._ids)) != len(self._ids):
            seen: set[str] = set()
            for rid in self._ids:
                if rid in seen:
                    raise IndexBuildError(f"duplicate id {rid!r}")
                seen.add(rid)
        self._matrix = matrix
        self._norms = _screened_norms(matrix)
        bad = (self._norms == 0.0) | ~np.isfinite(self._norms)
        if bad.any():
            row = int(np.argmax(bad))
            what = "zero-norm vector" if self._norms[row] == 0.0 else "vector is not finite"
            raise IndexBuildError(f"id {self._ids[row]!r}: {what}")
        finfo = np.finfo(matrix.dtype)
        # rows whose float products may underflow or overflow; see the module docstring
        self._guarded = np.flatnonzero(
            (self._norms < np.sqrt(finfo.tiny)) | (self._norms > np.sqrt(finfo.max))
        )

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def dim(self) -> int:
        return int(self._matrix.shape[1])

    @functools.cached_property
    def _row_of(self) -> dict[str, int]:  # id -> row, built on first use
        return {rid: row for row, rid in enumerate(self._ids)}

    @functools.cached_property
    def records(self) -> tuple[ExampleRecord, ...]:
        """One record per row, its vector a read-only unit row; built on
        first use."""
        units = self._unit_rows(slice(None))
        units.setflags(write=False)
        return tuple(map(ExampleRecord, self._ids, units))

    def _unit_rows(self, rows: np.ndarray | slice) -> np.ndarray:
        units = self._matrix[rows].astype(np.float64)
        units /= _exact_norms(units)[:, None]
        return units


def _exact_norms(rows: np.ndarray) -> np.ndarray:
    """``float(np.linalg.norm(row.astype(np.float64)))`` for each row, bit
    for bit: a stacked vector @ vector matmul takes the same BLAS dot per
    row as ``linalg.norm``, whereas ``norm(axis=1)`` sums differently."""
    squares = np.empty(rows.shape[0])
    for lo in range(0, rows.shape[0], _NORM_CHUNK_ROWS):
        chunk = rows[lo : lo + _NORM_CHUNK_ROWS].astype(np.float64, copy=False)
        np.matmul(chunk[:, None, :], chunk[:, :, None], out=squares[lo : lo + len(chunk), None, None])
    return np.sqrt(squares, out=squares)


def _screened_norms(matrix: np.ndarray) -> np.ndarray:
    """Each row's float64 norm: the square root of its sum of squares in
    the rows' dtype where that sum is at least 4 * tiny and at most max / 4,
    and ``_exact_norms`` for every other row, or for every row when
    dim * eps > 1/2; see the module docstring."""
    finfo = np.finfo(matrix.dtype)
    if matrix.shape[1] * finfo.eps > 0.5:
        return _exact_norms(matrix)
    with np.errstate(over="ignore"):
        squares = np.einsum("ij,ij->i", matrix, matrix)
    norms = np.sqrt(squares, dtype=np.float64)
    rows = np.flatnonzero(~((squares >= 4 * finfo.tiny) & (squares <= finfo.max / 4)))
    norms[rows] = _exact_norms(matrix[rows])
    return norms


def unit_normalize(vector: Sequence[float]) -> np.ndarray:
    arr = np.asarray(vector, dtype=np.float64)
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ValueError("zero-norm vector cannot be normalized")
    return arr / norm


def build_index(
    entries: Iterable[tuple[ParaphrasePair, Sequence[float]]]
) -> RetrievalIndex:
    """``RetrievalIndex`` of the stacked vectors, which must be 1-dimensional
    and of one length; float32 vectors stay float32."""
    entries = list(entries)
    vectors = [np.asarray(vector) for _, vector in entries]
    for (pair, _), arr in zip(entries, vectors):
        if arr.ndim != 1 or arr.shape != vectors[0].shape:
            raise IndexBuildError(f"id {pair.id!r}: " + (
                f"dimension {arr.shape[0]} != index dimension {vectors[0].shape[0]}"
                if arr.ndim == 1 else "vector must be 1-dimensional"))
    matrix = np.stack(vectors) if vectors else np.empty((0, 0))
    return RetrievalIndex([pair.id for pair, _ in entries], matrix)


def _unit_query(index: RetrievalIndex, query: Sequence[float], k: int) -> np.ndarray | None:
    """The unit-normalized query, or None when the index is empty."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(index) == 0:
        return None
    unit = unit_normalize(query)
    if unit.shape[0] != index.dim:
        raise ValueError(f"query dimension {unit.shape[0]} != index dimension {index.dim}")
    return unit


def query_knn(
    index: RetrievalIndex,
    query: Sequence[float],
    k: int,
    exclude: frozenset[str] | set[str] = frozenset(),
) -> list[tuple[ExampleRecord, float]]:
    """Top-k records by cosine similarity, descending; insertion order on ties.
    Only the hits' unit rows are formed."""
    hits = query_knn_batch(index, [query], k, [exclude])[0]
    units = index._unit_rows(np.array([row for row, _ in hits], dtype=np.intp))
    units.setflags(write=False)
    return [(ExampleRecord(index._ids[row], unit), sim) for (row, sim), unit in zip(hits, units)]


def query_knn_batch(
    index: RetrievalIndex,
    queries: Sequence[Sequence[float]],
    k: int,
    excludes: Sequence[frozenset[str] | set[str]],
) -> list[list[tuple[int, float]]]:
    """Each query's top-k ``(row, similarity)`` pairs, ranked as ``query_knn``
    ranks its records, with ``excludes[i]`` for query i."""
    if len(excludes) != len(queries):
        raise ValueError(f"{len(excludes)} exclude sets for {len(queries)} queries")
    units = [_unit_query(index, query, k) for query in queries]
    if len(index) == 0:
        return [[] for _ in queries]
    matrix = index._matrix
    per_block = max(1, SCORE_BLOCK_BYTES // (len(index) * matrix.itemsize))
    out: list[list[tuple[int, float]]] = []
    for start in range(0, len(units), per_block):
        block = np.stack(units[start : start + per_block])
        # only guarded rows can overflow, and their scores are not used
        with np.errstate(over="ignore"):
            scores = block.astype(matrix.dtype) @ matrix.T
            scores /= index._norms
        scores[:, index._guarded] = -np.inf
        for unit, row, exclude in zip(block, scores, excludes[start : start + per_block]):
            out.append(_top_k(index, unit, row, k, exclude))
    return out


def _top_k(
    index: RetrievalIndex,
    unit: np.ndarray,
    scores: np.ndarray,
    k: int,
    exclude: frozenset[str] | set[str],
) -> list[tuple[int, float]]:
    """Exact top-k from one row of scores; see the module docstring."""
    m = k + len(exclude)
    if m >= len(index):
        candidates = np.arange(len(index))
    else:
        threshold = np.partition(scores, -m)[-m]
        delta = 4 * (index.dim + 1) * np.finfo(index._matrix.dtype).eps
        shortlist = scores >= threshold - delta
        shortlist[index._guarded] = True
        candidates = np.flatnonzero(shortlist)
    # candidates ascend, so ties keep insertion order
    return _ranked(index, unit, candidates, k, exclude)


def _ranked(
    index: RetrievalIndex,
    unit: np.ndarray,
    rows: np.ndarray,
    k: int,
    exclude: frozenset[str] | set[str],
) -> list[tuple[int, float]]:
    """The first k of ``rows`` not excluded, by similarity descending; a
    stable sort keeps the order of ``rows`` among ties."""
    units = index._unit_rows(rows)
    # Not units @ unit: BLAS rounds each row by its position.
    sims = np.multiply(units, unit).sum(axis=1)
    order = (i for i in np.argsort(-sims, kind="stable") if index._ids[rows[i]] not in exclude)
    return [(int(rows[i]), float(sims[i])) for i in itertools.islice(order, min(k, len(rows)))]


def query_random(
    index: RetrievalIndex,
    query: Sequence[float],
    k: int,
    exclude: frozenset[str] | set[str] = frozenset(),
    seed: int = 0,
) -> list[tuple[int, float]]:
    """Uniform sample without replacement, the ablation counterpart of kNN,
    ranked as ``query_knn`` ranks its hits; ties keep the sample's order."""
    unit = _unit_query(index, query, k)
    if unit is None:
        return []
    skipped = sorted(index._row_of[rid] for rid in exclude if rid in index._row_of) if exclude else []
    # random.sample picks by position: the kept row at position p is p plus
    # the skipped rows with at most p kept rows before them (skipped[i] - i)
    kept_before = [row - i for i, row in enumerate(skipped)]
    kept = len(index) - len(skipped)
    positions = random.Random(seed).sample(range(kept), min(k, kept))
    chosen = [p + bisect.bisect_right(kept_before, p) for p in positions]
    return _ranked(index, unit, np.array(chosen, dtype=np.intp), k, exclude)


# The writer's sidecar: the head, the ids joined by the separator, the tail
_SIDECAR_HEAD, _SIDECAR_SEP, _SIDECAR_TAIL = '{"id": ', '}\n{"id": ', '}\n'


def write_embeddings_binary(
    path: str | Path,
    ids_path: str | Path,
    entries: Sequence[tuple[str, Sequence[float]]],
) -> None:
    """Binary matrix plus a JSONL id sidecar, row-aligned; ids are strings.
    Each file is written by ``atomic_write``, so a vector that fails to
    convert leaves the old matrix in place."""
    dims = {len(vector) for _, vector in entries}
    if len(dims) > 1:
        raise ValueError(f"mixed vector dimensions: {sorted(dims)}")
    # json.dumps({"id": record_id}) per row, for str ids
    ids = _SIDECAR_SEP.join([encode_basestring_ascii(record_id) for record_id, _ in entries])
    sidecar = _SIDECAR_HEAD + ids + _SIDECAR_TAIL if entries else ""
    header = EMBEDDING_MAGIC + struct.pack("<II", len(entries), dims.pop() if dims else 0)
    rows = (
        np.asarray([vector for _, vector in entries[lo : lo + _WRITE_CHUNK_ROWS]], dtype="<f4").data
        for lo in range(0, len(entries), _WRITE_CHUNK_ROWS)
    )
    atomic_write(path, itertools.chain([header], rows))
    atomic_write_text(ids_path, sidecar)


def _writer_spelled_ids(ids_path: str | Path) -> list[str] | None:
    """The sidecar's ids in one pass when every row is spelled as
    ``write_embeddings_binary`` spells it, no id repeats and none holds a
    lone surrogate, for which ``read_jsonl`` returns the same ids; None
    for any other file."""
    text = Path(ids_path).read_bytes().decode("latin-1")
    head, sep, tail = _SIDECAR_HEAD, _SIDECAR_SEP, _SIDECAR_TAIL
    if not (text.isascii() and text.startswith(head) and text.endswith(tail)):
        return None
    body = text[len(head) : -len(tail)]
    try:
        ids = json.loads("[" + body.replace(sep, ",") + "]")
        # a non-str id is a TypeError
        if not ids or sep.join(map(encode_basestring_ascii, ids)) != body:
            return None
    except (ValueError, RecursionError, TypeError):
        return None
    if len(set(ids)) != len(ids):
        return None
    # the writer spells a surrogate, paired or not, as a \ud... escape
    if "\\ud" in body:
        try:
            "".join(ids).encode("utf-8")
        except UnicodeEncodeError:
            return None
    return ids


def load_embeddings_binary(path: str | Path, ids_path: str | Path) -> tuple[list[str], np.ndarray]:
    """The sidecar ids, read first, and a read-only (count, dim) float32
    view of the file, mapped read-only. A missing file is a
    ``FileNotFoundError``; the CLI's stage table names its writer."""
    ids = _writer_spelled_ids(ids_path)
    if ids is None:
        ids = [row["id"] for row in read_jsonl(ids_path, EMBEDDING_IDS)]
    header_end = len(EMBEDDING_MAGIC) + 8
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(header_end)
        if header[: len(EMBEDDING_MAGIC)] != EMBEDDING_MAGIC:
            raise DataFormatError(path, None, "bad magic; not an embedding file")
        if size < header_end:
            raise DataFormatError(path, None, "truncated header")
        count, dim = struct.unpack("<II", header[len(EMBEDDING_MAGIC) :])
        expected = header_end + 4 * count * dim
        if size != expected:
            raise DataFormatError(path, None, f"size mismatch: expected {expected} bytes, found {size}")
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    matrix = np.frombuffer(mapped, dtype="<f4", offset=header_end).reshape(count, dim)
    if len(ids) != count:
        raise DataFormatError(ids_path, None, f"sidecar has {len(ids)} ids for {count} vectors")
    return ids, matrix
