"""Exact kNN retrieval over sentence-embedding vectors.

The index is one float64 matrix of unit rows. Search is exact: corpora
here are at most ~134K rows, where a brute-force scan is cheap and, unlike
approximate structures, deterministic. Each record's vector is a read-only
view of its row. Cosine similarity is a dot product; ties break by
insertion order, and a query may exclude ids (a training item must not
retrieve itself, or the prompt would contain its own answer).

Queries are scored in blocks, one ``Q_block @ M.T`` product per block of
at most ``SCORE_BLOCK_BYTES`` of scores, so the matrix is read once per
block rather than once per query. The product only draws a shortlist:
BLAS rounds a row differently depending on where it sits in the operand,
so identical rows can score a last bit apart. Any summation order puts a
dot product of two unit vectors within about dim * u of its exact value
(u = eps / 2; Higham, Accuracy and Stability of Numerical Algorithms,
3.1), so a row of the exact top m, m = k + |exclude|, trails the m-th
largest product score by at most 4 * dim * u. The shortlist keeps every
row within ``4 * dim * eps``, twice that, of it. Each shortlisted row is
rescored on its own by a reduction whose result depends only on the
row's values; those are the returned similarities, and a stable sort on
them gives the top k with ties in insertion order, identical vectors
included.

Embedding files are binary (magic "RAPTEMB1", u32-LE count, u32-LE dim,
then count*dim f32-LE values, written and read as one array) with ids in
a JSONL sidecar.
"""

from __future__ import annotations

import json
import random
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .dataio import DataFormatError, ParaphrasePair, atomic_write_text, load_jsonl_objects

EMBEDDING_MAGIC = b"RAPTEMB1"

# Byte budget for one block of float64 query-by-row scores; a block holds
# at least one query.
SCORE_BLOCK_BYTES = 64 * 2**20


class IndexBuildError(ValueError):
    pass


@dataclass(frozen=True)
class ExampleRecord:
    id: str
    pair: ParaphrasePair
    vector: np.ndarray


class RetrievalIndex:
    """Immutable store of unit vectors, one matrix row per record."""

    def __init__(self, pairs: Sequence[ParaphrasePair], matrix: np.ndarray) -> None:
        matrix.setflags(write=False)
        self._matrix = matrix
        self._records = tuple(
            ExampleRecord(id=pair.id, pair=pair, vector=row) for pair, row in zip(pairs, matrix)
        )

    def __len__(self) -> int:
        return len(self._records)

    @property
    def dim(self) -> int:
        return int(self._matrix.shape[1])

    @property
    def records(self) -> tuple[ExampleRecord, ...]:
        return self._records


def unit_normalize(vector: Sequence[float]) -> np.ndarray:
    arr = np.asarray(vector, dtype=np.float64)
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ValueError("zero-norm vector cannot be normalized")
    return arr / norm


def build_index(
    entries: Iterable[tuple[ParaphrasePair, Sequence[float]]]
) -> RetrievalIndex:
    """Build an index from (pair, vector) entries, keyed by pair id.

    All vectors must share one dimension, have non-zero norm, and carry
    unique ids; violations raise ``IndexBuildError`` naming the offender.
    """
    entries = list(entries)
    seen: set[str] = set()
    matrix = np.empty((0, 0), dtype=np.float64)
    for i, (pair, vector) in enumerate(entries):
        if pair.id in seen:
            raise IndexBuildError(f"duplicate id {pair.id!r}")
        seen.add(pair.id)
        arr = np.asarray(vector)
        if arr.ndim != 1:
            raise IndexBuildError(f"id {pair.id!r}: vector must be 1-dimensional")
        if i == 0:
            if arr.shape[0] == 0:
                raise IndexBuildError(f"id {pair.id!r}: vector has dimension 0")
            matrix = np.empty((len(entries), arr.shape[0]), dtype=np.float64)
        elif arr.shape[0] != matrix.shape[1]:
            raise IndexBuildError(
                f"id {pair.id!r}: dimension {arr.shape[0]} != index dimension {matrix.shape[1]}"
            )
        row = matrix[i]
        row[:] = arr
        # per row, as unit_normalize does; a batched axis=1 norm can differ
        # in the last bit
        norm = float(np.linalg.norm(row))
        if norm == 0.0:
            raise IndexBuildError(f"id {pair.id!r}: zero-norm vector")
        row /= norm
    return RetrievalIndex([pair for pair, _ in entries], matrix)


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
    """Top-k records by cosine similarity, descending; insertion order on ties."""
    return query_knn_batch(index, [query], k, [exclude])[0]


def query_knn_batch(
    index: RetrievalIndex,
    queries: Sequence[Sequence[float]],
    k: int,
    excludes: Sequence[frozenset[str] | set[str]],
) -> list[list[tuple[ExampleRecord, float]]]:
    """``query_knn`` for each query, with ``excludes[i]`` for query i."""
    if len(excludes) != len(queries):
        raise ValueError(f"{len(excludes)} exclude sets for {len(queries)} queries")
    units = [_unit_query(index, query, k) for query in queries]
    if len(index) == 0:
        return [[] for _ in queries]
    matrix = index._matrix
    per_block = max(1, SCORE_BLOCK_BYTES // (len(index) * matrix.itemsize))
    out: list[list[tuple[ExampleRecord, float]]] = []
    for start in range(0, len(units), per_block):
        block = np.stack(units[start : start + per_block])
        for unit, scores, exclude in zip(
            block, block @ matrix.T, excludes[start : start + per_block]
        ):
            out.append(_top_k(index, unit, scores, k, exclude))
    return out


def _top_k(
    index: RetrievalIndex,
    unit: np.ndarray,
    scores: np.ndarray,
    k: int,
    exclude: frozenset[str] | set[str],
) -> list[tuple[ExampleRecord, float]]:
    """Exact top-k from one row of product scores; see the module docstring."""
    m = k + len(exclude)
    if m >= scores.shape[0]:
        candidates = np.arange(scores.shape[0])
    else:
        threshold = np.partition(scores, -m)[-m]
        delta = 4 * index.dim * np.finfo(np.float64).eps
        candidates = np.flatnonzero(scores >= threshold - delta)
    # Not index._matrix[candidates] @ unit: BLAS rounds each row by its position.
    sims = np.multiply(index._matrix[candidates], unit).sum(axis=1)
    # candidates ascend, so a stable sort keeps insertion order among ties
    order = np.argsort(-sims, kind="stable")
    out: list[tuple[ExampleRecord, float]] = []
    for i in order:
        record = index.records[int(candidates[i])]
        if record.id in exclude:
            continue
        out.append((record, float(sims[i])))
        if len(out) == k:
            break
    return out


def query_random(
    index: RetrievalIndex,
    query: Sequence[float],
    k: int,
    exclude: frozenset[str] | set[str] = frozenset(),
    seed: int = 0,
) -> list[tuple[ExampleRecord, float]]:
    """Uniform sample without replacement; the ablation counterpart of kNN.

    Cosine similarities are still computed so downstream prompt ordering
    (ascending similarity) stays well-defined.
    """
    unit = _unit_query(index, query, k)
    if unit is None:
        return []
    candidates = [r for r in index.records if r.id not in exclude]
    rng = random.Random(seed)
    chosen = rng.sample(candidates, min(k, len(candidates)))
    return [(record, float(np.dot(record.vector, unit))) for record in chosen]


def write_embeddings_binary(
    path: str | Path,
    ids_path: str | Path,
    entries: Sequence[tuple[str, Sequence[float]]],
) -> None:
    """Binary matrix plus a JSONL id sidecar, row-aligned."""
    dims = {len(vector) for _, vector in entries}
    if len(dims) > 1:
        raise ValueError(f"mixed vector dimensions: {sorted(dims)}")
    matrix = np.asarray([vector for _, vector in entries], dtype="<f4")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = EMBEDDING_MAGIC + struct.pack("<II", len(entries), dims.pop() if dims else 0)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(header + matrix.tobytes())
    tmp.replace(path)
    atomic_write_text(
        ids_path,
        "".join(json.dumps({"id": record_id}) + "\n" for record_id, _ in entries),
    )


def load_embeddings_binary(path: str | Path, ids_path: str | Path) -> tuple[list[str], np.ndarray]:
    """The sidecar ids and a read-only (count, dim) float32 view of the file."""
    blob = Path(path).read_bytes()
    if blob[: len(EMBEDDING_MAGIC)] != EMBEDDING_MAGIC:
        raise DataFormatError(path, None, "bad magic; not an embedding file")
    header_end = len(EMBEDDING_MAGIC) + 8
    if len(blob) < header_end:
        raise DataFormatError(path, None, "truncated header")
    count, dim = struct.unpack("<II", blob[len(EMBEDDING_MAGIC) : header_end])
    expected = header_end + 4 * count * dim
    if len(blob) != expected:
        raise DataFormatError(
            path, None, f"size mismatch: expected {expected} bytes, found {len(blob)}"
        )
    matrix = np.frombuffer(blob, dtype="<f4", offset=header_end).reshape(count, dim)
    ids = [str(obj["id"]) for obj in load_jsonl_objects(ids_path, ("id",))]
    if len(ids) != count:
        raise DataFormatError(
            ids_path, None, f"sidecar has {len(ids)} ids for {count} vectors"
        )
    return ids, matrix
