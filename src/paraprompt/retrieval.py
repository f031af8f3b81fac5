"""Exact kNN retrieval over sentence-embedding vectors.

The index is a plain matrix scanned linearly: the corpora involved are
at most ~134K rows, where exact search is cheap and, unlike approximate
structures, deterministic. Vectors are unit-normalized at build time so
cosine similarity reduces to a dot product. Ties are broken by insertion
order, and a query may exclude ids (retrieving examples for a training
item must exclude the item itself, or the prompt would contain its own
answer).

Embedding files are binary (magic "RAPTEMB1", u32-LE count, u32-LE dim,
then count*dim f32-LE values) with ids in a JSONL sidecar.
"""

from __future__ import annotations

import json
import random
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .dataio import DataFormatError, ParaphrasePair, atomic_write_text

EMBEDDING_MAGIC = b"RAPTEMB1"


class IndexBuildError(ValueError):
    pass


@dataclass(frozen=True)
class ExampleRecord:
    id: str
    pair: ParaphrasePair
    vector: np.ndarray


class RetrievalIndex:
    """Immutable store of unit vectors, one matrix row per record."""

    def __init__(self, records: Sequence[ExampleRecord], matrix: np.ndarray) -> None:
        self._records = tuple(records)
        self._matrix = matrix
        self._matrix.setflags(write=False)

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
    records: list[ExampleRecord] = []
    rows: list[np.ndarray] = []
    seen: set[str] = set()
    dim: int | None = None
    for pair, vector in entries:
        if pair.id in seen:
            raise IndexBuildError(f"duplicate id {pair.id!r}")
        seen.add(pair.id)
        arr = np.asarray(vector, dtype=np.float64)
        if arr.ndim != 1:
            raise IndexBuildError(f"id {pair.id!r}: vector must be 1-dimensional")
        if dim is None:
            dim = int(arr.shape[0])
            if dim == 0:
                raise IndexBuildError(f"id {pair.id!r}: vector has dimension 0")
        elif arr.shape[0] != dim:
            raise IndexBuildError(
                f"id {pair.id!r}: dimension {arr.shape[0]} != index dimension {dim}"
            )
        try:
            unit = unit_normalize(arr)
        except ValueError:
            raise IndexBuildError(f"id {pair.id!r}: zero-norm vector") from None
        records.append(ExampleRecord(id=pair.id, pair=pair, vector=unit))
        rows.append(unit)
    matrix = np.vstack(rows) if rows else np.empty((0, dim or 0), dtype=np.float64)
    return RetrievalIndex(records, matrix)


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
    unit = _unit_query(index, query, k)
    if unit is None:
        return []
    sims = index._matrix @ unit
    # Stable sort on the negated scores keeps insertion order among ties.
    order = np.argsort(-sims, kind="stable")
    out: list[tuple[ExampleRecord, float]] = []
    for idx in order:
        record = index.records[int(idx)]
        if record.id in exclude:
            continue
        out.append((record, float(sims[int(idx)])))
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
    count = len(entries)
    dims = {len(vector) for _, vector in entries}
    if len(dims) > 1:
        raise ValueError(f"mixed vector dimensions: {sorted(dims)}")
    dim = dims.pop() if dims else 0
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = bytearray()
    payload += EMBEDDING_MAGIC
    payload += struct.pack("<II", count, dim)
    for _, vector in entries:
        payload += struct.pack(f"<{dim}f", *[float(v) for v in vector])
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(bytes(payload))
    tmp.replace(path)
    atomic_write_text(
        ids_path,
        "".join(json.dumps({"id": record_id}) + "\n" for record_id, _ in entries),
    )


def load_embeddings_binary(path: str | Path, ids_path: str | Path) -> list[tuple[str, np.ndarray]]:
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
    ids: list[str] = []
    with open(ids_path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise DataFormatError(ids_path, lineno, f"invalid JSON: {err.msg}") from err
            if not isinstance(obj, dict) or "id" not in obj:
                raise DataFormatError(ids_path, lineno, 'expected {"id"}')
            ids.append(str(obj["id"]))
    if len(ids) != count:
        raise DataFormatError(
            ids_path, None, f"sidecar has {len(ids)} ids for {count} vectors"
        )
    return [(record_id, matrix[i].astype(np.float64)) for i, record_id in enumerate(ids)]
