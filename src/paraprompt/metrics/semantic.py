"""Embedding-cosine semantic fidelity (the report's BERT column).

Works on pre-computed sentence vectors; nothing here runs a model. A
zero-norm vector makes cosine undefined, so such records are excluded
and tallied instead of poisoning the mean; with none left to score, the
mean is absent (None), not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class SemanticSummary:
    percent: float | None
    scored: int
    excluded: int


def cosine(u: Sequence[float], v: Sequence[float]) -> float:
    import numpy as np  # on use, so label and the report formats run without numpy
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"vector dimensions differ: {a.shape} vs {b.shape}")
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cosine undefined for zero-norm vector")
    if np.array_equal(a, b):
        # identical vectors are cosine 1 by definition; skip the float noise
        return 1.0
    return float(np.dot(a, b) / (norm_a * norm_b))


def semantic_similarity(
    vector_pairs: Sequence[tuple[Sequence[float], Sequence[float]]]
) -> SemanticSummary:
    """Mean cosine x 100 over (source_vector, prediction_vector) pairs;
    None when every pair has a zero-norm vector."""
    if not vector_pairs:
        raise ValueError("semantic similarity needs a non-empty corpus")
    total = 0.0
    scored = 0
    excluded = 0
    for source_vec, prediction_vec in vector_pairs:
        try:
            total += cosine(source_vec, prediction_vec)
        except ValueError as err:
            if "zero-norm" in str(err):
                excluded += 1
                continue
            raise
        scored += 1
    return SemanticSummary(
        percent=100.0 * total / scored if scored else None, scored=scored, excluded=excluded
    )
