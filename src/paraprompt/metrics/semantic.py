"""Embedding-cosine semantic fidelity (the report's BERT column).

Works on pre-computed sentence vectors; nothing here runs a model. A
zero-norm vector makes cosine undefined, so a pair with one on either
side is skipped and tallied instead of poisoning the mean; with none left
to score, the mean is absent (None), not an error. Each cosine is taken
in float64, and identical vectors score exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class SemanticSummary:
    percent: float | None
    scored: int
    excluded: int


def semantic_similarity(
    vector_pairs: Sequence[tuple[Sequence[float], Sequence[float]]]
) -> SemanticSummary:
    """Mean cosine x 100 over (source_vector, prediction_vector) pairs;
    None when every pair has a zero-norm vector. Vectors of different
    dimensions are a ``ValueError``."""
    if not vector_pairs:
        raise ValueError("semantic similarity needs a non-empty corpus")
    import numpy as np  # on use, so label and the report formats run without numpy
    total = 0.0
    scored = 0
    for source_vec, prediction_vec in vector_pairs:
        a = np.asarray(source_vec, dtype=np.float64)
        b = np.asarray(prediction_vec, dtype=np.float64)
        if a.shape != b.shape:
            raise ValueError(f"vector dimensions differ: {a.shape} vs {b.shape}")
        norm_a = float(np.linalg.norm(a))
        norm_b = float(np.linalg.norm(b))
        if norm_a == 0.0 or norm_b == 0.0:
            continue
        # identical vectors are cosine 1 by definition; skip the float noise
        total += 1.0 if np.array_equal(a, b) else float(np.dot(a, b) / (norm_a * norm_b))
        scored += 1
    percent = 100.0 * total / scored if scored else None
    return SemanticSummary(percent, scored, excluded=len(vector_pairs) - scored)
