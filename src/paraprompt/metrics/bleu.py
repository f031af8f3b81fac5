"""Corpus-level BLEU4 with multi-reference clipping and brevity penalty.

Counts are aggregated over the whole corpus (the standard formulation),
not averaged per sentence. No smoothing is applied: if any n-gram order
has zero aggregate matches the score is 0 and the result is flagged, so
degenerate corpora are visible rather than silently floored.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from ..textcore import TokenSeq, ngram_windows

BLEU_ORDER = 4


@dataclass
class BleuStats:
    """Aggregate sufficient statistics for corpus BLEU."""

    matched: list[int] = field(default_factory=lambda: [0] * BLEU_ORDER)
    total: list[int] = field(default_factory=lambda: [0] * BLEU_ORDER)
    hyp_length: int = 0
    ref_length: int = 0

    def update(self, prediction: TokenSeq, references: Sequence[TokenSeq]) -> None:
        if not references:
            raise ValueError("every prediction needs at least one reference")
        self.hyp_length += len(prediction)
        self.ref_length += closest_reference_length(len(prediction), references)
        for n in range(1, BLEU_ORDER + 1):
            pred_counts = Counter(ngram_windows(prediction, n))
            if not pred_counts:
                continue
            max_ref: Counter = Counter()
            for ref in references:
                max_ref |= Counter(ngram_windows(ref, n))
            clipped = sum(min(c, max_ref[g]) for g, c in pred_counts.items())
            self.matched[n - 1] += clipped
            self.total[n - 1] += sum(pred_counts.values())

    @property
    def zero_match_orders(self) -> list[int]:
        return [n + 1 for n in range(BLEU_ORDER) if self.matched[n] == 0]

    def brevity_penalty(self) -> float:
        if self.hyp_length == 0:
            return 0.0
        if self.hyp_length >= self.ref_length:
            return 1.0
        return math.exp(1.0 - self.ref_length / self.hyp_length)

    def score(self) -> float:
        """BLEU in [0, 100]; 0 whenever some order has no matches."""
        if self.zero_match_orders:
            return 0.0
        log_precision = sum(
            math.log(m / t) for m, t in zip(self.matched, self.total)
        ) / BLEU_ORDER
        return 100.0 * self.brevity_penalty() * math.exp(log_precision)


def closest_reference_length(hyp_len: int, references: Sequence[TokenSeq]) -> int:
    """Reference length closest to the hypothesis; ties go to the shorter."""
    return min((abs(len(r) - hyp_len), len(r)) for r in references)[1]


def bleu_corpus(pairs: Sequence[tuple[TokenSeq, Sequence[TokenSeq]]]) -> float:
    """Corpus BLEU4 over (prediction, references) pairs, scaled to [0, 100]."""
    return bleu_corpus_stats(pairs).score()


def bleu_corpus_stats(
    pairs: Sequence[tuple[TokenSeq, Sequence[TokenSeq]]]
) -> BleuStats:
    if not pairs:
        raise ValueError("BLEU needs a non-empty corpus")
    stats = BleuStats()
    for prediction, references in pairs:
        stats.update(prediction, references)
    return stats


def self_bleu(pairs: Sequence[tuple[TokenSeq, TokenSeq]]) -> float:
    """BLEU4 of predictions against their own sources ((prediction, source)).

    Low self-BLEU means the predictions moved far from their inputs. By
    construction this is exactly ``bleu_corpus`` with the source as the
    single reference.
    """
    return bleu_corpus([(pred, [src]) for pred, src in pairs])
