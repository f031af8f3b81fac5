"""Paraphrase evaluation metrics: BLEU, self-BLEU, TER, iBLEU, SARI, cosine."""

from .bleu import BLEU_ORDER, BleuStats, bleu_corpus, bleu_corpus_stats, closest_reference_length, self_bleu
from .report import (
    EvalRecord,
    IBLEU_ALPHA,
    MetricReport,
    REPORT_COLUMNS,
    evaluate_all,
    format_cell,
    ibleu,
    report_csv,
    report_text,
)
from .sari import sari_corpus, sari_ngram_scores, sari_sentence
from .semantic import SemanticSummary, cosine, semantic_similarity
from .ter import MAX_SHIFT_BLOCK, SelfTerSummary, TerResult, levenshtein, self_ter, ter, ter_detail

__all__ = [
    "BLEU_ORDER",
    "BleuStats",
    "EvalRecord",
    "IBLEU_ALPHA",
    "MAX_SHIFT_BLOCK",
    "MetricReport",
    "REPORT_COLUMNS",
    "SelfTerSummary",
    "SemanticSummary",
    "TerResult",
    "bleu_corpus",
    "bleu_corpus_stats",
    "closest_reference_length",
    "cosine",
    "evaluate_all",
    "format_cell",
    "ibleu",
    "levenshtein",
    "report_csv",
    "report_text",
    "sari_corpus",
    "sari_ngram_scores",
    "sari_sentence",
    "self_bleu",
    "self_ter",
    "semantic_similarity",
    "ter",
    "ter_detail",
]
