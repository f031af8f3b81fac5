"""The six-metric evaluation engine and its report formats.

Aggregates BLEU, self-BLEU, self-TER, iBLEU, SARI, and embedding cosine
over a corpus into one ``MetricReport``, rendered as an aligned text
table or CSV with the fixed column order BERT, Self-TER, Self-BLEU,
BLEU, iBLEU, SARI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal
from typing import Sequence

from ..dataio import table_csv, table_text
from ..textcore import NormalizationConfig, DEFAULT_NORMALIZATION, TokenSeq
from .bleu import bleu_corpus_stats, self_bleu
from .sari import sari_corpus
from .semantic import semantic_similarity
from .ter import self_ter

REPORT_COLUMNS = ("BERT", "Self-TER", "Self-BLEU", "BLEU", "iBLEU", "SARI")

IBLEU_ALPHA = 0.7


@dataclass(frozen=True)
class EvalRecord:
    """One scored unit: input, prediction, and at least one ground truth."""

    source: TokenSeq
    prediction: TokenSeq
    references: tuple[TokenSeq, ...]

    def __post_init__(self) -> None:
        if not self.references:
            raise ValueError("EvalRecord needs at least one reference")


def ibleu(bleu: float, self_bleu_value: float) -> float:
    """IBLEU_ALPHA * BLEU - (1 - IBLEU_ALPHA) * self-BLEU, balancing fidelity and novelty."""
    for name, value in (("bleu", bleu), ("self_bleu", self_bleu_value)):
        if not 0.0 <= value <= 100.0:
            raise ValueError(f"{name} must be in [0, 100], got {value}")
    return IBLEU_ALPHA * bleu - (1.0 - IBLEU_ALPHA) * self_bleu_value


@dataclass
class MetricReport:
    bert: float | None
    self_ter: float | None
    self_bleu: float
    bleu: float
    ibleu: float
    sari: float
    normalization: NormalizationConfig
    corpus_size: int
    diagnostics: dict = field(default_factory=dict)

    def as_row(self) -> list[float | None]:
        return [self.bert, self.self_ter, self.self_bleu, self.bleu, self.ibleu, self.sari]


def evaluate_all(
    records: Sequence[EvalRecord],
    vector_pairs: Sequence[tuple[Sequence[float], Sequence[float]]] | None = None,
    normalization: NormalizationConfig = DEFAULT_NORMALIZATION,
) -> MetricReport:
    """Compute every metric over ``records``; iBLEU is derived, not stored twice.

    ``vector_pairs`` supplies (source, prediction) sentence vectors aligned
    with ``records``; omit it to skip the BERT column.
    """
    if not records:
        raise ValueError("evaluation needs a non-empty corpus")
    if vector_pairs is not None and len(vector_pairs) != len(records):
        raise ValueError(
            f"{len(vector_pairs)} vector pairs for {len(records)} records"
        )
    diagnostics: dict = {}

    bleu_stats = bleu_corpus_stats([(r.prediction, r.references) for r in records])
    bleu_value = bleu_stats.score()
    if bleu_stats.zero_match_orders:
        diagnostics["bleu_zero_match_orders"] = bleu_stats.zero_match_orders

    self_bleu_value = self_bleu([(r.prediction, r.source) for r in records])

    ter_summary = self_ter([(r.prediction, r.source) for r in records])
    if ter_summary.skipped:
        diagnostics["self_ter_skipped"] = ter_summary.skipped

    sari_value = sari_corpus(
        [(r.source, r.prediction, r.references) for r in records]
    )

    bert_value = None
    if vector_pairs is not None:
        semantic = semantic_similarity(vector_pairs)
        bert_value = semantic.percent
        if semantic.excluded:
            diagnostics["bert_excluded"] = semantic.excluded

    return MetricReport(
        bert=bert_value,
        self_ter=ter_summary.percent,
        self_bleu=self_bleu_value,
        bleu=bleu_value,
        ibleu=ibleu(bleu_value, self_bleu_value),
        sari=sari_value,
        normalization=normalization,
        corpus_size=len(records),
        diagnostics=diagnostics,
    )


def format_cell(value: float | None) -> str:
    """Two decimals, round-half-even; blank for absent values."""
    if value is None:
        return ""
    return str(Decimal(repr(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN))


def _table(report: MetricReport, label: str) -> list[list[str]]:
    return [["Method", *REPORT_COLUMNS], [label] + [format_cell(v) for v in report.as_row()]]


def report_text(report: MetricReport, label: str = "corpus") -> str:
    text = table_text(_table(report, label))
    text += f"# corpus_size={report.corpus_size} normalization={report.normalization.as_dict()}\n"
    if report.diagnostics:
        text += f"# diagnostics={report.diagnostics}\n"
    return text


def report_csv(report: MetricReport, label: str = "corpus") -> str:
    return table_csv(_table(report, label))
