"""Novelty classification of paraphrase pairs by Translation Edit Rate.

A pair's novelty is how far the target strays from the source, measured
as TER with the target as hypothesis and the source as reference (the
edits the paraphrase applies to the input; this direction is recorded in
output metadata since the reverse is equally defensible). Three ordered
classes partition the TER axis, with inclusive boundaries at both
thresholds: TER <= low_max is low, TER >= high_min is high, everything
between is medium.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Sequence

from .dataio import ParaphrasePair
from .metrics.ter import ter
from .textcore import DEFAULT_NORMALIZATION, NormalizationConfig, normalize

TER_DIRECTION = "hypothesis=target, reference=source"


class NoveltyClass(enum.IntEnum):
    """Totally ordered: LOW < MEDIUM < HIGH."""

    LOW = 0
    MEDIUM = 1
    HIGH = 2

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "NoveltyClass":
        try:
            return cls[label.upper()]
        except KeyError:
            raise ValueError(f"unknown novelty class {label!r}") from None


# The file ``label`` writes, one object per rated pair with these keys in
# this order; no command reads it back
LABELED_FILE = "labeled.jsonl"
LABELED_FIELDS = ("id", "source", "target", "ter", "class")


@dataclass(frozen=True)
class NoveltyThresholds:
    low_max: float = 0.2
    high_min: float = 0.4

    def __post_init__(self) -> None:
        # NaN fails too; an infinity is no JSON number for labeled_meta.json
        if not 0.0 < self.low_max < self.high_min < float("inf"):
            raise ValueError(
                f"need 0 < low_max < high_min, both finite, got {self.low_max}, {self.high_min}"
            )


DEFAULT_THRESHOLDS = NoveltyThresholds()


def classify(ter_value: float, thresholds: NoveltyThresholds = DEFAULT_THRESHOLDS) -> NoveltyClass:
    """Map a TER value to its novelty class (both boundaries inclusive)."""
    if ter_value < 0.0:
        raise ValueError(f"TER cannot be negative, got {ter_value}")
    if ter_value >= thresholds.high_min:
        return NoveltyClass.HIGH
    if ter_value <= thresholds.low_max:
        return NoveltyClass.LOW
    return NoveltyClass.MEDIUM


def label_dataset(
    pairs: Sequence[ParaphrasePair],
    cfg: NormalizationConfig = DEFAULT_NORMALIZATION,
    thresholds: NoveltyThresholds = DEFAULT_THRESHOLDS,
) -> tuple[list[tuple], dict]:
    """Label every pair with TER(target, source) and its novelty class.

    Returns the rows of ``labeled.jsonl``, one tuple in ``LABELED_FIELDS``
    order per rated pair, and the ``labeled_meta.json`` record. Pairs
    whose source normalizes to nothing cannot be rated; they are counted
    in ``rejected`` and the run continues. TER is computed once per
    distinct (target, source) text pair: one normalization holds for the
    whole call, so equal texts have equal tokens.
    """
    rows = []
    rejected = 0
    histogram = Counter()
    ter_by_text: dict[tuple[str, str], float] = {}
    for pair in pairs:
        source_tokens = normalize(pair.source, cfg)
        if not source_tokens:
            rejected += 1
            continue
        key = (pair.target, pair.source)
        if key not in ter_by_text:
            ter_by_text[key] = ter(normalize(pair.target, cfg), source_tokens)
        ter_value = ter_by_text[key]
        novelty = classify(ter_value, thresholds)
        rows.append((pair.id, pair.source, pair.target, ter_value, novelty.label))
        histogram[novelty] += 1
    meta = {
        "ter_direction": TER_DIRECTION,
        "thresholds": asdict(thresholds),
        "normalization": cfg.as_dict(),
        "histogram": {c.label: histogram[c] for c in NoveltyClass},
        "rejected": rejected,
    }
    return rows, meta
