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
import sys
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

from .dataio import DataFormatError, ParaphrasePair, id_text, iter_jsonl_objects
from .metrics.ter import ter
from .textcore import DEFAULT_NORMALIZATION, NormalizationConfig, normalize

TER_DIRECTION = "hypothesis=target, reference=source"

LABELED_FIELDS = ("id", "source", "target", "ter", "class")


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


def load_labeled(path: str | Path) -> dict[str, NoveltyClass]:
    """The novelty class of each id of a ``labeled.jsonl`` file, the last
    row of an id winning. Every row is checked: a field of the wrong type
    or value (the id and the non-empty source follow ``load_pairs``' rules)
    is a ``DataFormatError``."""
    labels = tuple(c.label for c in NoveltyClass)
    classes = {}
    for lineno, obj in iter_jsonl_objects(path, LABELED_FIELDS):
        row_id = id_text(path, lineno, obj["id"])
        if type(obj["source"]) is not str or type(obj["target"]) is not str:
            raise DataFormatError(path, lineno, '"source" and "target" must be strings')
        # bools, NaN, infinities and ints beyond float range all fail
        if type(obj["ter"]) not in (int, float) or not abs(obj["ter"]) <= sys.float_info.max:
            raise DataFormatError(path, lineno, '"ter" must be a finite number')
        if obj["class"] not in labels:
            raise DataFormatError(path, lineno, f'"class" must be one of {", ".join(labels)}')
        if not obj["source"]:
            raise DataFormatError(path, lineno, f"pair {row_id!r}: source must be non-empty")
        classes[row_id] = NoveltyClass.from_label(obj["class"])
    return classes
