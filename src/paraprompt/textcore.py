"""Text normalization, tokenization, and n-gram extraction.

Every metric in this package operates on token sequences produced here, so
evaluation results are only comparable when the same ``NormalizationConfig``
was used; reports therefore record the config they were computed under.
"""

from __future__ import annotations

import dataclasses
import unicodedata
from dataclasses import dataclass

TokenSeq = tuple[str, ...]

MAX_NGRAM_ORDER = 4


@dataclass(frozen=True)
class NormalizationConfig:
    """Normalization switches, applied in the order NFC, lowercase, punctuation."""

    lowercase: bool = True
    unicode_normalize: bool = True
    punctuation_split: bool = True

    def as_dict(self) -> dict[str, bool]:
        return dataclasses.asdict(self)


DEFAULT_NORMALIZATION = NormalizationConfig()


def _split_punctuation(text: str) -> str:
    out: list[str] = []
    for ch in text:
        if unicodedata.category(ch).startswith("P"):
            out.append(" ")
            out.append(ch)
            out.append(" ")
        else:
            out.append(ch)
    return "".join(out)


def normalize(text: str, cfg: NormalizationConfig = DEFAULT_NORMALIZATION) -> TokenSeq:
    """Normalize and tokenize ``text``.

    Total and idempotent: empty input yields the empty sequence, and
    re-normalizing the space-joined output is a no-op. Tokens never
    contain whitespace.
    """
    if cfg.unicode_normalize:
        text = unicodedata.normalize("NFC", text)
    if cfg.lowercase:
        text = text.lower()
    if cfg.punctuation_split:
        text = _split_punctuation(text)
    return tuple(text.split())


def render(seq: TokenSeq) -> str:
    """Inverse-ish of :func:`normalize`: join tokens with single spaces."""
    return " ".join(seq)


def ngram_windows(seq: TokenSeq, n: int) -> list[TokenSeq]:
    if not 1 <= n <= MAX_NGRAM_ORDER:
        raise ValueError(f"n-gram order must be in [1, {MAX_NGRAM_ORDER}], got {n}")
    return [tuple(seq[i : i + n]) for i in range(len(seq) - n + 1)]
