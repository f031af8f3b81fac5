import random
import tracemalloc

import pytest

from paraprompt import novelty
from paraprompt.dataio import ParaphrasePair
from paraprompt.metrics.ter import ter
from paraprompt.novelty import (
    NoveltyClass,
    NoveltyThresholds,
    classify,
    label_dataset,
)


def test_boundary_cases():
    assert classify(0.40) is NoveltyClass.HIGH
    assert classify(0.20) is NoveltyClass.LOW
    assert classify(0.30) is NoveltyClass.MEDIUM


def test_extremes():
    assert classify(0.0) is NoveltyClass.LOW
    assert classify(5.0) is NoveltyClass.HIGH


def test_negative_rejected():
    with pytest.raises(ValueError):
        classify(-0.01)


def test_monotonic_in_ter():
    rng = random.Random(17)
    values = sorted(rng.uniform(0, 1.2) for _ in range(500))
    classes = [classify(v) for v in values]
    assert classes == sorted(classes)


def test_three_preimages_partition():
    for value in [0.0, 0.1999, 0.2, 0.2001, 0.399, 0.4, 0.41, 2.0]:
        assert classify(value) in tuple(NoveltyClass)


def test_threshold_validation():
    with pytest.raises(ValueError):
        NoveltyThresholds(low_max=0.5, high_min=0.4)
    with pytest.raises(ValueError):
        NoveltyThresholds(low_max=0.0, high_min=0.4)


def test_custom_thresholds():
    thresholds = NoveltyThresholds(low_max=0.1, high_min=0.9)
    assert classify(0.5, thresholds) is NoveltyClass.MEDIUM


def _pairs(rows):
    return [ParaphrasePair(id=str(i), source=s, target=t) for i, (s, t) in enumerate(rows)]


def test_label_identity_pair_is_low():
    rows, _ = label_dataset(_pairs([("a b c", "a b c")]))
    assert rows[0][3:] == (0.0, "low")


def test_label_one_substitution_is_medium():
    rows, _ = label_dataset(_pairs([("a b c d", "a b x d")]))
    assert rows[0][3:] == (0.25, "medium")


def test_label_disjoint_is_high():
    rows, _ = label_dataset(_pairs([("a b", "x y")]))
    assert rows[0][3:] == (1.0, "high")


def test_label_histogram_and_metadata():
    _, meta = label_dataset(_pairs([("a b", "a b"), ("a b c d", "a b x d"), ("a b", "x y")]))
    assert meta["histogram"] == {"low": 1, "medium": 1, "high": 1}
    assert meta["rejected"] == 0
    assert "hypothesis=target" in meta["ter_direction"]


def test_label_rejects_unratable_source_and_continues():
    # a whitespace-only source is a non-empty string but has no tokens
    pairs = [
        ParaphrasePair(id="0", source="   ", target="x"),
        ParaphrasePair(id="1", source="a b", target="a b"),
    ]
    rows, meta = label_dataset(pairs)
    assert [row[0] for row in rows] == ["1"]
    assert meta["rejected"] == 1


def test_relabeling_is_fixed_point():
    pairs = _pairs([("a b c d", "a b x d"), ("p q", "p q")])
    first, _ = label_dataset(pairs)
    again, _ = label_dataset([ParaphrasePair(*row[:3]) for row in first])
    assert again == first


def test_label_rates_each_distinct_pair_once(monkeypatch):
    calls = []
    monkeypatch.setattr(novelty, "ter", lambda hyp, ref: calls.append(hyp) or ter(hyp, ref))
    rows, _ = label_dataset(_pairs([("a b c d", "a b x d"), ("p q", "p r"), ("a b c d", "a b x d")]))
    assert calls == [("a", "b", "x", "d"), ("p", "r")]
    assert [row[3] for row in rows] == [0.25, 0.5, 0.25]


def test_label_memo_holds_no_token_copies():
    # a memo keyed by two normalized token tuples per pair held about
    # 4 KB per 30-word pair (12 MB here); keyed by the texts, it holds none
    rng = random.Random(3)
    words = [f"w{i}" for i in range(2000)]
    pairs = _pairs([(" ".join(rng.choices(words, k=30)), " ".join(rng.choices(words, k=30)))
                    for _ in range(3000)])
    tracemalloc.start()
    try:
        rows, _ = label_dataset(pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 3000
    assert peak < 2_000_000


def test_class_order():
    assert NoveltyClass.LOW < NoveltyClass.MEDIUM < NoveltyClass.HIGH
    assert NoveltyClass.from_label("high") is NoveltyClass.HIGH
    with pytest.raises(ValueError):
        NoveltyClass.from_label("extreme")
