import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import semantic_similarity_by_message

from paraprompt.metrics import (
    EvalRecord,
    bleu_corpus,
    evaluate_all,
    format_cell,
    ibleu,
    report_csv,
    report_text,
    sari_corpus,
    self_bleu,
    semantic_similarity,
)


def test_ibleu_paper_rows():
    assert ibleu(32.78, 100.0) == pytest.approx(-7.05, abs=0.005)
    assert ibleu(30.36, 100.0) == pytest.approx(-8.75, abs=0.005)
    assert ibleu(100.0, 30.98) == pytest.approx(60.71, abs=0.005)
    assert ibleu(100.0, 30.34) == pytest.approx(60.90, abs=0.005)


def test_ibleu_linearity():
    base = ibleu(50.0, 40.0)
    assert ibleu(60.0, 40.0) - base == pytest.approx(0.7 * 10)
    assert ibleu(50.0, 50.0) - base == pytest.approx(-0.3 * 10)


def test_ibleu_range_validation():
    with pytest.raises(ValueError):
        ibleu(150.0, 10.0)


def test_semantic_identity_and_orthogonal():
    assert semantic_similarity([((1.0, 0.0), (1.0, 0.0))]).percent == 100.0
    assert semantic_similarity([((1.0, 0.0), (0.0, 1.0))]).percent == 0.0
    assert semantic_similarity([((1.0, 0.0), (-1.0, 0.0))]).percent == -100.0


def test_semantic_zero_norm_excluded_and_tallied():
    summary = semantic_similarity(
        [((1.0, 0.0), (0.0, 0.0)), ((1.0, 0.0), (1.0, 0.0))]
    )
    assert summary.percent == 100.0
    assert summary.excluded == 1
    summary = semantic_similarity([((1.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (1.0, 0.0))])
    assert (summary.percent, summary.scored, summary.excluded) == (None, 0, 2)


def test_semantic_dimension_mismatch():
    with pytest.raises(ValueError):
        semantic_similarity([((1.0, 0.0), (1.0, 0.0, 0.0))])


# coordinates: zero, unit, fractional, and magnitudes whose squares
# underflow, go subnormal or overflow
_coordinate = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e-160, 1e-200, 5e-324, 1e160, 1e300]),
    st.floats(-10.0, 10.0),
)


@st.composite
def _vector_pairs(draw):
    """Pairs of one dimension, the prediction drawn from the source: zero on
    either side, identical, negated, near-parallel, rescaled or unrelated;
    sometimes one pair of another dimension at a drawn position."""
    dim = draw(st.integers(1, 4))
    pairs = []
    for _ in range(draw(st.integers(0, 6))):
        u = draw(st.lists(_coordinate, min_size=dim, max_size=dim))
        kind = draw(st.sampled_from(["zero", "zero source", "same", "negated", "near", "scaled", "other"]))
        scale = draw(st.sampled_from([1e-150, 2.0, 1e150]))
        v = {
            "zero": [0.0] * dim,
            "zero source": u,
            "same": list(u),
            "negated": [-x for x in u],
            "near": [np.nextafter(x, np.inf) if i == 0 else x for i, x in enumerate(u)],
            "scaled": [x * scale for x in u],
        }.get(kind) or draw(st.lists(_coordinate, min_size=dim, max_size=dim))
        pairs.append(([0.0] * dim, v) if kind == "zero source" else (u, v))
    if draw(st.integers(0, 7)) == 0:
        pairs.insert(draw(st.integers(0, len(pairs))), ([1.0] * dim, [1.0] * (dim + 1)))
    return pairs


def _summary_or_error(score, pairs):
    try:
        with np.errstate(all="ignore"):
            return repr(score(pairs))
    except ValueError as err:
        return "ValueError", str(err)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_vector_pairs())
@example([((1.0, 0.0), (0.0, 0.0)), ((1.0, 0.0), (1.0, 0.0, 0.0))])
@example([((0.0, 0.0), (0.0, 0.0)), ((1e300, 1e300), (1e300, 1e300)), ((1e300, 1.0), (1.0, 1e300))])
def test_semantic_matches_the_former_cosine_by_message(pairs):
    """(percent, scored, excluded) equal bit for bit, as float reprs, to the
    former cosine loop's, or the same ValueError text."""
    want = _summary_or_error(semantic_similarity_by_message, pairs)
    assert _summary_or_error(semantic_similarity, pairs) == want


def _records(rows):
    return [EvalRecord(source=s, prediction=p, references=(r,)) for s, p, r in rows]


def test_copy_run_pattern():
    records = _records(
        [
            (("a", "b", "c", "d"), ("a", "b", "c", "d"), ("a", "x", "c", "d")),
            (("p", "q", "r", "s"), ("p", "q", "r", "s"), ("p", "q", "z", "s")),
        ]
    )
    vectors = [((1.0, 0.0), (1.0, 0.0)), ((0.5, 0.5), (0.5, 0.5))]
    report = evaluate_all(records, vectors)
    assert report.self_bleu == 100.0
    assert report.self_ter == 0.0
    assert report.bert == 100.0


def test_ground_truth_run_has_bleu_100():
    records = _records(
        [
            (("a", "b", "c", "d"), ("a", "x", "c", "d"), ("a", "x", "c", "d")),
            (("p", "q", "r", "s"), ("p", "q", "z", "s"), ("p", "q", "z", "s")),
        ]
    )
    report = evaluate_all(records)
    assert report.bleu == 100.0
    assert report.bert is None


def test_report_composes_member_metrics():
    records = _records(
        [
            (("a", "b", "c", "d"), ("a", "b", "x", "d"), ("a", "b", "y", "d")),
            (("h", "i", "j", "k"), ("h", "i", "j", "k"), ("h", "i", "j", "k")),
        ]
    )
    report = evaluate_all(records)
    assert report.bleu == bleu_corpus([(r.prediction, r.references) for r in records])
    assert report.self_bleu == self_bleu([(r.prediction, r.source) for r in records])
    assert report.sari == sari_corpus(
        [(r.source, r.prediction, r.references) for r in records]
    )
    assert report.ibleu == pytest.approx(0.7 * report.bleu - 0.3 * report.self_bleu)
    assert report.corpus_size == 2


def test_report_ranges_fuzz():
    # 10000 random records spread over corpora of mixed size
    rng = random.Random(41)
    vocab = list("abcde")
    remaining = 10_000
    while remaining > 0:
        rows = []
        for _ in range(min(rng.randint(1, 8), remaining)):
            def sent(lo=1, hi=6):
                return tuple(rng.choice(vocab) for _ in range(rng.randint(lo, hi)))
            rows.append((sent(), sent(), sent()))
        remaining -= len(rows)
        report = evaluate_all(_records(rows))
        assert 0 <= report.bleu <= 100
        assert 0 <= report.self_bleu <= 100
        assert 0 <= report.sari <= 100
        assert report.self_ter >= 0
        assert -100 <= report.ibleu <= 100


def test_rendered_column_order():
    records = _records([(("a", "b", "c", "d"), ("a", "b", "c", "d"), ("a", "b", "c", "d"))])
    report = evaluate_all(records, [((1.0, 0.0), (1.0, 0.0))])
    text = report_text(report, label="copy")
    assert text.splitlines()[0].split() == [
        "Method", "BERT", "Self-TER", "Self-BLEU", "BLEU", "iBLEU", "SARI",
    ]
    csv_text = report_csv(report, label="copy")
    assert csv_text.splitlines()[0] == "Method,BERT,Self-TER,Self-BLEU,BLEU,iBLEU,SARI"
    assert csv_text.splitlines()[1].startswith("copy,100.00,0.00,100.00,100.00,")


def test_round_half_even_formatting():
    assert format_cell(2.675) in ("2.67", "2.68")  # float repr decides, stably
    assert format_cell(2.125) == "2.12"
    assert format_cell(2.135) == "2.14"
    assert format_cell(None) == ""


def test_misaligned_vectors_rejected():
    records = _records([(("a",), ("a",), ("a",))])
    with pytest.raises(ValueError):
        evaluate_all(records, [])


def test_bleu_zero_corpus_reports_diagnostics():
    # no 3-gram or 4-gram of the prediction matches, so BLEU is 0
    records = _records([(("a", "b", "c", "d"), ("a", "b", "x", "y"), ("a", "b", "c", "d"))])
    report = evaluate_all(records)
    assert report.bleu == 0.0
    assert report.diagnostics["bleu_zero_match_orders"] == [3, 4]
    text = report_text(report)
    assert text.splitlines()[-1] == "# diagnostics={'bleu_zero_match_orders': [3, 4]}"
    assert len(report_csv(report).splitlines()) == 2
