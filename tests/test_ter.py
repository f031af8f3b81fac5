import importlib
import random

import pytest

from paraprompt.metrics import MAX_SHIFT_BLOCK, levenshtein, self_ter, ter, ter_detail

from oracles import (
    _matching_blocks,
    exhaustive_min_ter,
    greedy_ter_dp,
    lev_recursive,
    levenshtein_dp,
)

# ``paraprompt.metrics.ter`` as an attribute is the function, not the module.
ter_module = importlib.import_module("paraprompt.metrics.ter")

ALPHABET = ["a", "b", "c", "d", "e"]


def rand_seq(rng, low, high):
    return tuple(rng.choice(ALPHABET) for _ in range(rng.randint(low, high)))


def test_identical_sequences():
    assert ter(("x", "y"), ("x", "y")) == 0.0


def test_single_insertion():
    # one insertion over a 4-token reference; no shift helps
    assert ter(("a", "b", "d"), ("a", "b", "c", "d")) == 0.25


def test_block_shift_beats_plain_edits():
    hyp = ("c", "d", "a", "b")
    ref = ("a", "b", "c", "d")
    assert ter(hyp, ref) == 0.25
    assert levenshtein(hyp, ref) / len(ref) == 1.0


def test_shift_details_exposed():
    detail = ter_detail(("c", "d", "a", "b"), ("a", "b", "c", "d"))
    assert detail.shifts == 1
    assert detail.edits == 1


def test_empty_hypothesis_is_all_deletions():
    assert ter((), ("a", "b")) == 1.0


def test_empty_reference_rejected():
    with pytest.raises(ValueError):
        ter(("a",), ())


def test_levenshtein_against_recursive_oracle():
    rng = random.Random(3)
    for _ in range(300):
        a = rand_seq(rng, 0, 7)
        b = rand_seq(rng, 0, 7)
        assert levenshtein(a, b) == lev_recursive(a, b) == levenshtein_dp(a, b)


def test_levenshtein_matches_dp_across_word_boundary():
    rng = random.Random(17)
    words = [f"w{i}" for i in range(12)]
    for _ in range(300):
        a = [rng.choice(words) for _ in range(rng.randint(0, 140))]
        b = [rng.choice(words) for _ in range(rng.randint(0, 140))]
        assert levenshtein(a, b) == levenshtein_dp(a, b)


def test_greedy_matches_dp_engine_on_dense_ties():
    rng = random.Random(23)
    for _ in range(20_000):
        alphabet = ALPHABET[: rng.randint(3, 5)]
        hyp = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
        ref = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
        assert levenshtein(hyp, ref) == levenshtein_dp(hyp, ref)
        if ref:
            assert ter_detail(hyp, ref) == greedy_ter_dp(hyp, ref), (hyp, ref)


def _long_pair(rng):
    """A 30-90 token reference and a hypothesis with one nearby block
    move, a few substitutions and length changes near the end."""
    ref = [
        rng.choice(("the", "a", "of")) if rng.random() < 0.05 else f"w{rng.randrange(400)}"
        for _ in range(rng.randint(30, 90))
    ]
    hyp = list(ref)
    size = rng.randint(1, 3)
    start = rng.randrange(len(hyp) - size)
    block = hyp[start : start + size]
    del hyp[start : start + size]
    at = min(len(hyp), max(0, start + rng.randint(-3, 3)))
    hyp[at:at] = block
    for _ in range(rng.randint(0, 3)):
        hyp[rng.randrange(len(hyp))] = f"x{rng.randrange(50)}"
    for _ in range(rng.randint(0, 2)):
        pos = rng.randrange(len(hyp) - 3, len(hyp))
        if rng.random() < 0.5:
            del hyp[pos]
        else:
            hyp.insert(pos, "the")
    return hyp, ref


def test_greedy_matches_dp_engine_on_long_pairs():
    rng = random.Random(29)
    wide = 0
    for _ in range(300):
        hyp, ref = _long_pair(rng)
        assert ter_detail(hyp, ref) == greedy_ter_dp(hyp, ref), (hyp, ref)
        wide += len(ref) > 64
    assert wide >= 50


def test_pruned_search_scores_fewer_candidates_than_it_enumerates(monkeypatch):
    # Each round opens with one _advance call over the whole hypothesis
    # that records the prefix columns; every other call scores one
    # candidate, except the opening levenshtein of each pair.
    advance = ter_module._advance
    rounds = []
    plain_calls = 0

    def counting(table, ref_len, tokens, column, trail=None):
        nonlocal plain_calls
        if trail is None:
            plain_calls += 1
        else:
            rounds.append(list(tokens))
        return advance(table, ref_len, tokens, column, trail)

    monkeypatch.setattr(ter_module, "_advance", counting)
    rng = random.Random(29)
    scored = enumerated = 0
    for _ in range(300):
        hyp, ref = _long_pair(rng)
        rounds.clear()
        plain_calls = 0
        ter_detail(hyp, ref)
        scored += plain_calls - 1
        enumerated += sum(len(_matching_blocks(cur, ref, MAX_SHIFT_BLOCK)) for cur in rounds)
    # The unpruned search scores every enumerated block; the bound-ordered
    # search scored 57% of them here.
    assert enumerated > 5000
    assert scored < 0.75 * enumerated


# Hand-built pairs for the cuts of the pruned shift search. A candidate's
# bound is 2 * min(block length, distance to its clamped destination),
# capped at the distance minus the length gap.
@pytest.mark.parametrize("hyp, ref, expected", [
    # Round one: "c d" at 0 moved to 3 (bound 4) and "c d c" moved to 1
    # (bound 2) both save 2; the longer block wins and a second shift
    # follows.
    pytest.param("c d c c a b d", "c c d c d e e", (4, 2), id="tie-longer-block-sorted-later"),
    # Round one: the 2-token block at 0 saves 2 moved to 3 (bound 4) and
    # moved to 1 (bound 2); the leftmost destination wins and a second
    # shift follows.
    pytest.param("a b c c c b", "c a b a b a", (4, 2), id="tie-nearer-dest-sorted-later"),
    pytest.param("c d a b d d", "a c d c d b", (3, 2), id="tie-nearer-dest-sorted-later-2"),
    # One deletion away, so no length-keeping shift helps; "the" and
    # "dog" still match reference spans elsewhere.
    pytest.param("the cat saw the dog", "the cat saw dog", (1, 0), id="distance-at-length-gap"),
    # "a b" at 1 matches the reference at 3, past len(hyp) - 2, so it lands
    # at 2: one position moved, a bound of 2, met exactly.
    pytest.param("a a b b", "c b c a b", (3, 1), id="clamped-destination"),
])
def test_pruning_edge_cases_match_dp_engine(hyp, ref, expected):
    hyp, ref = hyp.split(), ref.split()
    detail = ter_detail(hyp, ref)
    assert detail == greedy_ter_dp(hyp, ref)
    assert (detail.edits, detail.shifts) == expected


FUNCTION_WORDS = ("the", "a", "to", "of", "in", "for", "is", "my")
# (rotate a block to the front, deleted, inserted, substituted word shares)
EDIT_KINDS = {
    "copy": (False, 0.0, 0.0, 0.0),
    "sub_low": (False, 0.0, 0.0, 0.1),
    "ins_low": (False, 0.0, 0.06, 0.0),
    "rot": (True, 0.0, 0.0, 0.0),
    "del_sub_med": (False, 0.1, 0.05, 0.2),
    "ins_sub_med": (False, 0.0, 0.12, 0.2),
    "rot_ins_med": (True, 0.0, 0.08, 0.1),
    "ins_del_high": (False, 0.08, 0.2, 0.25),
    "rot_sub_high": (True, 0.0, 0.05, 0.4),
}


def _paraphrase_pair(rng, n, kind):
    """A QQP-like question of ``n`` words whose every other word is a
    recurring function word, and its paraphrase under one edit kind."""
    fresh = iter(f"c{i}" for i in range(1000))
    source = [rng.choice(FUNCTION_WORDS) if i % 2 else next(fresh) for i in range(n)]
    rotate, del_share, ins_share, sub_share = EDIT_KINDS[kind]
    target = list(source)
    if rotate:
        size, start = max(1, n // 4), max(1, n // 3)
        target = target[start : start + size] + target[:start] + target[start + size :]
    for _ in range(round(del_share * n)):
        del target[rng.randrange(len(target))]
    for _ in range(round(ins_share * n)):
        target.insert(rng.randint(0, len(target)), rng.choice(FUNCTION_WORDS))
    for _ in range(round(sub_share * n)):
        target[rng.randrange(len(target))] = next(fresh)
    return target, source


@pytest.mark.parametrize("kind", sorted(EDIT_KINDS))
def test_greedy_matches_dp_engine_on_paraphrase_edits(kind):
    rng = random.Random(kind)
    for n in (6, 13, 21, 30, 40):
        hyp, ref = _paraphrase_pair(rng, n, kind)
        assert ter_detail(hyp, ref) == greedy_ter_dp(hyp, ref), (hyp, ref)


def test_greedy_bounded_by_levenshtein_and_length_gap():
    rng = random.Random(11)
    for _ in range(400):
        ref = rand_seq(rng, 1, 8)
        hyp = rand_seq(rng, 0, 8)
        rate = ter(hyp, ref)
        assert rate <= levenshtein(hyp, ref) / len(ref) + 1e-12
        assert rate >= abs(len(hyp) - len(ref)) / len(ref) - 1e-12


def test_greedy_never_below_exhaustive_minimum():
    rng = random.Random(5)
    equal = 0
    cases = 200
    for _ in range(cases):
        ref = rand_seq(rng, 1, 6)
        hyp = rand_seq(rng, 0, 6)
        greedy = ter(hyp, ref)
        minimum = exhaustive_min_ter(hyp, ref)
        assert greedy >= minimum - 1e-12
        equal += abs(greedy - minimum) < 1e-12
    assert equal / cases >= 0.95


def test_self_ter_copy_is_zero():
    summary = self_ter([(("a", "b"), ("a", "b")), (("c",), ("c",))])
    assert summary.percent == 0.0
    assert summary.skipped == 0


def test_self_ter_single_record():
    summary = self_ter([(("x",), ("a", "b"))])
    assert summary.percent == 100.0


def test_self_ter_is_mean_of_rates():
    # rates 0.2 and 0.4 average to 30 percent
    records = [
        (("a", "b", "c", "d", "x"), ("a", "b", "c", "d", "e")),
        (("a", "b", "c", "x", "y"), ("a", "b", "c", "d", "e")),
    ]
    assert ter(*records[0]) == 0.2
    assert ter(*records[1]) == 0.4
    assert self_ter(records).percent == pytest.approx(30.0)


def test_self_ter_skips_empty_sources():
    summary = self_ter([(("a",), ()), (("a",), ("a",))])
    assert summary.percent == 0.0
    assert summary.skipped == 1
    assert summary.scored == 1


def test_self_ter_empty_corpus_rejected():
    with pytest.raises(ValueError):
        self_ter([])

