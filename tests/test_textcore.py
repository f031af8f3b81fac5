import itertools
import sys
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from paraprompt import textcore
from paraprompt.textcore import (
    DEFAULT_NORMALIZATION,
    NormalizationConfig,
    ngram_windows,
    normalize,
    render,
)

from oracles import split_punctuation_per_char


def test_normalize_all_rules():
    assert normalize("How do I Learn?") == ("how", "do", "i", "learn", "?")


def test_normalize_empty():
    assert normalize("") == ()


def test_collapse_whitespace():
    assert normalize("a  b") == ("a", "b")


def test_normalize_unicode_composition():
    # e + combining acute composes to a single scalar under NFC
    decomposed = "café"
    assert normalize(decomposed) == ("café",)


def test_punctuation_split_off():
    cfg = NormalizationConfig(punctuation_split=False)
    assert normalize("learn?", cfg) == ("learn?",)


def test_punctuation_map_pads_as_the_per_character_loop_on_every_code_point():
    # a map of the test's own, so the module's memo stays small; each chunk
    # puts every code point between two others, surrogates included
    table = textcore._PunctuationSpacing()
    for lo in range(0, sys.maxunicode + 1, 0x10000):
        text = "".join(map(chr, range(lo, lo + 0x10000)))
        assert text.translate(table) == split_punctuation_per_char(text), hex(lo)


# every code point that str.split() splits on, and every setting
_WHITESPACE = [ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace()]
_SETTINGS = [NormalizationConfig(*flags) for flags in itertools.product([False, True], repeat=3)]


@given(st.text(st.one_of(st.sampled_from(_WHITESPACE), st.characters())))
def test_a_text_normalizes_to_no_token_exactly_when_it_is_blank(text):
    # index drops a blank source without reading the normalization settings
    for cfg in _SETTINGS:
        assert (normalize(text, cfg) == ()) == (not text.strip())


def test_tokens_have_no_whitespace():
    for tok in normalize("a\tb\nc  d, e."):
        assert not any(ch.isspace() for ch in tok)
        assert tok


text_strategy = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60
)


@given(text_strategy)
def test_normalize_idempotent(text):
    once = normalize(text)
    again = normalize(render(once))
    assert once == again


def test_ngrams_unigram_counts():
    assert Counter(ngram_windows(("a", "b", "a"), 1)) == {("a",): 2, ("b",): 1}


def test_ngrams_window_longer_than_sequence():
    assert ngram_windows(("a", "b"), 4) == []


def test_ngrams_repeated_bigram():
    assert Counter(ngram_windows(("a", "a", "a"), 2)) == {("a", "a"): 2}


@pytest.mark.parametrize("n", [0, 5, -1])
def test_ngrams_order_out_of_range(n):
    with pytest.raises(ValueError):
        ngram_windows(("a",), n)


@given(st.lists(st.sampled_from("abc"), max_size=12), st.integers(1, 4))
def test_window_count_identity(tokens, n):
    seq = tuple(tokens)
    windows = ngram_windows(seq, n)
    assert len(windows) == max(0, len(seq) - n + 1)
    assert sum(Counter(windows).values()) == len(windows)


def test_default_config_records_all_rules():
    assert DEFAULT_NORMALIZATION.as_dict() == {
        "lowercase": True,
        "unicode_normalize": True,
        "punctuation_split": True,
    }
