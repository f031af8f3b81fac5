"""Seeded, download-free inputs for the benchmark workloads.

Everything here is a pure function of the seed and the requested sizes.
Row shapes (sentence length and edit kind) are laid out in a fixed order.
Edits insert, delete, substitute and move words, and a share of the
word slots hold common function words, so shared words sit off their
aligned positions as in real paraphrase pairs. Only the content words
and the row order depend on the seed: the opening and function words of
a slot are fixed and the content words of a pair never repeat, so the
TER work of a workload is the same for every seed while the texts differ.

``Embedder`` is the one text->vector function: the loopback stub serves
it and the rapt workload writes its index with it, so equal texts always
get equal vectors.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DIM = 768
VECTOR_DECIMALS = 6
CACHE_VERSION = 4
CACHE_KEEP = 12  # cached entries kept per workload

_STARTERS = (
    ("how", "do", "i"), ("how", "can", "i"), ("what", "is", "the"), ("what", "are"),
    ("why", "is"), ("why", "do"), ("is", "it"), ("can", "i"), ("which", "is", "the"),
    ("where", "can", "i"), ("should", "i"), ("what", "does"),
)
_SYLLABLES = (
    "ka", "lo", "mi", "ren", "tu", "sa", "vel", "no", "pri", "dan", "co", "ther",
    "al", "mon", "si", "ga", "ber", "tin", "ex", "qua", "lu", "or", "pe", "zy",
)


def _vocabulary(size: int = 4000) -> list[str]:
    rng = random.Random(20220201)
    words: set[str] = set()
    while len(words) < size:
        words.add("".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3))))
    return sorted(words)


VOCAB = _vocabulary()
# Zipf-like weights: a few common words recur across sentences.
_CUM_WEIGHTS = list(np.cumsum(1.0 / np.arange(1, len(VOCAB) + 1) ** 0.6))

# Common function words: they recur inside a sentence, so a word shared by
# source and target usually has several candidate alignments. They fill a
# fixed, evenly spaced share of the word slots, the same for every seed.
FUNCTION_WORDS = ("the", "a", "to", "of", "in", "for", "and", "is", "my", "on",
                  "with", "it", "you", "that", "be", "or", "from", "best", "get", "way")
FUNCTION_SHARE = 0.45
_fixed = random.Random(2202_00535)
# _FUNCTION_AT[slot]: the function word of a slot, None for a content slot
_FUNCTION_AT = [_fixed.choice(FUNCTION_WORDS)
                if int((i + 1) * FUNCTION_SHARE) > int(i * FUNCTION_SHARE) else None
                for i in range(64)]

# Edit kinds: (rotate one block, then the shares of the words deleted,
# inserted and substituted). Deletions and insertions move every later
# shared word off its aligned position, as real paraphrases do.
EDITS = {
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
KINDS = tuple(EDITS)


@dataclass(frozen=True)
class Pair:
    id: str
    source: str
    target: str


def _content_word(rng: random.Random, used: set[str]) -> str:
    """A seeded content word that the pair does not use yet."""
    while True:
        word = rng.choices(VOCAB, cum_weights=_CUM_WEIGHTS)[0]
        if word not in used:
            used.add(word)
            return word


def _word(rng: random.Random, slot: int, used: set[str]) -> str:
    return _FUNCTION_AT[slot] or _content_word(rng, used)


def _sentence_words(rng: random.Random, n: int) -> list[str]:
    starter = list(_STARTERS[n % len(_STARTERS)])[: max(1, n - 3)]
    used: set[str] = set()
    return starter + [_word(rng, i, used) for i in range(n - len(starter))]


def _render(words: list[str]) -> str:
    """QQP look: capitalised first word, question mark glued to the last."""
    return (" ".join(words)[:1].upper() + " ".join(words)[1:] + "?") if words else ""


def _edit_count(share: float, n: int) -> int:
    return max(1, round(share * (n + 1))) if share else 0


def _spread(count: int, n: int) -> list[int]:
    """``count`` fixed positions spread evenly over ``n`` slots."""
    return [(2 * i + 1) * n // (2 * count) for i in range(count)]


def _paraphrase(rng: random.Random, words: list[str], kind: str) -> list[str]:
    rotate, del_share, ins_share, sub_share = EDITS[kind]
    n = len(words)
    out, used = list(words), set(words)
    if rotate:
        # move one block of a quarter of the words to the front
        size, start = max(1, n // 4), max(1, n // 3)
        out = out[start : start + size] + out[:start] + out[start + size :]
    # Fixed positions keep the edit counts, and so the TER work, seed-stable.
    for pos in reversed(_spread(_edit_count(del_share, n), n)):
        del out[pos]
    for pos in reversed(_spread(_edit_count(ins_share, n), len(out))):
        out.insert(pos, _word(rng, pos, used))
    subs = _edit_count(sub_share, n)
    for pos in range(len(out) - 1, -1, -max(1, len(out) // max(subs, 1)))[:subs]:
        out[pos] = _content_word(rng, used)
    return out


def _shapes(count: int, lengths: range) -> list[tuple[int, str]]:
    """The first ``count`` (length, kind) cells of a fixed interleaved grid."""
    nl, nk = len(lengths), len(KINDS)
    cells = [(lengths[i % nl], KINDS[(i // nl + i) % nk]) for i in range(nl * nk)]
    return [cells[i % len(cells)] for i in range(count)]


def make_pairs(
    seed: int,
    count: int,
    lengths: range,
    repeat_share: float = 0.0,
    repeat_source_only: bool = False,
    empty_rows: int = 0,
    prefix: str = "r",
) -> list[Pair]:
    """``count`` QQP-shaped pairs; a fixed share repeat earlier rows exactly
    (or only their source), and ``empty_rows`` sources are whitespace."""
    rng = random.Random(seed)
    n_repeat = int(count * repeat_share)
    n_base = count - n_repeat - empty_rows
    rows: list[tuple[str, str]] = []
    for n, kind in _shapes(n_base, lengths):
        words = _sentence_words(rng, n)
        rows.append((_render(words), _render(_paraphrase(rng, words, kind))))
    # Repeats copy rows at fixed grid positions, so their cost is seed-stable.
    stride = max(1, n_base // max(n_repeat, 1))
    for j in range(n_repeat):
        source, target = rows[(j * stride) % n_base]
        if repeat_source_only:
            words = source[:-1].lower().split()
            target = _render(_paraphrase(rng, words, KINDS[j % len(KINDS)]))
        rows.append((source, target))
    rows += [(" \t ", "Nothing to rate here?")] * empty_rows
    rng.shuffle(rows)
    return [Pair(f"{prefix}{i}", s, t) for i, (s, t) in enumerate(rows)]


TOKEN_NONZEROS = 16  # dimensions each token touches


def _token_code(token: str) -> tuple[np.ndarray, np.ndarray]:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "little"))
    dims = rng.choice(DIM, size=TOKEN_NONZEROS, replace=False)
    return dims, rng.choice((-1.0, 1.0), size=TOKEN_NONZEROS)


class Embedder:
    """Hashed bag-of-words sentence vectors: every token (lower-cased
    whitespace word) adds +-1 on 16 of the 768 dimensions chosen by its
    hash. Sums of small integers are exact, so a text's vector does not
    depend on the batch it is embedded in. Vectors are unit-normalised and
    rounded so they survive a JSON round trip unchanged; a text with no
    tokens maps to the code of the empty token, so no norm is zero."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._dims: list[np.ndarray] = []
        self._signs: list[np.ndarray] = []

    def _token_ids(self, text: str) -> list[int]:
        ids = []
        for token in text.lower().split() or [""]:
            if token not in self._ids:
                self._ids[token] = len(self._dims)
                dims, signs = _token_code(token)
                self._dims.append(dims)
                self._signs.append(signs)
            ids.append(self._ids[token])
        return ids

    def embed(self, texts: list[str]) -> np.ndarray:
        token_ids = [self._token_ids(t) for t in texts]
        dims, signs = np.array(self._dims), np.array(self._signs)
        flat = np.fromiter((i for ids in token_ids for i in ids), dtype=np.int64)
        rows = np.repeat(np.arange(len(token_ids)), [len(ids) for ids in token_ids])
        cells = (rows[:, None] * DIM + dims[flat]).ravel()
        sums = np.bincount(cells, weights=signs[flat].ravel(), minlength=len(token_ids) * DIM)
        sums = sums.reshape(len(token_ids), DIM)
        norms = np.sqrt((sums * sums).sum(axis=1))
        zero = norms == 0.0
        sums[zero, 0], norms[zero] = 1.0, 1.0
        return np.round(sums / norms[:, None], VECTOR_DECIMALS)


# ---------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Spec:
    train: int
    test: int
    lengths: range
    repeat_share: float
    repeat_source_only: bool
    empty_rows: int
    query_copy_share: float = 0.0


SPECS = {
    # label only; 6-40 words, 10% exact repeats, 4 whitespace-only sources
    "label-long": Spec(train=100, test=0, lengths=range(6, 41), repeat_share=0.1,
                       repeat_source_only=False, empty_rows=4),
    # QQP-140k train size; 8% repeated sources; a quarter of the queries copy
    # a repeated train source, so cosine ties reach the top-k
    "rapt-qqp140k": Spec(train=134_206, test=80, lengths=range(6, 41), repeat_share=0.08,
                         repeat_source_only=True, empty_rows=0, query_copy_share=0.25),
    # short pairs, no repeats, test split large relative to train
    "pipeline-http": Spec(train=500, test=250, lengths=range(6, 17), repeat_share=0.0,
                          repeat_source_only=False, empty_rows=0),
}


@dataclass
class Inputs:
    train: list[Pair]
    test: list[Pair]
    planted_empty: int


def _make_inputs(workload: str, seed: int) -> Inputs:
    spec = SPECS[workload]
    train = make_pairs(seed, spec.train, spec.lengths, spec.repeat_share,
                       spec.repeat_source_only, spec.empty_rows, prefix="t")
    test = make_pairs(seed + 7_919_000, spec.test, spec.lengths, prefix="q") if spec.test else []
    if spec.query_copy_share:
        seen: dict[str, int] = {}
        for p in train:
            seen[p.source] = seen.get(p.source, 0) + 1
        repeated = sorted(s for s, c in seen.items() if c > 1)
        rng = random.Random(seed + 1)
        for i in range(int(len(test) * spec.query_copy_share)):
            q = test[i]
            test[i] = Pair(q.id, rng.choice(repeated), q.target)
    return Inputs(train, test, spec.empty_rows)


def load_inputs(workload: str, seed: int, cache_dir: Path) -> Inputs:
    """Generated inputs, cached on disk by (workload, seed, sizes)."""
    spec = SPECS[workload]
    key = f"{workload}-s{seed}-{spec.train}x{spec.test}-v{CACHE_VERSION}.json"
    path = cache_dir / key
    if path.exists():
        obj = json.loads(path.read_text(encoding="utf-8"))
        return Inputs([Pair(*r) for r in obj["train"]], [Pair(*r) for r in obj["test"]],
                      obj["planted_empty"])
    inputs = _make_inputs(workload, seed)
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({
        "train": [[p.id, p.source, p.target] for p in inputs.train],
        "test": [[p.id, p.source, p.target] for p in inputs.test],
        "planted_empty": inputs.planted_empty,
    }), encoding="utf-8")
    tmp.replace(path)
    old = sorted(cache_dir.glob(f"{workload}-s*.json"), key=lambda p: p.stat().st_mtime)
    for stale in old[:-CACHE_KEEP]:
        stale.unlink(missing_ok=True)
    return inputs
