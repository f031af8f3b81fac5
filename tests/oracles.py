"""Independent oracles the tests check the library against.

Each oracle is deliberately written along a different path than the
implementation it validates: recursive edit distance with memoization,
the row-by-row edit-distance DP and the greedy shift search built on it
(the library's former TER engine, whose candidates now resume the DP
from the row of the prefix they share), breadth-first search over block
moves for minimum TER, a string-keyed SARI port, window-by-window BLEU
counting, the library's former per-character punctuation split, a
no-numpy kNN sort, a shortlist-free kNN scan, the library's former
per-row packing of embedding files, its former per-row pair writer, its
former JSONL readers, which call ``json.loads`` once per line, its former
TSV reader with its own row rules, its former ``cosine`` whose zero-norm
error the BERT column caught by its message, and its former random
sampler, which lists every row not excluded. The prompt-layout grammar
check and the JSON-to-layout reader serve only the tests, so they live
here too.
"""

from __future__ import annotations

import json
import math
import random
import re
import struct
import unicodedata
from collections import Counter
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from paraprompt.dataio import DataFormatError, ParaphrasePair, _numbered_lines, _open_text, write_jsonl
from paraprompt.metrics import MAX_SHIFT_BLOCK, SemanticSummary, TerResult
from paraprompt.novelty import NoveltyClass
from paraprompt.retrieval import RetrievalIndex, _ranked, _unit_query
from paraprompt.promptkit import (
    AssemblyError,
    PromptExample,
    PromptLayout,
    PromptSegment,
    SegmentKind,
    SlotSpec,
)


def lev_recursive(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        if a[i] == b[j]:
            return go(i + 1, j + 1)
        return 1 + min(go(i + 1, j), go(i, j + 1), go(i + 1, j + 1))

    return go(0, 0)


def levenshtein_dp(a: Sequence[str], b: Sequence[str]) -> int:
    """Word-level edit distance (insert/delete/substitute, unit costs)."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, tok_a in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, tok_b in enumerate(b, start=1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (tok_a != tok_b),
            )
        prev = cur
    return prev[-1]


def _matching_blocks(
    hyp: list[str], ref: Sequence[str], max_block: int
) -> list[tuple[int, int, int]]:
    out = []
    for i in range(len(hyp)):
        for j in range(len(ref)):
            if i == j and hyp[i] == ref[j]:
                continue
            length = 0
            while (
                i + length < len(hyp)
                and j + length < len(ref)
                and length < max_block
                and hyp[i + length] == ref[j + length]
            ):
                length += 1
                out.append((i, j, length))
    return out


def _apply_shift(hyp: list[str], start: int, length: int, dest: int) -> list[str]:
    block = hyp[start : start + length]
    rest = hyp[:start] + hyp[start + length :]
    dest = min(dest, len(rest))
    return rest[:dest] + block + rest[dest:]


def _dp_resume(row: list[int], i: int, tokens: Sequence[str], ref: Sequence[str]) -> list[int]:
    """The edit-distance DP row after ``tokens`` more hypothesis tokens,
    resumed from ``row``, the row of the first ``i``."""
    for i, tok in enumerate(tokens, start=i + 1):
        cur = [i] + [0] * len(ref)
        for j, tok_ref in enumerate(ref, start=1):
            cur[j] = min(row[j] + 1, cur[j - 1] + 1, row[j - 1] + (tok != tok_ref))
        row = cur
    return row


def greedy_ter_dp(
    hypothesis: Sequence[str],
    reference: Sequence[str],
    max_block: int = MAX_SHIFT_BLOCK,
) -> TerResult:
    """Greedy-shift TER scoring every shift candidate with the row-by-row
    DP. It once re-ran the whole DP per candidate; now each candidate
    resumes from the DP row of the prefix it shares with the current
    hypothesis, which gives the same distances."""
    if len(reference) == 0:
        raise ValueError("TER is undefined against an empty reference")
    cur = list(hypothesis)
    ref = list(reference)
    dist = levenshtein_dp(cur, ref)
    shifts = 0
    while dist > 0:
        # rows[i] is the DP row of cur[:i]
        rows = [list(range(len(ref) + 1))]
        for i, tok in enumerate(cur):
            rows.append(_dp_resume(rows[i], i, [tok], ref))
        # (reduction, -start, length, -dest): max picks the largest
        # reduction, then leftmost start, longest block, leftmost dest.
        best_key = None
        best_seq = None
        best_dist = None
        for start, dest, length in _matching_blocks(cur, ref, max_block):
            cand = _apply_shift(cur, start, length, dest)
            # the shift leaves cur[:min(start, dest)] in place
            shared = min(start, dest)
            while shared < len(cur) and cand[shared] == cur[shared]:
                shared += 1
            cand_dist = _dp_resume(rows[shared], shared, cand[shared:], ref)[-1]
            if cand_dist >= dist:
                continue
            key = (dist - cand_dist, -start, length, -dest)
            if best_key is None or key > best_key:
                best_key = key
                best_seq = cand
                best_dist = cand_dist
        if best_seq is None:
            break
        cur = best_seq
        dist = best_dist
        shifts += 1
    return TerResult(edits=shifts + dist, shifts=shifts, reference_length=len(ref))


def _block_moves(seq: tuple[str, ...]):
    n = len(seq)
    for start in range(n):
        for length in range(1, n - start + 1):
            block = seq[start : start + length]
            rest = seq[:start] + seq[start + length :]
            for dest in range(len(rest) + 1):
                if dest == start:
                    continue
                yield rest[:dest] + block + rest[dest:]


def exhaustive_min_ter(hyp: tuple[str, ...], ref: tuple[str, ...]) -> float:
    """True minimum (shifts + edit distance) / |ref| by BFS over all block
    moves, unconstrained. Only feasible for short sequences."""
    assert len(ref) > 0
    best = lev_recursive(hyp, ref)
    dist_to: dict[tuple[str, ...], int] = {hyp: 0}
    frontier = [hyp]
    shifts = 0
    while frontier and shifts + 1 < best:
        shifts += 1
        next_frontier = []
        for state in frontier:
            for moved in _block_moves(state):
                if moved in dist_to:
                    continue
                dist_to[moved] = shifts
                best = min(best, shifts + lev_recursive(moved, ref))
                next_frontier.append(moved)
        frontier = next_frontier
    return best / len(ref)


def split_punctuation_per_char(text: str) -> str:
    """Each punctuation character (Unicode category P*) padded with a space
    on each side, one character at a time: the library's former loop."""
    out: list[str] = []
    for ch in text:
        if unicodedata.category(ch).startswith("P"):
            out.append(" ")
            out.append(ch)
            out.append(" ")
        else:
            out.append(ch)
    return "".join(out)


def brute_knn(
    vectors: list[tuple[str, list[float]]],
    query: list[float],
    k: int,
    exclude: set[str] = frozenset(),
) -> list[tuple[str, float]]:
    """Cosine top-k by full sort, pure python, ties by insertion order."""

    def cos(u: list[float], v: list[float]) -> float:
        dot = sum(x * y for x, y in zip(u, v))
        nu = math.sqrt(sum(x * x for x in u))
        nv = math.sqrt(sum(y * y for y in v))
        return dot / (nu * nv)

    scored = [
        (i, rid, cos(vec, query))
        for i, (rid, vec) in enumerate(vectors)
        if rid not in exclude
    ]
    scored.sort(key=lambda t: (-t[2], t[0]))
    return [(rid, sim) for _, rid, sim in scored[:k]]


def knn_full_scan(
    matrix: np.ndarray, unit: np.ndarray, k: int, exclude: set[int] = frozenset()
) -> list[tuple[int, float]]:
    """(row, similarity) top-k with no product-score shortlist: the library's
    per-row reduction on every row, a stable sort, then the excluded rows
    dropped."""
    sims = np.multiply(matrix, unit).sum(axis=1)
    order = np.argsort(-sims, kind="stable")
    return [(int(i), float(sims[i])) for i in order if int(i) not in exclude][:k]


def pack_embeddings_per_row(magic: bytes, vectors: list[Sequence[float]]) -> bytes:
    """Embedding-file bytes packed one row at a time with ``struct``."""
    dim = len(vectors[0]) if vectors else 0
    payload = bytearray(magic + struct.pack("<II", len(vectors), dim))
    for vector in vectors:
        payload += struct.pack(f"<{dim}f", *[float(v) for v in vector])
    return bytes(payload)


def write_pairs_per_row(path: str | Path, pairs: Iterable[ParaphrasePair]) -> None:
    """The library's former ``write_pairs``: one dict per pair through
    ``write_jsonl``."""
    write_jsonl(path, ({"id": p.id, "source": p.source, "target": p.target} for p in pairs))


def load_pairs_per_line(path: str | Path) -> list[ParaphrasePair]:
    """The pairs of a JSONL file, read as the library's former
    ``load_pairs`` read them: ``json.loads`` of each line without its
    newline, a blank line being one that ``str.strip`` empties. Fields are
    taken with ``str()``, so only string fields and string or integer ids
    read as the library reads them now."""
    pairs: list[ParaphrasePair] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise DataFormatError(path, lineno, f"invalid JSON: {err.msg}") from err
            if not isinstance(obj, dict) or "source" not in obj:
                raise DataFormatError(path, lineno, 'expected an object with a "source" field')
            try:
                pair = ParaphrasePair(
                    id=str(obj.get("id", str(len(pairs)))),
                    source=str(obj["source"]),
                    target=str(obj.get("target", "")),
                )
            except ValueError as err:
                raise DataFormatError(path, lineno, str(err)) from err
            if pair.id in seen:
                raise DataFormatError(path, lineno, f"duplicate id {pair.id!r}")
            seen.add(pair.id)
            pairs.append(pair)
    return pairs


def load_tsv_per_line(path: str | Path) -> list[ParaphrasePair]:
    """The pairs of a TSV file, read as the library's former ``load_pairs``
    read them, through the library's line reader: its own column split,
    ``ParaphrasePair``'s ``ValueError`` re-raised as a ``DataFormatError``,
    and a dict of the ids so far."""
    by_id: dict[str, ParaphrasePair] = {}
    with _open_text(path) as fh:
        for lineno, raw in _numbered_lines(path, fh):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            cols = line.split("\t")
            if len(cols) == 2:
                row_id, source, target = str(len(by_id)), cols[0], cols[1]
            elif len(cols) == 3:
                row_id, source, target = cols
            else:
                raise DataFormatError(path, lineno, f"expected 2 or 3 tab-separated columns, got {len(cols)}")
            try:
                pair = ParaphrasePair(id=row_id, source=source, target=target)
            except ValueError as err:
                raise DataFormatError(path, lineno, str(err)) from err
            if pair.id in by_id:
                raise DataFormatError(path, lineno, f"duplicate id {pair.id!r}")
            by_id[pair.id] = pair
    return list(by_id.values())


def cosine(u: Sequence[float], v: Sequence[float]) -> float:
    """The library's former ``cosine``: a zero-norm vector is a ``ValueError``."""
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"vector dimensions differ: {a.shape} vs {b.shape}")
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cosine undefined for zero-norm vector")
    if np.array_equal(a, b):
        return 1.0
    return float(np.dot(a, b) / (norm_a * norm_b))


def semantic_similarity_by_message(
    vector_pairs: Sequence[tuple[Sequence[float], Sequence[float]]]
) -> SemanticSummary:
    """The library's former BERT column: ``cosine`` of each pair, leaving
    out a pair whose error says "zero-norm"."""
    if not vector_pairs:
        raise ValueError("semantic similarity needs a non-empty corpus")
    total = 0.0
    scored = 0
    excluded = 0
    for source_vec, prediction_vec in vector_pairs:
        try:
            total += cosine(source_vec, prediction_vec)
        except ValueError as err:
            if "zero-norm" in str(err):
                excluded += 1
                continue
            raise
        scored += 1
    return SemanticSummary(
        percent=100.0 * total / scored if scored else None, scored=scored, excluded=excluded
    )


def query_random_per_scan(
    index: RetrievalIndex, query: Sequence[float], k: int, exclude: set[str] = frozenset(), seed: int = 0
) -> list[tuple[int, float]]:
    """The library's former ``query_random``: a list of every row not
    excluded, sampled, then ranked by the library's ``_ranked``."""
    unit = _unit_query(index, query, k)
    if unit is None:
        return []
    rows: Sequence[int] = range(len(index))
    if exclude:
        rows = [row for row, rid in enumerate(index._ids) if rid not in exclude]
    chosen = random.Random(seed).sample(rows, min(k, len(rows)))
    return _ranked(index, unit, np.array(chosen, dtype=np.intp), k, exclude)


def load_jsonl_objects_per_line(path: str | Path, required: Sequence[str]) -> list[dict]:
    """The library's former ``load_jsonl_objects``: ``json.loads`` of each
    line after ``str.strip``, skipping the lines that leaves empty."""
    rows = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise DataFormatError(path, lineno, f"invalid JSON: {err.msg}") from err
            if not isinstance(obj, dict) or any(key not in obj for key in required):
                raise DataFormatError(path, lineno, f"expected an object with {', '.join(required)}")
            rows.append(obj)
    return rows


def bleu_oracle(pairs: list[tuple[tuple[str, ...], list[tuple[str, ...]]]]) -> float:
    """Corpus BLEU4 recomputed from scratch with explicit window loops."""
    matched = [0] * 4
    total = [0] * 4
    hyp_len = 0
    ref_len = 0
    for pred, refs in pairs:
        hyp_len += len(pred)
        ref_len += min(refs, key=lambda r: (abs(len(r) - len(pred)), len(r))).__len__()
        for n in range(1, 5):
            windows = [pred[i : i + n] for i in range(len(pred) - n + 1)]
            counts = Counter(windows)
            best: Counter = Counter()
            for ref in refs:
                rc = Counter(ref[i : i + n] for i in range(len(ref) - n + 1))
                for g, c in rc.items():
                    best[g] = max(best[g], c)
            matched[n - 1] += sum(min(c, best[g]) for g, c in counts.items())
            total[n - 1] += len(windows)
    if any(m == 0 for m in matched):
        return 0.0
    log_p = sum(math.log(m / t) for m, t in zip(matched, total)) / 4
    bp = 1.0 if hyp_len >= ref_len else math.exp(1 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_p)


def sari_reference(source: str, prediction: str, references: list[str]) -> float:
    """String-keyed port of the metric's released reference implementation
    (keep/add as F1, delete as precision, 0/0 -> 0), without the
    identical-triple keep exception."""

    def grams(sent: str, n: int) -> list[str]:
        toks = sent.split(" ") if sent else []
        if n == 1:
            return toks
        return [" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)]

    numref = len(references)
    keep_scores, del_scores, add_scores = [], [], []
    for n in range(1, 5):
        s = Counter({g: c * numref for g, c in Counter(grams(source, n)).items()})
        c = Counter({g: v * numref for g, v in Counter(grams(prediction, n)).items()})
        r: Counter = Counter()
        for ref in references:
            r.update(grams(ref, n))

        keep = s & c
        keep_good = keep & r
        keep_all = s & r
        kp = sum(keep_good[g] / keep[g] for g in keep_good) / len(keep) if keep else 0
        kr = (
            sum(keep_good[g] / keep_all[g] for g in keep_good) / len(keep_all)
            if keep_all
            else 0
        )
        keep_scores.append(2 * kp * kr / (kp + kr) if kp + kr > 0 else 0)

        dele = s - c
        del_good = dele - r
        dp = sum(del_good[g] / dele[g] for g in del_good) / len(dele) if dele else 0
        del_scores.append(dp)

        added = set(c) - set(s)
        add_good = added & set(r)
        add_all = set(r) - set(s)
        ap = len(add_good) / len(added) if added else 0
        ar = len(add_good) / len(add_all) if add_all else 0
        add_scores.append(2 * ap * ar / (ap + ar) if ap + ar > 0 else 0)

    return (sum(keep_scores) + sum(del_scores) + sum(add_scores)) / 12


LAYOUT_GRAMMAR_CHARS = {
    SegmentKind.GLOBAL_PREFIX: "G",
    SegmentKind.CLASS_PREFIX: "P",
    SegmentKind.EXAMPLE_INPUT: "E",
    SegmentKind.INFIX: "I",
    SegmentKind.EXAMPLE_OUTPUT: "O",
    SegmentKind.QUERY_INPUT: "Q",
}

_LAYOUT_GRAMMAR = re.compile(r"G?(?:PEIO)*P?QI")


def validate_structure(layout: PromptLayout) -> None:
    """Check the segment order against the layout grammar."""
    word = "".join(LAYOUT_GRAMMAR_CHARS[seg.kind] for seg in layout.segments)
    if not _LAYOUT_GRAMMAR.fullmatch(word):
        raise AssemblyError(f"segment order {word!r} violates the layout grammar")


def layout_from_json(obj: dict) -> PromptLayout:
    """The inverse of ``promptkit.layout_to_json``."""
    spec = SlotSpec(
        global_prefix_len=obj["spec"]["global_prefix_len"],
        class_prefix_len=obj["spec"]["class_prefix_len"],
        infix_len=obj["spec"]["infix_len"],
    )
    segments = []
    for seg in obj["segments"]:
        segments.append(
            PromptSegment(
                kind=SegmentKind(seg["kind"]),
                novelty=NoveltyClass.from_label(seg["class"]) if "class" in seg else None,
                slots=range(*seg["slots"]) if "slots" in seg else None,
                tokens=tuple(seg["tokens"]) if "tokens" in seg else None,
                literal=seg.get("literal"),
            )
        )
    examples = tuple(
        PromptExample(
            source=tuple(e["source"]),
            target=tuple(e["target"]),
            similarity=e["similarity"],
            novelty=NoveltyClass.from_label(e["class"]) if e.get("class") else None,
            id=e.get("id"),
        )
        for e in obj.get("examples", ())
    )
    return PromptLayout(
        segments=tuple(segments),
        spec=spec,
        examples=examples,
        slot_universe=obj.get("slot_universe", 0),
    )
