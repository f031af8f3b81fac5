"""Translation Edit Rate with greedy block shifts.

TER counts the edits (insertions, deletions, substitutions, and block
shifts, one point each) needed to turn a hypothesis into a reference,
divided by the reference length. The true minimum is intractable, so the
usual greedy search is used: repeatedly apply the shift that most reduces
the plain edit distance, then add the remaining edit distance.

A block qualifies for shifting only if it exactly matches a contiguous
span of the reference; it is moved to that span's position. Ties between
equally good shifts go to the leftmost block start, then the longest
block, then the leftmost destination. Every applied shift strictly
reduces the edit distance, so greedy TER never exceeds the shift-free
Levenshtein rate.

Edit distances are computed with the bit-parallel column recurrence of
Myers (1999) in Hyyro's (2003) global-distance form. The reference is
the pattern: its match table maps each token to the bitmask of the
reference positions holding it, and each hypothesis token advances one
DP column held as two Python ints of vertical +1/-1 deltas, so there is
no length limit. The reference is fixed for the whole greedy search, so
``ter_detail`` builds the table once. Every shift candidate shares the
prefix ``cur[:min(start, dest)]`` with the current hypothesis, so each
round records the column state after every prefix of ``cur`` and resumes
each candidate from it, stepping only through the moved suffix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..textcore import TokenSeq

# Cap on shifted-block length, as in common TER implementations. Shifts of
# longer blocks are rare and the cap keeps the search quadratic-ish.
MAX_SHIFT_BLOCK = 10


# Column state after some hypothesis prefix: (vp, vn, dist), the bitmasks
# of +1 and -1 vertical deltas down the column and the bottom cell.
_Column = tuple[int, int, int]


def _match_table(ref: Sequence[str]) -> dict[str, int]:
    table: dict[str, int] = {}
    for pos, tok in enumerate(ref):
        table[tok] = table.get(tok, 0) | (1 << pos)
    return table


def _advance(
    table: dict[str, int],
    ref_len: int,
    tokens: Sequence[str],
    column: _Column,
    trail: list[_Column] | None = None,
) -> _Column:
    """Step ``column`` through ``tokens``; append each new state to ``trail``."""
    vp, vn, dist = column
    mask = (1 << ref_len) - 1
    last = 1 << (ref_len - 1)
    for tok in tokens:
        eq = table.get(tok, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        ph = vn | ~(xh | vp)
        mh = vp & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        # The top row of the global DP grows by one per column.
        ph = (ph << 1) | 1
        mh <<= 1
        vp = (mh | ~(xv | ph)) & mask
        vn = ph & xv
        if trail is not None:
            trail.append((vp, vn, dist))
    return vp, vn, dist


def _first_column(ref_len: int) -> _Column:
    return (1 << ref_len) - 1, 0, ref_len


def levenshtein(a: Sequence[str], b: Sequence[str]) -> int:
    """Word-level edit distance (insert/delete/substitute, unit costs)."""
    if not b:
        return len(a)
    return _advance(_match_table(b), len(b), a, _first_column(len(b)))[2]


def _matching_blocks(
    hyp: list[str], ref: Sequence[str], max_block: int
) -> list[tuple[int, int, int]]:
    """All (hyp_start, ref_start, length) with hyp[i:i+l] == ref[j:j+l].

    Only maximal runs are extended token by token; every prefix length of a
    run is a candidate block, since a shorter shift is sometimes the better
    one.
    """
    out = []
    for i in range(len(hyp)):
        for j in range(len(ref)):
            if i == j and hyp[i] == ref[j]:
                # Already aligned at this offset; moving it there is a no-op.
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


@dataclass(frozen=True)
class TerResult:
    edits: int
    shifts: int
    reference_length: int

    @property
    def rate(self) -> float:
        return self.edits / self.reference_length


def ter_detail(
    hypothesis: TokenSeq,
    reference: TokenSeq,
    max_block: int = MAX_SHIFT_BLOCK,
) -> TerResult:
    """Greedy-shift TER with the edit breakdown exposed."""
    if len(reference) == 0:
        raise ValueError("TER is undefined against an empty reference")
    cur = list(hypothesis)
    ref = list(reference)
    dist = levenshtein(cur, ref)
    table = _match_table(ref)
    ref_len = len(ref)
    shifts = 0
    while dist > 0:
        # prefix[p] is the column after cur[:p].
        prefix = [_first_column(ref_len)]
        _advance(table, ref_len, cur, prefix[0], prefix)
        # (reduction, -start, length, -dest): max picks the largest
        # reduction, then leftmost start, longest block, leftmost dest.
        best_key = None
        best_seq = None
        best_dist = None
        for start, dest, length in _matching_blocks(cur, ref, max_block):
            cand = _apply_shift(cur, start, length, dest)
            # cand[:shared] == cur[:shared]; dest is clamped to
            # len(cur) - length >= start, which leaves the min unchanged.
            shared = min(start, dest)
            cand_dist = _advance(table, ref_len, cand[shared:], prefix[shared])[2]
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


def ter(hypothesis: TokenSeq, reference: TokenSeq) -> float:
    """Greedy-shift TER as a ratio >= 0 (0 means identical)."""
    return ter_detail(hypothesis, reference).rate


@dataclass(frozen=True)
class SelfTerSummary:
    percent: float
    scored: int
    skipped: int


def self_ter(pairs: Sequence[tuple[TokenSeq, TokenSeq]]) -> SelfTerSummary:
    """Mean TER(prediction, source) x 100 over (prediction, source) pairs.

    Pairs with an empty source cannot be scored; they are skipped and
    counted so callers can surface the tally.
    """
    if not pairs:
        raise ValueError("self-TER needs a non-empty corpus")
    total = 0.0
    scored = 0
    skipped = 0
    for prediction, source in pairs:
        if len(source) == 0:
            skipped += 1
            continue
        total += ter(prediction, source)
        scored += 1
    if scored == 0:
        raise ValueError("self-TER: every record had an empty source")
    return SelfTerSummary(percent=100.0 * total / scored, scored=scored, skipped=skipped)
