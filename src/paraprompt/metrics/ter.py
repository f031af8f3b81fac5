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

Each round scores only the shifts that can still win, and picks the
same shift as scoring them all, since every cut below is exact:

- Blocks start only at the ``(i, j)`` with ``cur[i] == ref[j]``, found
  through a map from each token to its reference positions.
- Moving a block of ``L`` tokens past ``D`` others (``D`` taken to the
  clamped destination) is at most ``2 * min(L, D)`` edits from ``cur``:
  re-insert the block or the tokens it passes. By the triangle
  inequality no shift lowers the distance by more. No sequence of
  ``cur``'s length is closer to ``ref`` than the length gap ``|n - m|``,
  which caps the reduction at ``dist - |n - m|`` too. Candidates are
  scored by falling bound, and a round ends at the first bound that can
  neither beat the best reduction found nor tie it and out-rank it.
- Shifts keep the length, so the search stops once ``dist`` reaches the
  length gap.
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


@dataclass(frozen=True)
class TerResult:
    edits: int
    shifts: int
    reference_length: int

    @property
    def rate(self) -> float:
        return self.edits / self.reference_length


def ter_detail(hypothesis: TokenSeq, reference: TokenSeq) -> TerResult:
    """Greedy-shift TER with the edit breakdown exposed."""
    if len(reference) == 0:
        raise ValueError("TER is undefined against an empty reference")
    cur = list(hypothesis)
    ref = list(reference)
    dist = levenshtein(cur, ref)
    table = _match_table(ref)
    n = len(cur)
    ref_len = len(ref)
    positions: dict[str, list[int]] = {}
    for pos, tok in enumerate(ref):
        positions.setdefault(tok, []).append(pos)
    floor = abs(n - ref_len)
    shifts = 0
    while dist > floor:
        # (-bound, start, -length, dest): falling bound, then tie-break order.
        candidates = []
        for start, tok in enumerate(cur):
            for dest in positions.get(tok, ()):
                if dest == start:
                    # Already aligned at this offset; moving it there is a no-op.
                    continue
                length = 0
                while (
                    start + length < n
                    and dest + length < ref_len
                    and length < MAX_SHIFT_BLOCK
                    and cur[start + length] == ref[dest + length]
                ):
                    length += 1
                    passed = abs(min(dest, n - length) - start)
                    bound = min(2 * min(length, passed), dist - floor)
                    if bound > 0:
                        candidates.append((-bound, start, -length, dest))
        if not candidates:
            break
        candidates.sort()
        # prefix[p] is the column after cur[:p].
        prefix = [_first_column(ref_len)]
        _advance(table, ref_len, cur, prefix[0], prefix)
        # (reduction, -start, length, -dest): max picks the largest
        # reduction, then leftmost start, longest block, leftmost dest.
        best_key = None
        for neg_bound, start, neg_length, dest in candidates:
            if best_key is not None and (-neg_bound, -start, -neg_length, -dest) < best_key:
                # Every later candidate has a lower bound, or the same
                # bound and a worse tie-break, so none can overtake.
                break
            length = -neg_length
            # dest is clamped to len(cur) - length; the shifted sequence
            # shares cur[:min(start, at)] with cur.
            at = min(dest, n - length)
            block = cur[start : start + length]
            if at > start:
                shared = start
                suffix = cur[start + length : at + length] + block + cur[at + length :]
            else:
                shared = at
                suffix = block + cur[at:start] + cur[start + length :]
            cand_dist = _advance(table, ref_len, suffix, prefix[shared])[2]
            if cand_dist >= dist:
                continue
            key = (dist - cand_dist, -start, length, -dest)
            if best_key is None or key > best_key:
                best_key = key
                best_seq = cur[:shared] + suffix
        if best_key is None:
            break
        cur = best_seq
        dist -= best_key[0]
        shifts += 1
    return TerResult(edits=shifts + dist, shifts=shifts, reference_length=len(ref))


def ter(hypothesis: TokenSeq, reference: TokenSeq) -> float:
    """Greedy-shift TER as a ratio >= 0 (0 means identical)."""
    return ter_detail(hypothesis, reference).rate


@dataclass(frozen=True)
class SelfTerSummary:
    percent: float | None
    scored: int
    skipped: int


def self_ter(pairs: Sequence[tuple[TokenSeq, TokenSeq]]) -> SelfTerSummary:
    """Mean TER(prediction, source) x 100 over (prediction, source) pairs.

    Pairs with an empty source cannot be scored; they are skipped and
    counted so callers can surface the tally. With none left to score,
    the mean is absent (None), not an error.
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
    return SelfTerSummary(
        percent=100.0 * total / scored if scored else None, scored=scored, skipped=skipped
    )
