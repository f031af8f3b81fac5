"""Reference greedy-shift TER, written apart from the package, used to
check the ``label`` stage's output on a seeded sample of pairs.

Semantics it pins down: one point per insertion, deletion, substitution
and block shift; a shift moves a block of at most 10 hypothesis tokens
that equals the reference span at the destination, and is applied only
when it lowers the word edit distance. Each round applies the shift with
the largest reduction, ties going to the leftmost block start, then the
longest block, then the leftmost destination. A block already aligned at
its own offset is never moved.
"""

from __future__ import annotations

MAX_BLOCK = 10


def edit_distance(hyp: list[str], ref: list[str]) -> int:
    row = list(range(len(ref) + 1))
    for i, h in enumerate(hyp, start=1):
        diag, row[0] = row[0], i
        for j, r in enumerate(ref, start=1):
            diag, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, diag + (h != r))
    return row[-1]


def _candidates(hyp: list[str], ref: list[str]):
    for start in range(len(hyp)):
        for dest in range(len(ref)):
            if start == dest and hyp[start] == ref[dest]:
                continue
            length = 0
            while (length < MAX_BLOCK and start + length < len(hyp)
                   and dest + length < len(ref) and hyp[start + length] == ref[dest + length]):
                length += 1
                yield start, length, dest


def greedy_ter(hyp: list[str], ref: list[str]) -> tuple[float, int]:
    """(TER rate, number of shifts) of ``hyp`` against a non-empty ``ref``."""
    hyp, ref = list(hyp), list(ref)
    dist, shifts = edit_distance(hyp, ref), 0
    while dist > 0:
        best = None
        for start, length, dest in _candidates(hyp, ref):
            rest = hyp[:start] + hyp[start + length:]
            at = min(dest, len(rest))
            moved = rest[:at] + hyp[start:start + length] + rest[at:]
            gain = dist - edit_distance(moved, ref)
            key = (gain, -start, length, -dest)
            if gain > 0 and (best is None or key > best[0]):
                best = (key, moved)
        if best is None:
            break
        hyp, dist, shifts = best[1], dist - best[0][0], shifts + 1
    return (shifts + dist) / len(ref), shifts
