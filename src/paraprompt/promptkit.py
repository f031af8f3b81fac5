"""Prompt layout assembly: manual, exemplar, retrieval-augmented, and
novelty-conditioned layouts as structured segment sequences.

A layout is an ordered list of segments. Content segments (example
inputs/outputs and the query) carry tokens. Prefix and infix segments
come in two flavors: soft segments reference ranges of symbolic slot
ids, the positions a tuning-capable backend would bind learned
embeddings to (training itself is out of scope here), while the manual
template realizes prefix and infix as literal strings. ``render_text``
gives every layout a discrete textual form so generic text-in/text-out
backends can be driven too.

Layout shapes, with P=prefix, I=infix:

    manual:    P(text) x I(text)                       "Input: x\\nParaphrase:"
    exemplar:  [P X_i I Y_i]* P x I                    shared P/I slot ranges
    augmented: GLOBAL [P X_i I Y_i]* P x I             one global prefix block
    conditioned: like augmented, but each example's P/I cite the slot
        range of that example's novelty class, and the query's P/I cite
        the requested class

Examples always appear in ascending similarity order, so the nearest
example sits adjacent to the query.
"""

from __future__ import annotations

import dataclasses
import enum
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .dataio import key_values
from .novelty import NoveltyClass
from .textcore import TokenSeq, render

DECODE_MARGIN = 100


class AssemblyError(ValueError):
    pass


class TemplateError(ValueError):
    pass


class SegmentKind(enum.Enum):
    GLOBAL_PREFIX = "global_prefix"
    CLASS_PREFIX = "class_prefix"
    INFIX = "infix"
    EXAMPLE_INPUT = "example_input"
    EXAMPLE_OUTPUT = "example_output"
    QUERY_INPUT = "query_input"


CONTENT_KINDS = {
    SegmentKind.EXAMPLE_INPUT,
    SegmentKind.EXAMPLE_OUTPUT,
    SegmentKind.QUERY_INPUT,
}


@dataclass(frozen=True)
class PromptSegment:
    kind: SegmentKind
    novelty: NoveltyClass | None = None
    slots: range | None = None  # symbolic slot ids
    tokens: TokenSeq | None = None
    literal: str | None = None

    def __post_init__(self) -> None:
        payloads = sum(x is not None for x in (self.slots, self.tokens, self.literal))
        if payloads != 1:
            raise ValueError(f"{self.kind.value}: exactly one payload required")
        if self.kind in CONTENT_KINDS and self.tokens is None:
            raise ValueError(f"{self.kind.value}: content segments carry tokens")
        if self.kind is SegmentKind.GLOBAL_PREFIX and self.slots is None:
            raise ValueError("global prefix is always a soft segment")
        if self.tokens is not None and self.kind not in CONTENT_KINDS:
            raise ValueError(f"{self.kind.value}: prefix/infix segments carry slots or a literal")


@dataclass(frozen=True)
class SlotSpec:
    """Slot-span lengths: m for the global prefix, s per prefix, t per infix.

    Unconditioned layouts use one prefix/infix span pair; conditioned
    layouts use one per novelty class, in class order. Slot ids run global
    block first, then the prefix/infix span pairs.
    """

    global_prefix_len: int = 248
    class_prefix_len: int = 8
    infix_len: int = 8

    def __post_init__(self) -> None:
        if self.global_prefix_len < 0:
            raise ValueError("global prefix length must be >= 0")
        if self.class_prefix_len < 1 or self.infix_len < 1:
            raise ValueError("prefix and infix lengths must be >= 1")

    def span_ranges(self, pair: int = 0) -> tuple[range, range]:
        """Prefix and infix slot ids of the ``pair``-th span pair."""
        s, t = self.class_prefix_len, self.infix_len
        base = self.global_prefix_len + pair * (s + t)
        return range(base, base + s), range(base + s, base + s + t)

    def slot_universe(self, pairs: int = 1) -> int:
        """Distinct slot ids of the global block plus ``pairs`` span pairs."""
        return self.global_prefix_len + pairs * (self.class_prefix_len + self.infix_len)


@dataclass(frozen=True)
class PromptExample:
    """A retrieved example pair ready for prompt inclusion."""

    source: TokenSeq
    target: TokenSeq
    similarity: float
    novelty: NoveltyClass | None = None
    id: str | None = None


@dataclass(frozen=True)
class PromptLayout:
    segments: tuple[PromptSegment, ...]
    spec: SlotSpec
    examples: tuple[PromptExample, ...] = ()
    slot_universe: int = 0

    def soft_slot_occurrences(self) -> int:
        """Total slot positions in the prompt, counting repeats."""
        return sum(len(seg.slots) for seg in self.segments if seg.slots is not None)

    def distinct_slot_ids(self) -> set[int]:
        ids: set[int] = set()
        for seg in self.segments:
            if seg.slots is not None:
                ids.update(seg.slots)
        return ids


def _check_ascending(examples: Sequence[PromptExample]) -> None:
    sims = [e.similarity for e in examples]
    if any(a > b for a, b in zip(sims, sims[1:])):
        raise AssemblyError(
            "examples must be ordered by ascending similarity "
            f"(the nearest example last), got {sims}"
        )


def _query_tokens(x: TokenSeq) -> TokenSeq:
    if len(x) == 0:
        raise AssemblyError("query input must be non-empty")
    return tuple(x)


def assemble_manual(x: TokenSeq, template: "TextTemplate | None" = None) -> PromptLayout:
    """The hand-written template: literal prefix, query, literal infix."""
    template = template or DEFAULT_TEMPLATE
    segments = (
        PromptSegment(SegmentKind.CLASS_PREFIX, literal=template.prefix),
        PromptSegment(SegmentKind.QUERY_INPUT, tokens=_query_tokens(x)),
        PromptSegment(SegmentKind.INFIX, literal=template.infix),
    )
    spec = SlotSpec(global_prefix_len=0)
    return PromptLayout(segments=segments, spec=spec, slot_universe=0)


def _assemble_soft(
    x: TokenSeq,
    examples: Sequence[PromptExample],
    spec: SlotSpec,
    body: SlotSpec | None = None,
    query_class: NoveltyClass | None = None,
) -> PromptLayout:
    """The soft layouts' ``[G] [P E I O]* P Q I``.

    P and I cite the first span pair of ``body``. Without a ``body`` they
    cite ``spec``'s, and G, the global block, leads. With a query class,
    each example cites the pair of its own class and the query that of
    ``query_class``, and P and I carry the class they cite: class c cites
    span pair ``c.value``.
    """
    _check_ascending(examples)
    segments = []
    if body is None:
        body = spec
        segments.append(PromptSegment(SegmentKind.GLOBAL_PREFIX, slots=range(spec.global_prefix_len)))

    def spans(cls: NoveltyClass | None) -> tuple[PromptSegment, PromptSegment]:
        if query_class is None:
            cls, pair = None, 0
        elif cls is None:
            raise AssemblyError("every example needs a novelty class in conditioned mode")
        else:
            pair = cls.value
        prefix, infix = body.span_ranges(pair)
        return (
            PromptSegment(SegmentKind.CLASS_PREFIX, novelty=cls, slots=prefix),
            PromptSegment(SegmentKind.INFIX, novelty=cls, slots=infix),
        )

    for example in examples:
        prefix, infix = spans(example.novelty)
        segments += [
            prefix,
            PromptSegment(SegmentKind.EXAMPLE_INPUT, tokens=tuple(example.source)),
            infix,
            PromptSegment(SegmentKind.EXAMPLE_OUTPUT, tokens=tuple(example.target)),
        ]
    prefix, infix = spans(query_class)
    segments += [prefix, PromptSegment(SegmentKind.QUERY_INPUT, tokens=_query_tokens(x)), infix]
    return PromptLayout(
        segments=tuple(segments),
        spec=spec,
        examples=tuple(examples),
        slot_universe=body.slot_universe(1 if query_class is None else len(NoveltyClass)),
    )


def assemble_exemplar(
    x: TokenSeq,
    examples: Sequence[PromptExample],
    spec: SlotSpec | None = None,
) -> PromptLayout:
    """Example-augmented prompt with shared soft prefix/infix, no global block."""
    spec = spec or SlotSpec()
    return _assemble_soft(x, examples, spec, dataclasses.replace(spec, global_prefix_len=0))


def assemble_rapt(
    x: TokenSeq,
    examples: Sequence[PromptExample],
    spec: SlotSpec | None = None,
) -> PromptLayout:
    """Retrieval-augmented layout: a global prefix block, then the exemplar body."""
    return _assemble_soft(x, examples, spec or SlotSpec())


def assemble_ncrapt(
    x: TokenSeq,
    examples: Sequence[PromptExample],
    query_class: NoveltyClass,
    spec: SlotSpec | None = None,
) -> PromptLayout:
    """Novelty-conditioned layout: per-class prefix/infix slot ranges.

    Each example cites the slot ranges of its own novelty class; the
    query cites the ranges of the class the caller wants generated. The
    global prefix block is shared across classes.
    """
    return _assemble_soft(x, examples, spec or SlotSpec(), query_class=query_class)


@dataclass(frozen=True)
class TextTemplate:
    """Literal realizations for prompt segments in discrete (text) mode.

    Learned slot spans have no canonical text, so soft segments render
    through these stand-in strings; this is flagged in run metadata by
    callers.
    """

    prefix: str = "Input:"
    infix: str = "\nParaphrase:"
    global_prefix: str = "Generate a paraphrase of each input."
    example_separator: str = "\n\n"
    # appended to an infix that cites a novelty class's slots
    tag_low: str = " (low)"
    tag_medium: str = " (medium)"
    tag_high: str = " (high)"

    def infix_realization(self, novelty: NoveltyClass | None) -> str:
        if novelty is None:
            return self.infix
        return self.infix + getattr(self, f"tag_{novelty.label}")


DEFAULT_TEMPLATE = TextTemplate()


def _realize(segment: PromptSegment, template: TextTemplate) -> str:
    if segment.literal is not None:
        return segment.literal
    if segment.kind is SegmentKind.GLOBAL_PREFIX:
        return template.global_prefix
    if segment.kind is SegmentKind.CLASS_PREFIX:
        return template.prefix
    if segment.kind is SegmentKind.INFIX:
        return template.infix_realization(segment.novelty)
    return render(segment.tokens or ())


def render_text(layout: PromptLayout, template: TextTemplate | None = None) -> str:
    """Deterministic discrete rendering of a layout; the rendered prompt
    ends at the query infix."""
    template = template or DEFAULT_TEMPLATE
    pieces: list[str] = []
    prev: SegmentKind | None = None
    for segment in layout.segments:
        if prev in (SegmentKind.GLOBAL_PREFIX, SegmentKind.EXAMPLE_OUTPUT):
            pieces.append(template.example_separator)
        elif prev is SegmentKind.CLASS_PREFIX or prev is SegmentKind.INFIX:
            pieces.append(" ")
        pieces.append(_realize(segment, template))
        prev = segment.kind
    return "".join(pieces)


def count_tokens(text: str) -> int:
    """A text's prompt size: its whitespace tokens. The wire protocol has no
    counting endpoint, so every backend is measured this way."""
    return len(text.split())


@dataclass(frozen=True)
class LayoutLength:
    prompt_tokens: int
    decode_budget: int


def layout_length(
    layout: PromptLayout, token_counter: Callable[[str], int]
) -> LayoutLength:
    """Prompt size n = soft slots + backend token counts of text segments.

    The decode budget is always n + 100: generation may spend at most 100
    tokens beyond the prompt.
    """
    n = 0
    for segment in layout.segments:
        if segment.slots is not None:
            # not len(): a range of 2**63 or more slots has no C length
            n += segment.slots.stop - segment.slots.start
            continue
        text = segment.literal if segment.literal is not None else render(segment.tokens or ())
        n += int(token_counter(text))
    return LayoutLength(prompt_tokens=n, decode_budget=n + DECODE_MARGIN)


def fit_examples_to_budget(
    assemble: Callable[[Sequence[PromptExample]], PromptLayout],
    examples: Sequence[PromptExample],
    token_counter: Callable[[str], int],
    max_prompt_tokens: int,
) -> tuple[PromptLayout, int, int]:
    """Drop least-similar examples (front of the ascending list) until the
    prompt fits or none are left; returns the layout, its size, the drops."""
    kept = list(examples)
    while True:
        layout = assemble(kept)
        prompt_tokens = layout_length(layout, token_counter).prompt_tokens
        if prompt_tokens <= max_prompt_tokens or not kept:
            return layout, prompt_tokens, len(examples) - len(kept)
        kept.pop(0)


def _segment_to_json(segment: PromptSegment) -> dict:
    out: dict = {"kind": segment.kind.value}
    if segment.novelty is not None:
        out["class"] = segment.novelty.label
    if segment.slots is not None:
        out["slots"] = [segment.slots.start, segment.slots.stop]
    if segment.tokens is not None:
        out["tokens"] = list(segment.tokens)
    if segment.literal is not None:
        out["literal"] = segment.literal
    return out


def layout_to_json(layout: PromptLayout) -> dict:
    conditioned = any(seg.novelty is not None for seg in layout.segments)
    return {
        "spec": {
            "global_prefix_len": layout.spec.global_prefix_len,
            "class_prefix_len": layout.spec.class_prefix_len,
            "infix_len": layout.spec.infix_len,
            "classes": [c.label for c in NoveltyClass] if conditioned else [],
        },
        "slot_universe": layout.slot_universe,
        "segments": [_segment_to_json(seg) for seg in layout.segments],
        "examples": [
            {
                "source": list(e.source),
                "target": list(e.target),
                "similarity": e.similarity,
                "class": e.novelty.label if e.novelty is not None else None,
                "id": e.id,
            }
            for e in layout.examples
        ],
    }


_TEMPLATE_ESCAPES = {"\\n": "\n", "\\t": "\t", "\\\\": "\\"}


def load_template(path: str | Path) -> TextTemplate:
    """Template file: key=value lines with \\n, \\t, \\\\ escapes.

    Keys are the ``TextTemplate`` fields: prefix, infix, global_prefix,
    example_separator, tag_low, tag_medium, tag_high. Missing keys keep
    defaults; a line without "=", a line with another key, or bytes that
    are not UTF-8 raise ``TemplateError`` naming the file (and line).
    """
    keys = {f.name for f in dataclasses.fields(TextTemplate)}
    values: dict[str, str] = {}
    for lineno, key, value in key_values(path, TemplateError):
        if key not in keys:
            raise TemplateError(f"{path}:{lineno}: unknown template key {key!r}")
        values[key] = re.sub(r"\\[nt\\]", lambda m: _TEMPLATE_ESCAPES[m.group()], value)
    return TextTemplate(**values)
