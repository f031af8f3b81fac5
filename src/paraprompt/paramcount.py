"""Trainable-parameter accounting for language-model adaptation methods.

Pure integer arithmetic over a transformer's dimensional description.
Covers seven methods: full fine-tuning, bottleneck adapters, low-rank
(LoRA) updates of the attention query/value projections, prompt tuning,
LoRA+prompt tuning (LPT), the retrieval-augmented prompt layout (RAPT:
global prefix + small per-example prefix/infix, plus LoRA), and its
novelty-conditioned variant (NC-RAPT: one prefix/infix span per class).

Counting conventions, fixed by what reproduces the published totals for
the GPT2 presets exactly:
  - adapters: one bottleneck (two affine maps with biases) per layer,
    plus every layer-norm weight and bias in the model;
  - LoRA: the two low-rank factors only, rank * (d_in + d_out) per
    adapted matrix, no biases or scaling;
  - the language-model head is tied to the embedding and adds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .dataio import table_csv, table_text
from .novelty import NoveltyClass
from .promptkit import SlotSpec

VOCAB = 50_257  # GPT2's token vocabulary; the tied head reuses its embedding
POSITIONS = 1_024  # GPT2's context length; a prompt and its decode margin fit inside it
ADAPTER_BOTTLENECK = 512
LORA_RANK = 8
LORA_TARGETS = 2  # the query and value projections
PROMPT_LEN = 256 + 8  # prompt tuning's prefix plus infix


@dataclass(frozen=True)
class ModelShape:
    """Dimensions of a GPT2-style decoder stack."""

    name: str
    layers: int
    width: int

    def __post_init__(self) -> None:
        for fname in ("layers", "width"):
            if getattr(self, fname) < 1:
                raise ValueError(f"{fname} must be >= 1")


GPT2_MEDIUM = ModelShape(name="gpt2-medium", layers=24, width=1024)
GPT2_LARGE = ModelShape(name="gpt2-large", layers=36, width=1280)

PRESETS = {shape.name: shape for shape in (GPT2_MEDIUM, GPT2_LARGE)}


def full_params(shape: ModelShape) -> int:
    """Every weight in the model: embeddings, per-layer blocks, final norm."""
    d = shape.width
    f = 4 * d  # the feed-forward width of every GPT2 shape
    per_layer = (
        (d * 3 * d + 3 * d)   # fused qkv projection
        + (d * d + d)         # attention output projection
        + (d * f + f)         # ffn up
        + (f * d + d)         # ffn down
        + 2 * 2 * d           # two layer norms
    )
    return VOCAB * d + POSITIONS * d + shape.layers * per_layer + 2 * d


def adapter_params(shape: ModelShape) -> int:
    """Down- and up-projection with biases per layer, plus every layer norm."""
    d, b = shape.width, ADAPTER_BOTTLENECK
    return shape.layers * (2 * d * b + b + d) + (2 * shape.layers + 1) * 2 * d


def lora_params(shape: ModelShape) -> int:
    """Adapted matrices are square (d x d), so each costs rank * (d + d)."""
    return shape.layers * LORA_TARGETS * LORA_RANK * 2 * shape.width


def prompt_params(shape: ModelShape) -> int:
    return PROMPT_LEN * shape.width


def _slots_plus_lora(pairs: int) -> Callable[[ModelShape], int]:
    """The layout's distinct slots over ``pairs`` span pairs, plus LoRA."""
    return lambda shape: SlotSpec().slot_universe(pairs) * shape.width + lora_params(shape)


class Method(NamedTuple):
    label: str
    count: Callable[[ModelShape], int]


METHODS = (
    Method("Fine Tuning", full_params),
    Method("Adapter Tuning", adapter_params),
    Method("LoRA Tuning", lora_params),
    Method("Prompt Tuning", prompt_params),
    Method("LPT", lambda shape: lora_params(shape) + prompt_params(shape)),
    Method("RAPT", _slots_plus_lora(1)),
    # one prefix/infix span pair per novelty class, as in the conditioned layout
    Method("NC-RAPT", _slots_plus_lora(len(NoveltyClass))),
)


@dataclass
class ParamTable:
    shapes: tuple[ModelShape, ...]
    methods: tuple[Method, ...]
    counts: list[list[int]]

    def _rows(self, cell: Callable[[int], str]) -> list[list[str]]:
        """The header, then one row per method with each count as ``cell`` writes it."""
        return [["Method"] + [s.name for s in self.shapes]] + [
            [m.label] + [cell(c) for c in row] for m, row in zip(self.methods, self.counts)
        ]

    def render_text(self) -> str:
        return table_text(self._rows("{:,}".format))

    def render_csv(self) -> str:
        return table_csv(self._rows(str))


def report_table(shapes: Sequence[ModelShape]) -> ParamTable:
    """Methods as rows, shapes as columns."""
    if not shapes:
        raise ValueError("need at least one shape")
    counts = [[method.count(shape) for shape in shapes] for method in METHODS]
    return ParamTable(shapes=tuple(shapes), methods=METHODS, counts=counts)
