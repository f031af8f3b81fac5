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

from dataclasses import dataclass, field
from typing import Sequence

from .novelty import NoveltyClass
from .promptkit import SlotSpec


@dataclass(frozen=True)
class ModelShape:
    """Dimensions of a GPT2-style decoder stack."""

    name: str
    layers: int
    width: int
    vocab: int = 50_257
    positions: int = 1_024
    lm_head_tied: bool = True

    def __post_init__(self) -> None:
        for fname in ("layers", "width", "vocab", "positions"):
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
    total = shape.vocab * d + shape.positions * d + shape.layers * per_layer + 2 * d
    if not shape.lm_head_tied:
        total += shape.vocab * d
    return total


@dataclass(frozen=True)
class FineTune:
    label: str = "Fine Tuning"


@dataclass(frozen=True)
class Adapter:
    bottleneck: int = 512
    tune_layernorm: bool = True
    label: str = "Adapter Tuning"


@dataclass(frozen=True)
class LoRA:
    rank: int = 8
    targets: tuple[str, ...] = ("query", "value")
    label: str = "LoRA Tuning"

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("LoRA rank must be >= 1")
        unknown = set(self.targets) - {"query", "key", "value", "output"}
        if unknown:
            raise ValueError(f"unknown LoRA targets: {sorted(unknown)}")


@dataclass(frozen=True)
class PromptTune:
    prefix_len: int = 256
    infix_len: int = 8
    label: str = "Prompt Tuning"


@dataclass(frozen=True)
class LPT:
    lora: LoRA = field(default_factory=LoRA)
    prompt: PromptTune = field(default_factory=PromptTune)
    label: str = "LPT"


@dataclass(frozen=True)
class RAPT:
    lora: LoRA = field(default_factory=LoRA)
    slots: SlotSpec = field(default_factory=SlotSpec)
    label: str = "RAPT"


@dataclass(frozen=True)
class NCRAPT:
    """One prefix/infix span pair per class in ``slots.classes``, or per
    novelty class when it lists none, as in the conditioned layout."""

    lora: LoRA = field(default_factory=LoRA)
    slots: SlotSpec = field(default_factory=SlotSpec)
    label: str = "NC-RAPT"


MethodSpec = FineTune | Adapter | LoRA | PromptTune | LPT | RAPT | NCRAPT

DEFAULT_METHODS: tuple[MethodSpec, ...] = (
    FineTune(),
    Adapter(),
    LoRA(),
    PromptTune(),
    LPT(),
    RAPT(),
    NCRAPT(),
)


def trainable_params(shape: ModelShape, method: MethodSpec) -> int:
    """Exact count of parameters the given method trains on the given model."""
    d = shape.width
    if isinstance(method, FineTune):
        return full_params(shape)
    if isinstance(method, Adapter):
        # Down-projection, up-projection, both with biases.
        per_adapter = 2 * d * method.bottleneck + method.bottleneck + d
        count = shape.layers * per_adapter
        if method.tune_layernorm:
            count += (2 * shape.layers + 1) * 2 * d
        return count
    if isinstance(method, LoRA):
        # Adapted matrices are square (d x d), so each costs rank * (d + d).
        return shape.layers * len(method.targets) * method.rank * 2 * d
    if isinstance(method, PromptTune):
        return (method.prefix_len + method.infix_len) * d
    if isinstance(method, LPT):
        return trainable_params(shape, method.lora) + trainable_params(shape, method.prompt)
    if isinstance(method, RAPT):
        return method.slots.slot_universe() * d + trainable_params(shape, method.lora)
    if isinstance(method, NCRAPT):
        pairs = len(method.slots.classes) or len(NoveltyClass)
        return method.slots.slot_universe(pairs) * d + trainable_params(shape, method.lora)
    raise ValueError(f"unknown adaptation method: {method!r}")


@dataclass
class ParamTable:
    shapes: tuple[ModelShape, ...]
    methods: tuple[MethodSpec, ...]
    counts: list[list[int]]

    def render_text(self) -> str:
        headers = ["Method"] + [s.name for s in self.shapes]
        rows = [
            [m.label] + [f"{c:,}" for c in row]
            for m, row in zip(self.methods, self.counts)
        ]
        widths = [
            max(len(headers[col]), *(len(r[col]) for r in rows))
            for col in range(len(headers))
        ]
        def fmt(cells: Sequence[str]) -> str:
            first = cells[0].ljust(widths[0])
            rest = [c.rjust(w) for c, w in zip(cells[1:], widths[1:])]
            return "  ".join([first] + rest)
        return "\n".join([fmt(headers)] + [fmt(r) for r in rows]) + "\n"

    def render_csv(self) -> str:
        lines = [",".join(["Method"] + [s.name for s in self.shapes])]
        for method, row in zip(self.methods, self.counts):
            lines.append(",".join([method.label] + [str(c) for c in row]))
        return "\n".join(lines) + "\n"


def report_table(
    shapes: Sequence[ModelShape], methods: Sequence[MethodSpec] = DEFAULT_METHODS
) -> ParamTable:
    """Methods as rows, shapes as columns."""
    if not shapes or not methods:
        raise ValueError("need at least one shape and one method")
    counts = [
        [trainable_params(shape, method) for shape in shapes] for method in methods
    ]
    return ParamTable(shapes=tuple(shapes), methods=tuple(methods), counts=counts)
