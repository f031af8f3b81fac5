import pytest

from paraprompt.paramcount import (
    Adapter,
    DEFAULT_METHODS,
    FineTune,
    GPT2_LARGE,
    GPT2_MEDIUM,
    LPT,
    LoRA,
    ModelShape,
    NCRAPT,
    PromptTune,
    RAPT,
    full_params,
    report_table,
    trainable_params,
)
from paraprompt.novelty import NoveltyClass
from paraprompt.promptkit import SlotSpec, assemble_ncrapt

PUBLISHED = {
    "Fine Tuning": (354_823_168, 774_030_080),
    "Adapter Tuning": (25_303_040, 47_437_312),
    "LoRA Tuning": (786_432, 1_474_560),
    "Prompt Tuning": (270_336, 337_920),
    "LPT": (1_056_768, 1_812_480),
    "RAPT": (1_056_768, 1_812_480),
    "NC-RAPT": (1_089_536, 1_853_440),
}


def test_all_fourteen_published_values():
    table = report_table([GPT2_MEDIUM, GPT2_LARGE])
    for method, row in zip(table.methods, table.counts):
        assert tuple(row) == PUBLISHED[method.label], method.label


def test_full_params_unit_shape_hand_sum():
    shape = ModelShape(name="unit", layers=1, width=1, vocab=1, positions=1)
    # embeddings 1+1; layer: qkv 3+3, attn-out 1+1, up 4+4, down 4+1,
    # norms 4; final norm 2 -> 2 + 21 + 4 + 2
    assert full_params(shape) == 1 + 1 + (3 + 3 + 1 + 1 + 4 + 4 + 4 + 1 + 4) + 2


def test_untied_head_adds_vocab_projection():
    tied = ModelShape(name="t", layers=2, width=8, vocab=11, positions=3)
    untied = ModelShape(name="u", layers=2, width=8, vocab=11, positions=3, lm_head_tied=False)
    assert full_params(untied) - full_params(tied) == 11 * 8


def test_lora_closed_form():
    # per adapted square matrix: rank * (d + d); two targets per layer
    assert trainable_params(GPT2_MEDIUM, LoRA()) == 24 * 2 * 8 * 2 * 1024


def test_prompt_tune_closed_form():
    assert trainable_params(GPT2_MEDIUM, PromptTune()) == (256 + 8) * 1024


def test_lpt_is_sum_of_parts():
    for shape in (GPT2_MEDIUM, GPT2_LARGE):
        assert trainable_params(shape, LPT()) == trainable_params(
            shape, LoRA()
        ) + trainable_params(shape, PromptTune())


def test_rapt_equals_lpt_when_slot_totals_match():
    # m + s + t = 264 = prompt tuning's 256 + 8
    for shape in (GPT2_MEDIUM, GPT2_LARGE):
        assert trainable_params(shape, RAPT()) == trainable_params(shape, LPT())


def test_ncrapt_delta_is_extra_class_spans():
    for shape in (GPT2_MEDIUM, GPT2_LARGE):
        delta = trainable_params(shape, NCRAPT()) - trainable_params(shape, RAPT())
        assert delta == (3 - 1) * (8 + 8) * shape.width
    assert trainable_params(GPT2_MEDIUM, NCRAPT()) - trainable_params(
        GPT2_MEDIUM, RAPT()
    ) == 32_768


def test_linear_in_layers():
    def grow(shape, layers):
        return ModelShape(name="x", layers=layers, width=shape.width,
                          vocab=shape.vocab, positions=shape.positions)

    base = grow(GPT2_MEDIUM, 6)
    doubled = grow(GPT2_MEDIUM, 12)
    for method in (LoRA(), Adapter(tune_layernorm=False)):
        assert trainable_params(doubled, method) == 2 * trainable_params(base, method)
    assert trainable_params(doubled, PromptTune()) == trainable_params(base, PromptTune())


def test_counts_are_positive_ints():
    for shape in (GPT2_MEDIUM, GPT2_LARGE):
        for method in DEFAULT_METHODS:
            count = trainable_params(shape, method)
            assert isinstance(count, int) and count > 0


def test_adapter_decomposition():
    # one bottleneck per layer with biases, plus all layer norms
    d, b, layers = 1024, 512, 24
    expected = layers * (2 * d * b + b + d) + (2 * layers + 1) * 2 * d
    assert trainable_params(GPT2_MEDIUM, Adapter()) == expected


def test_report_table_shape_and_order():
    table = report_table([GPT2_MEDIUM])
    assert [m.label for m in table.methods] == list(PUBLISHED)
    assert all(len(row) == 1 for row in table.counts)
    text = table.render_text()
    assert text.splitlines()[0].split() == ["Method", "gpt2-medium"]
    assert "354,823,168" in text
    csv_text = table.render_csv()
    assert csv_text.splitlines()[1] == "Fine Tuning,354823168"


def test_single_method_single_row():
    table = report_table([GPT2_MEDIUM], [FineTune()])
    assert table.counts == [[354_823_168]]


def test_invalid_inputs():
    with pytest.raises(ValueError):
        report_table([], [FineTune()])
    with pytest.raises(ValueError):
        LoRA(rank=0)
    with pytest.raises(ValueError):
        LoRA(targets=("query", "nonsense"))
    with pytest.raises(ValueError):
        ModelShape(name="bad", layers=0, width=8)
    with pytest.raises(ValueError):
        trainable_params(GPT2_MEDIUM, "not a method")


def test_rapt_and_ncrapt_count_the_layout_slots():
    lora = trainable_params(GPT2_MEDIUM, LoRA())
    d = GPT2_MEDIUM.width
    shorter = RAPT(slots=SlotSpec(global_prefix_len=100))
    assert trainable_params(GPT2_MEDIUM, shorter) == (100 + 8 + 8) * d + lora
    layout = assemble_ncrapt(("x",), [], NoveltyClass.HIGH)
    assert trainable_params(GPT2_MEDIUM, NCRAPT()) == layout.slot_universe * d + lora
