import pytest

from paraprompt.cli import main
from paraprompt.paramcount import (
    ADAPTER_BOTTLENECK,
    GPT2_LARGE,
    GPT2_MEDIUM,
    LORA_RANK,
    METHODS,
    ModelShape,
    POSITIONS,
    VOCAB,
    full_params,
    report_table,
)
from paraprompt.novelty import NoveltyClass
from paraprompt.promptkit import assemble_ncrapt, assemble_rapt

PUBLISHED = {
    "Fine Tuning": (354_823_168, 774_030_080),
    "Adapter Tuning": (25_303_040, 47_437_312),
    "LoRA Tuning": (786_432, 1_474_560),
    "Prompt Tuning": (270_336, 337_920),
    "LPT": (1_056_768, 1_812_480),
    "RAPT": (1_056_768, 1_812_480),
    "NC-RAPT": (1_089_536, 1_853_440),
}

COUNT = dict(METHODS)

# `paraprompt params`, byte for byte
PRESET_TABLE = """\
Method          gpt2-medium   gpt2-large
Fine Tuning     354,823,168  774,030,080
Adapter Tuning   25,303,040   47,437,312
LoRA Tuning         786,432    1,474,560
Prompt Tuning       270,336      337,920
LPT               1,056,768    1,812,480
RAPT              1,056,768    1,812,480
NC-RAPT           1,089,536    1,853,440
"""


def test_all_fourteen_published_values():
    table = report_table([GPT2_MEDIUM, GPT2_LARGE])
    for method, row in zip(table.methods, table.counts):
        assert tuple(row) == PUBLISHED[method.label], method.label


def test_full_params_unit_shape_hand_sum():
    shape = ModelShape(name="unit", layers=1, width=1)
    # embeddings VOCAB+POSITIONS; layer: qkv 3+3, attn-out 1+1, up 4+4,
    # down 4+1, norms 4; final norm 2
    layer = 3 + 3 + 1 + 1 + 4 + 4 + 4 + 1 + 4
    assert full_params(shape) == VOCAB + POSITIONS + layer + 2


def test_lora_closed_form():
    # per adapted square matrix: rank * (d + d); two targets per layer
    assert COUNT["LoRA Tuning"](GPT2_MEDIUM) == 24 * 2 * LORA_RANK * 2 * 1024


def test_prompt_tune_closed_form():
    assert COUNT["Prompt Tuning"](GPT2_MEDIUM) == (256 + 8) * 1024


def test_lpt_is_sum_of_parts():
    for shape in (GPT2_MEDIUM, GPT2_LARGE):
        assert COUNT["LPT"](shape) == COUNT["LoRA Tuning"](shape) + COUNT["Prompt Tuning"](shape)


def test_rapt_equals_lpt_when_slot_totals_match():
    # m + s + t = 264 = prompt tuning's 256 + 8
    for shape in (GPT2_MEDIUM, GPT2_LARGE):
        assert COUNT["RAPT"](shape) == COUNT["LPT"](shape)


def test_ncrapt_delta_is_extra_class_spans():
    for shape in (GPT2_MEDIUM, GPT2_LARGE):
        delta = COUNT["NC-RAPT"](shape) - COUNT["RAPT"](shape)
        assert delta == (3 - 1) * (8 + 8) * shape.width
    assert COUNT["NC-RAPT"](GPT2_MEDIUM) - COUNT["RAPT"](GPT2_MEDIUM) == 32_768


def test_linear_in_layers():
    base = ModelShape(name="x", layers=6, width=GPT2_MEDIUM.width)
    doubled = ModelShape(name="x", layers=12, width=GPT2_MEDIUM.width)
    d = base.width
    assert COUNT["LoRA Tuning"](doubled) == 2 * COUNT["LoRA Tuning"](base)
    # the final layer norm (2d) is counted once, however many layers
    assert COUNT["Adapter Tuning"](doubled) == 2 * COUNT["Adapter Tuning"](base) - 2 * d
    assert COUNT["Prompt Tuning"](doubled) == COUNT["Prompt Tuning"](base)


def test_counts_are_positive_ints():
    for shape in (GPT2_MEDIUM, GPT2_LARGE):
        for method in METHODS:
            count = method.count(shape)
            assert isinstance(count, int) and count > 0


def test_adapter_decomposition():
    # one bottleneck per layer with biases, plus all layer norms
    d, b, layers = 1024, ADAPTER_BOTTLENECK, 24
    expected = layers * (2 * d * b + b + d) + (2 * layers + 1) * 2 * d
    assert COUNT["Adapter Tuning"](GPT2_MEDIUM) == expected


def test_report_table_shape_and_order():
    table = report_table([GPT2_MEDIUM])
    assert [m.label for m in table.methods] == list(PUBLISHED)
    assert all(len(row) == 1 for row in table.counts)
    text = table.render_text()
    assert text.splitlines()[0].split() == ["Method", "gpt2-medium"]
    assert "354,823,168" in text
    csv_text = table.render_csv()
    assert csv_text.splitlines()[1] == "Fine Tuning,354823168"


def test_preset_table_text_and_csv_bytes():
    table = report_table([GPT2_MEDIUM, GPT2_LARGE])
    assert table.render_text() == PRESET_TABLE
    assert table.render_csv() == "Method,gpt2-medium,gpt2-large\n" + "".join(
        f"{label},{medium},{large}\n" for label, (medium, large) in PUBLISHED.items()
    )


def test_invalid_inputs():
    with pytest.raises(ValueError):
        report_table([])
    with pytest.raises(ValueError):
        ModelShape(name="bad", layers=0, width=8)


def test_rapt_and_ncrapt_count_the_layout_slots():
    lora = COUNT["LoRA Tuning"](GPT2_MEDIUM)
    d = GPT2_MEDIUM.width
    rapt = assemble_rapt(("x",), [])
    assert COUNT["RAPT"](GPT2_MEDIUM) == rapt.slot_universe * d + lora
    ncrapt = assemble_ncrapt(("x",), [], NoveltyClass.HIGH)
    assert COUNT["NC-RAPT"](GPT2_MEDIUM) == ncrapt.slot_universe * d + lora


def test_custom_shape_table_bytes(capsys):
    assert main(["params", "--layers", "2", "--width", "8"]) == 0
    assert capsys.readouterr().out == (
        "Method          custom-L2-d8\n"
        "Fine Tuning          412,008\n"
        "Adapter Tuning        17,504\n"
        "LoRA Tuning              512\n"
        "Prompt Tuning          2,112\n"
        "LPT                    2,624\n"
        "RAPT                   2,624\n"
        "NC-RAPT                2,880\n"
    )
