import pytest

from paraprompt.novelty import NoveltyClass
from paraprompt.promptkit import (
    AssemblyError,
    DEFAULT_TEMPLATE,
    PromptExample,
    SegmentKind,
    SlotSpec,
    assemble_exemplar,
    assemble_manual,
    assemble_ncrapt,
    assemble_rapt,
    fit_examples_to_budget,
    layout_length,
    layout_to_json,
    load_template,
    render_text,
)

from oracles import layout_from_json, validate_structure

X = ("how", "do", "i", "learn")


def examples(k=2, classes=(None, None)):
    out = []
    for i in range(k):
        out.append(
            PromptExample(
                source=("src", str(i)),
                target=("tgt", str(i)),
                similarity=0.1 * (i + 1),
                novelty=classes[i] if i < len(classes) else None,
                id=str(i),
            )
        )
    return out


def test_manual_renders_template_verbatim():
    layout = assemble_manual(("hello",))
    assert render_text(layout) == "Input: hello\nParaphrase:"


def test_manual_has_three_segments():
    layout = assemble_manual(X)
    assert [s.kind for s in layout.segments] == [
        SegmentKind.CLASS_PREFIX,
        SegmentKind.QUERY_INPUT,
        SegmentKind.INFIX,
    ]
    validate_structure(layout)


def test_manual_round_trip_preserves_kinds():
    layout = assemble_manual(X)
    restored = layout_from_json(layout_to_json(layout))
    assert [s.kind for s in restored.segments] == [s.kind for s in layout.segments]
    assert render_text(restored) == render_text(layout)


def test_manual_empty_query_rejected():
    with pytest.raises(AssemblyError):
        assemble_manual(())


def test_exemplar_layout_matches_equation_order():
    layout = assemble_exemplar(X, examples(2))
    kinds = [s.kind for s in layout.segments]
    assert len(kinds) == 11
    assert kinds == [
        SegmentKind.CLASS_PREFIX, SegmentKind.EXAMPLE_INPUT, SegmentKind.INFIX, SegmentKind.EXAMPLE_OUTPUT,
        SegmentKind.CLASS_PREFIX, SegmentKind.EXAMPLE_INPUT, SegmentKind.INFIX, SegmentKind.EXAMPLE_OUTPUT,
        SegmentKind.CLASS_PREFIX, SegmentKind.QUERY_INPUT, SegmentKind.INFIX,
    ]
    validate_structure(layout)
    # least similar example first, most similar adjacent to the query
    assert layout.segments[1].tokens == ("src", "0")
    assert layout.segments[5].tokens == ("src", "1")


def test_exemplar_zero_examples_degenerates():
    layout = assemble_exemplar(X, [])
    assert [s.kind for s in layout.segments] == [
        SegmentKind.CLASS_PREFIX, SegmentKind.QUERY_INPUT, SegmentKind.INFIX,
    ]


def test_exemplar_slot_occurrences():
    spec = SlotSpec(global_prefix_len=248, class_prefix_len=8, infix_len=8)
    layout = assemble_exemplar(X, examples(2), spec)
    assert layout.soft_slot_occurrences() == 3 * (8 + 8)
    assert layout.slot_universe == 16


def test_rapt_slot_arithmetic():
    layout = assemble_rapt(X, examples(2))
    assert layout.segments[0].kind is SegmentKind.GLOBAL_PREFIX
    assert layout.soft_slot_occurrences() == 248 + 3 * 16  # 296
    assert layout.slot_universe == 248 + 16
    validate_structure(layout)


def test_rapt_descending_similarity_rejected():
    bad = list(reversed(examples(2)))
    with pytest.raises(AssemblyError, match="ascending"):
        assemble_rapt(X, bad)


def test_rapt_zero_examples():
    layout = assemble_rapt(X, [])
    kinds = [s.kind for s in layout.segments]
    assert kinds == [
        SegmentKind.GLOBAL_PREFIX, SegmentKind.CLASS_PREFIX,
        SegmentKind.QUERY_INPUT, SegmentKind.INFIX,
    ]


def test_ncrapt_all_high_shares_one_range():
    layout = assemble_ncrapt(
        X, examples(2, (NoveltyClass.HIGH, NoveltyClass.HIGH)), NoveltyClass.HIGH
    )
    prefix_ranges = {
        s.slots for s in layout.segments if s.kind is SegmentKind.CLASS_PREFIX
    }
    assert len(prefix_ranges) == 1


def test_ncrapt_three_distinct_class_ranges():
    layout = assemble_ncrapt(
        X, examples(2, (NoveltyClass.LOW, NoveltyClass.HIGH)), NoveltyClass.MEDIUM
    )
    prefix_ranges = {
        s.slots for s in layout.segments if s.kind is SegmentKind.CLASS_PREFIX
    }
    assert len(prefix_ranges) == 3
    assert len(layout.distinct_slot_ids()) == 248 + 3 * 16
    assert layout.soft_slot_occurrences() == 248 + 3 * 16
    assert layout.slot_universe == 248 + 3 * 16


def test_ncrapt_query_class_selects_slots():
    low = assemble_ncrapt(X, [], NoveltyClass.LOW)
    high = assemble_ncrapt(X, [], NoveltyClass.HIGH)
    assert low.segments[1].slots != high.segments[1].slots
    # structural diff is confined to the class slot ranges
    for a, b in zip(low.segments, high.segments):
        assert a.kind == b.kind
        assert a.tokens == b.tokens
        assert a.literal == b.literal


def test_ncrapt_example_without_class_rejected():
    with pytest.raises(AssemblyError, match="novelty class"):
        assemble_ncrapt(X, examples(1), NoveltyClass.HIGH)


def test_render_orders_examples_before_query():
    layout = assemble_rapt(X, examples(2))
    text = render_text(layout)
    assert text.index("src 0") < text.index("src 1") < text.index("how do i learn")
    assert text.endswith("\nParaphrase:")


def test_render_deterministic():
    layout = assemble_rapt(X, examples(2))
    assert render_text(layout) == render_text(layout)


def test_render_class_tags():
    layout = assemble_ncrapt(
        X, examples(1, (NoveltyClass.LOW,)), NoveltyClass.HIGH
    )
    text = render_text(layout)
    assert "\nParaphrase: (low) tgt 0" in text
    assert text.endswith("\nParaphrase: (high)")


def test_render_injective_on_text_differences():
    a = assemble_rapt(X, examples(2))
    different = examples(2)
    different[0] = PromptExample(("src", "zz"), ("tgt", "0"), 0.1, id="0")
    b = assemble_rapt(X, different)
    assert render_text(a) != render_text(b)


def test_layout_length_counts_slots_and_text():
    layout = assemble_rapt(X, examples(2))
    counter = lambda text: len(text.split())
    length = layout_length(layout, counter)
    text_tokens = sum(
        len(s.tokens) for s in layout.segments if s.tokens is not None
    )
    assert length.prompt_tokens == 296 + text_tokens
    assert length.decode_budget == length.prompt_tokens + 100


def test_layout_length_manual():
    layout = assemble_manual(("hello",))
    length = layout_length(layout, lambda text: len(text.split()))
    # "Input:" -> 1, "hello" -> 1, "\nParaphrase:" -> 1
    assert length.prompt_tokens == 3
    assert length.decode_budget == 103


def test_budget_drops_least_similar_first():
    exs = examples(3, (None, None, None))
    assemble = lambda kept: assemble_exemplar(X, kept, SlotSpec(class_prefix_len=1, infix_len=1))
    counter = lambda text: len(text.split())
    full = assemble(exs)
    full_len = layout_length(full, counter).prompt_tokens
    layout, prompt_n, dropped = fit_examples_to_budget(assemble, exs, counter, full_len - 1)
    assert dropped == 1
    assert prompt_n == layout_length(layout, counter).prompt_tokens < full_len
    kept_ids = [s.tokens for s in layout.segments if s.kind is SegmentKind.EXAMPLE_INPUT]
    assert kept_ids == [("src", "1"), ("src", "2")]


def test_budget_unlimited_keeps_everything():
    exs = examples(2)
    layout, prompt_n, dropped = fit_examples_to_budget(
        lambda kept: assemble_exemplar(X, kept), exs, lambda t: 0, 10**9
    )
    assert dropped == 0
    assert prompt_n == layout.soft_slot_occurrences()
    assert len(layout.examples) == 2


def test_layout_json_round_trip():
    layout = assemble_ncrapt(
        X, examples(2, (NoveltyClass.LOW, NoveltyClass.HIGH)), NoveltyClass.MEDIUM
    )
    restored = layout_from_json(layout_to_json(layout))
    assert restored.segments == layout.segments
    assert restored.spec == layout.spec
    assert restored.slot_universe == layout.slot_universe


def test_layout_json_lists_the_classes_of_conditioned_layouts_only():
    conditioned = assemble_ncrapt(X, examples(1, (NoveltyClass.LOW,)), NoveltyClass.HIGH)
    assert layout_to_json(conditioned)["spec"]["classes"] == ["low", "medium", "high"]
    for layout in (assemble_manual(X), assemble_exemplar(X, examples(2)), assemble_rapt(X, examples(2))):
        assert layout_to_json(layout)["spec"]["classes"] == []


def test_grammar_rejects_bad_order():
    layout = assemble_manual(X)
    broken = layout.__class__(
        segments=tuple(reversed(layout.segments)),
        spec=layout.spec,
    )
    with pytest.raises(AssemblyError):
        validate_structure(broken)


def test_slot_spec_validation():
    with pytest.raises(ValueError):
        SlotSpec(class_prefix_len=0)
    with pytest.raises(ValueError):
        SlotSpec(global_prefix_len=-1)


def test_template_file_round_trip(tmp_path):
    path = tmp_path / "template.txt"
    path.write_text(
        "prefix=Q:\n"
        "infix=\\nA:\n"
        "global_prefix=Rewrite.\n"
        "example_separator=\\n---\\n\n"
        "tag_high= [novel]\n",
        encoding="utf-8",
    )
    template = load_template(path)
    assert template.prefix == "Q:"
    assert template.infix == "\nA:"
    assert template.example_separator == "\n---\n"
    assert template.tag_high == " [novel]"
    # untouched keys keep defaults
    assert template.tag_low == DEFAULT_TEMPLATE.tag_low
    layout = assemble_manual(("hi",), template)
    assert render_text(layout, template) == "Q: hi\nA:"
