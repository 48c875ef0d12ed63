from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepladder.corpus import count_tokens
from stepladder.errors import ParameterError, SegmentationError
from stepladder.segmenter import (
    DEFAULT_RULES,
    SegmentationRules,
    _merge_micro_steps,
    audit_sample,
    segment,
    trace_from_text,
)

from conftest import naive_merge_micro_steps, naive_segment

SUITE = Path(__file__).parent / "data" / "segmenter_suite.jsonl"


def load_suite():
    with open(SUITE, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def suite_ids():
    return [case["name"] for case in load_suite()]


@pytest.mark.parametrize("case", load_suite(), ids=suite_ids())
def test_labeled_suite_case(case):
    steps, mode, confidence = segment(case["text"])
    assert (len(steps), mode, confidence) == \
        (case["k"], case["mode"], case["confidence"]), case["name"]


def test_suite_is_large_enough():
    cases = load_suite()
    assert len(cases) >= 60
    modes = {c["mode"] for c in cases}
    assert modes == {"numbered", "labeled", "bulleted", "paragraph-fallback"}


def test_generated_numbered_traces_segment_exactly():
    rng = random.Random(2024)
    words = ("expand", "terms", "combine", "factor", "check", "reduce")
    for _ in range(200):
        k = rng.randint(1, 12)
        lines = []
        for i in range(1, k + 1):
            body = " ".join(rng.choice(words) for _ in range(rng.randint(3, 9)))
            style = rng.choice(("{i}. {b}", "{i}) {b}", "({i}) {b}"))
            lines.append(style.format(i=i, b=body))
        text = "\n".join(lines)
        steps, mode, confidence = segment(text)
        assert (len(steps), mode, confidence) == (k, "numbered", "high"), text


def test_no_content_loss_for_numbered():
    # Each marker contributes exactly one whitespace token, so step tokens
    # plus marker count must reproduce the raw token count.
    rng = random.Random(7)
    words = ("alpha", "beta", "gamma", "delta")
    for _ in range(100):
        k = rng.randint(1, 8)
        lines = [f"{i}. " + " ".join(rng.choice(words) for _ in range(rng.randint(3, 7)))
                 for i in range(1, k + 1)]
        text = "\n".join(lines)
        steps, _, _ = segment(text)
        assert sum(count_tokens(s.text) for s in steps) + k == count_tokens(text)


def test_preamble_folds_into_first_step():
    steps, _, confidence = segment(
        "Thinking out loud first.\n1. Real step one here.\n2. Real step two here.")
    assert len(steps) == 2
    assert steps[0].text.startswith("Thinking out loud first.")
    assert confidence == "high"


def test_trailing_text_folds_into_last_step():
    steps, _, _ = segment("1. Work it out fully.\n2. Check it over.\nAnswer: 40")
    assert steps[-1].text.endswith("Answer: 40")


def test_step_indices_are_canonical_even_for_gapped_markers():
    steps, _, confidence = segment(
        "2. Marker says two first.\n5. Marker says five next.\n9. Marker says nine.")
    assert [s.index for s in steps] == [1, 2, 3]
    assert confidence == "low"


# Parts built from a few letters and whitespace of several kinds, so
# empty, whitespace-only and short parts are common.
_PARTS = st.lists(st.text(alphabet="ab \t\n\u3000", max_size=6), max_size=12)


@settings(max_examples=400, deadline=None)
@given(_PARTS, st.integers(min_value=1, max_value=5))
def test_merge_micro_steps_matches_oracle(texts, min_chars):
    assert _merge_micro_steps(texts, min_chars) == naive_merge_micro_steps(texts, min_chars)


# Traces built line by line from every marker family, at several indents,
# with values past max_marker_value, code and math spans that hide
# markers, and every line ending the segmenter normalizes.
_VALUES = st.one_of(st.integers(min_value=0, max_value=4), st.sampled_from([999, 1000]))
_MARKER = st.one_of(
    st.builds("{}. ".format, _VALUES),
    st.builds("{})".format, _VALUES),
    st.builds("({}) ".format, _VALUES),
    st.builds("Step {}: ".format, _VALUES),
    st.builds("step {} :".format, _VALUES),
    st.sampled_from(["- ", "* ", "-", ""]),
)
_BODY = st.one_of(
    st.text(alphabet="ab `$", max_size=8),
    st.sampled_from(["`1. x`", "$2) y$", "```\n1. code\n```", "$$\n- m\n$$", "so step 2: on"]),
)
_LINE = st.tuples(st.sampled_from(["", " ", "  ", "\t"]), _MARKER, _BODY,
                  st.sampled_from(["\n", "\r\n", "\r", "\n\n"]))
_TRACES = st.lists(_LINE, max_size=8).map(lambda lines: "".join(map("".join, lines)))
_RULES = st.builds(SegmentationRules,
                   min_step_chars=st.integers(min_value=1, max_value=4),
                   max_marker_value=st.sampled_from([3, 999]),
                   allow_paragraph_fallback=st.booleans())


@settings(max_examples=600, deadline=None)
@given(_TRACES, _RULES)
def test_segment_matches_oracle(text, rules):
    try:
        expected = naive_segment(text, rules)
    except SegmentationError as exc:
        with pytest.raises(SegmentationError) as raised:
            segment(text, rules)
        assert str(raised.value) == str(exc)
    else:
        assert segment(text, rules) == expected


def test_strict_mode_raises_without_markers():
    rules = SegmentationRules(allow_paragraph_fallback=False)
    with pytest.raises(SegmentationError, match="fallback"):
        segment("Plain prose with no structure at all.", rules)
    # markers still work in strict mode
    steps, mode, _ = segment("1. aaa bbb\n2. ccc ddd", rules)
    assert (len(steps), mode) == (2, "numbered")


def test_empty_input_raises():
    with pytest.raises(SegmentationError):
        segment("")
    with pytest.raises(SegmentationError):
        segment("   \n  \n")


def test_marker_only_input_raises():
    with pytest.raises(SegmentationError, match="no step content"):
        segment("1.\n2.\n3.")


def test_rules_validation():
    with pytest.raises(ParameterError):
        SegmentationRules(min_step_chars=0)
    with pytest.raises(ParameterError):
        SegmentationRules(max_marker_value=0)


def test_trace_from_text_normalizes_and_counts():
    trace = trace_from_text("e", "t", "1. one two\r\n2. three four")
    assert "\r" not in trace.raw_text
    assert trace.tok == count_tokens(trace.raw_text) == 6
    assert trace.k == 2
    assert trace.confidence == "high"


def test_trace_from_text_restores_from_stored_raw_text():
    trace = trace_from_text("e", "t", "1. alpha beta\n2. gamma delta")
    again = trace_from_text("e", "t", trace.raw_text)
    assert again == trace


# ---------------------------------------------------------------------------
# audit_sample


def make_traces(n_low: int, n_high: int):
    traces = []
    for i in range(n_low):
        traces.append(trace_from_text(f"low{i}", "t", "- bullet content here"))
    for i in range(n_high):
        traces.append(trace_from_text(f"high{i}", "t", "1. aaa bbb\n2. ccc ddd"))
    return traces


def test_audit_includes_every_low_confidence_trace():
    traces = make_traces(n_low=5, n_high=20)
    picked = audit_sample(traces, fraction=0.1, seed=3)
    low_ids = [t.example_id for t in traces if t.confidence == "low"]
    picked_ids = [t.example_id for t in picked]
    assert picked_ids[:len(low_ids)] == low_ids  # lows first, in input order


def test_audit_target_size():
    traces = make_traces(n_low=2, n_high=28)
    picked = audit_sample(traces, fraction=0.5, seed=3)
    assert len(picked) == math.ceil(0.5 * 30)
    # lows exceed the target: everything low still comes back
    traces = make_traces(n_low=10, n_high=2)
    picked = audit_sample(traces, fraction=0.1, seed=3)
    assert len(picked) == 10


def test_audit_is_deterministic_and_seed_sensitive():
    traces = make_traces(n_low=0, n_high=40)
    a = audit_sample(traces, fraction=0.25, seed=11)
    b = audit_sample(traces, fraction=0.25, seed=11)
    c = audit_sample(traces, fraction=0.25, seed=12)
    assert [t.example_id for t in a] == [t.example_id for t in b]
    assert [t.example_id for t in a] != [t.example_id for t in c]


def test_audit_fraction_bounds():
    traces = make_traces(1, 1)
    for bad in (0.0, -0.1, 1.01):
        with pytest.raises(ParameterError):
            audit_sample(traces, fraction=bad, seed=0)
    assert audit_sample([], fraction=0.5, seed=0) == []
    assert len(audit_sample(traces, fraction=1.0, seed=0)) == 2


def test_audit_returns_subset_of_inputs():
    traces = make_traces(3, 17)
    picked = audit_sample(traces, fraction=0.4, seed=9)
    members = {id(t) for t in traces}
    assert all(id(t) in members for t in picked)
    assert len({id(t) for t in picked}) == len(picked)
