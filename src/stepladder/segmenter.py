"""Split raw reasoning traces into discrete steps.

Marker families, tried in priority order:

* numbered   -- lines starting "1.", "1)" or "(1)"
* labeled    -- "Step 1:" anywhere in the text (case-insensitive)
* bulleted   -- lines starting "-" or "*"

The first family with at least one top-level match wins.  When no family
matches, the trace falls back to paragraph splitting on blank lines
(unless disabled, in which case segmentation fails loudly).

Confidence is "high" only for numbered or labeled traces whose marker
values run exactly 1, 2, ..., k with no gaps, repeats or merged
micro-steps; everything else is "low" and is meant to be routed through
audit_sample for manual inspection.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass

from .corpus import Trace, count_tokens
from .errors import ParameterError, SegmentationError

# Spans whose contents must never be read as step markers.  Ordered:
# fenced code first so backticks and dollars inside fences are dead by
# the time the inline patterns run.
_MASK_PATTERNS = (
    re.compile(r"```.*?```", re.DOTALL),
    re.compile(r"`[^`\n]+`"),
    re.compile(r"\$\$.*?\$\$", re.DOTALL),
    re.compile(r"\$[^$\n]+\$"),
)
_NOT_NEWLINE = re.compile(r"[^\n]")

# Marker families in priority order.  Every pattern has an indent and a
# value group; labeled markers match an empty indent, bullets an empty
# value.  The patterns scan the masked text behind one extra "\n", and the
# line-start families match that newline instead of (?m)^: the regex
# engine jumps to a literal first character, where it would try ^ at
# every position.
_MARKERS = {
    "numbered": re.compile(
        r"(?m)\n(?P<indent>[ \t]*)(?P<paren>\()?(?P<value>\d+)(?(paren)\)|[.)])(?:[ \t]+|[ \t]*$)"),
    "labeled": re.compile(r"(?i)(?P<indent>)\bstep[ \t]+(?P<value>\d+)[ \t]*:"),
    "bulleted": re.compile(r"\n(?P<indent>[ \t]*)[-*][ \t]+(?P<value>)"),
}
# Every labeled marker holds "tep" in some case: under (?i), t, e and p
# match only their two ASCII cases (unlike s, which also matches U+017F).
# A text whose lowercase lacks "tep" skips the labeled scans.
_UNLABELED = {family: p for family, p in _MARKERS.items() if family != "labeled"}
_PARAGRAPH_BREAK = re.compile(r"\n[ \t]*\n+")


@dataclass(frozen=True)
class SegmentationRules:
    """Knobs for marker detection.

    min_step_chars: steps shorter than this (after stripping) are merged
    into their neighbour rather than counted.
    max_marker_value: numbers above this are not treated as list markers,
    which keeps years and large constants at line starts from splitting
    a trace.
    allow_paragraph_fallback: when False, a trace without explicit
    markers raises instead of degrading to paragraph steps.
    """

    min_step_chars: int = 3
    max_marker_value: int = 999
    allow_paragraph_fallback: bool = True

    def __post_init__(self):
        if self.min_step_chars < 1:
            raise ParameterError("min_step_chars must be >= 1")
        if not 1 <= self.max_marker_value < 10 ** 4300:  # str() refuses more digits
            raise ParameterError("max_marker_value must be >= 1 and under 4300 digits")


DEFAULT_RULES = SegmentationRules()


def _mask(text: str) -> str:
    """Replace code/math span contents with a sentinel, preserving offsets."""
    if "`" not in text and "$" not in text:
        return text
    for pattern in _MASK_PATTERNS:
        text = pattern.sub(lambda m: _NOT_NEWLINE.sub("\uffff", m[0]), text)
    return text


def _find_markers(masked: str, pattern: re.Pattern, rules: SegmentationRules):
    """Top-level marker matches of one family in "\n" + the masked text:
    [(indent, start, content_start, value)], at offsets into the text.

    A value above max_marker_value is no marker.  Only the last
    len(str(max_marker_value)) digits go through int(), which refuses
    over 4300 digits: every digit before them must be a zero, of any
    script, so the cost is linear in the number of digits.
    """
    limit = rules.max_marker_value
    width = len(str(limit))
    hits = []
    for m in pattern.finditer(masked):
        digits = m["value"]
        if digits:
            if len(digits) > width and any(map(int, digits[:-width])):
                continue
            value = int(digits[-width:])
            if value > limit:
                continue
        else:
            value = None
        start = m.start("indent")
        hits.append((m.end("indent") - start, start - 1, m.end() - 1, value))
    if not hits:
        return hits
    # Nested lists: only markers at the family's minimal indent delimit
    # steps; deeper ones stay inside their parent step's text.
    top = min(hits)[0]
    return [hit for hit in hits if hit[0] == top]


def _merge_micro_steps(texts: list[str], min_chars: int) -> tuple[list[str], bool]:
    """Fold steps shorter than min_chars into a neighbour.

    A micro step merges backward into its predecessor; a leading micro
    run merges forward into the first real step.  Returns the merged
    texts and whether any merge happened.

    A merge makes the step (step + "\n" + text).strip(); a merged step is
    kept as a list of pieces and joined once, so the cost is linear in
    the text length.
    """
    steps: list = []  # each a text, or once merged into, its text's pieces
    core = 0  # len(steps[-1] joined and stripped)
    for text in texts:
        stripped = text.strip()
        if not steps or (len(stripped) >= min_chars and core >= min_chars):
            steps.append(text)
            core = len(stripped)
            continue
        last = steps[-1]
        if type(last) is str:
            # Strip the text now as its first merge would; its trailing
            # whitespace stays only if text has content to follow it.
            first = last.lstrip() if stripped else last.strip()
            last = steps[-1] = [first] if first else []
            core = len(first)
        if stripped and last:
            last += ("\n", text.rstrip())
            core += 1 + len(last[-1])
        elif stripped:
            last.append(stripped)
            core = len(stripped)
    out = [step if type(step) is str else "".join(step) for step in steps]
    return out, len(out) < len(texts)


def segment(raw_text: str, rules: SegmentationRules = DEFAULT_RULES):
    """Segment a trace.  Returns (steps, segmentation_mode, confidence),
    steps being the tuple of step texts in order.

    Raises SegmentationError on empty input, or on marker-free input when
    paragraph fallback is disabled.
    """
    text = raw_text.replace("\r\n", "\n").replace("\r", "\n")
    if not text.strip():
        raise SegmentationError("cannot segment empty trace")

    masked = "\n" + _mask(text)
    families = _MARKERS if "tep" in masked.lower() else _UNLABELED
    for family, pattern in families.items():
        markers = _find_markers(masked, pattern, rules)
        if markers:
            steps, mode, confidence = _segment_by_markers(text, markers, family, rules)
            # Two ordinal marker families in one trace means the step
            # structure is ambiguous, whatever the winner looked like.
            if (mode == "numbered" and confidence == "high" and families is _MARKERS
                    and _find_markers(masked, _MARKERS["labeled"], rules)):
                confidence = "low"
            return steps, mode, confidence

    if not rules.allow_paragraph_fallback:
        raise SegmentationError(
            "no explicit step markers found and paragraph fallback is disabled"
        )
    return _segment_paragraphs(text, rules)


def _segment_by_markers(text: str, markers, family: str, rules: SegmentationRules):
    ends = [start for _indent, start, _content, _value in markers[1:]]
    ends.append(len(text))
    texts = [text[content:end].strip()
             for (_indent, _start, content, _value), end in zip(markers, ends)]
    # Anything before the first marker belongs to the first step.
    preamble = text[: markers[0][1]].strip()
    if preamble:
        texts[0] = preamble + "\n" + texts[0] if texts[0] else preamble

    texts, merged = _merge_micro_steps(texts, rules.min_step_chars)
    if not any(t.strip() for t in texts):
        raise SegmentationError("trace contains step markers but no step content")

    confidence = "low"
    if family in ("numbered", "labeled") and not merged:
        values = [value for _indent, _start, _content, value in markers]
        if values == list(range(1, len(values) + 1)):
            confidence = "high"
    return tuple(texts), family, confidence


def _segment_paragraphs(text: str, rules: SegmentationRules):
    parts = [p.strip() for p in _PARAGRAPH_BREAK.split(text)]
    parts = [p for p in parts if p]
    texts, _ = _merge_micro_steps(parts, rules.min_step_chars)
    return tuple(texts), "paragraph-fallback", "low"


def trace_from_text(example_id: str, teacher_id: str, raw_text: str,
                    rules: SegmentationRules = DEFAULT_RULES) -> Trace:
    """Segment raw teacher output into a full Trace record.

    raw_text is stored newline-normalized, and tok counts the whole trace
    (markers included), so a stored trace re-segments to itself.
    """
    text = raw_text.replace("\r\n", "\n").replace("\r", "\n")
    steps, mode, confidence = segment(text, rules)
    return Trace(
        example_id=example_id,
        teacher_id=teacher_id,
        raw_text=text,
        steps=steps,
        tok=count_tokens(text),
        segmentation_mode=mode,
        confidence=confidence,
    )


def audit_sample(traces, fraction: float, seed: int) -> list[Trace]:
    """Pick traces for manual audit.

    All low-confidence traces are included (in input order); the rest of
    the ceil(fraction * n) target is filled by a seeded uniform draw from
    the high-confidence ones.  The same inputs, fraction and seed always
    return the same selection.
    """
    if not 0.0 < fraction <= 1.0:
        raise ParameterError(f"audit fraction must lie in (0, 1], got {fraction}")
    traces = list(traces)
    if not traces:
        return []
    target = math.ceil(fraction * len(traces))
    low = [t for t in traces if t.confidence == "low"]
    high = [t for t in traces if t.confidence == "high"]
    extra = max(0, target - len(low))
    rng = random.Random(seed)
    picked = rng.sample(high, min(extra, len(high)))
    picked_set = {id(t) for t in picked}
    return low + [t for t in high if id(t) in picked_set]
