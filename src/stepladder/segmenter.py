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
from itertools import accumulate, compress

from .corpus import Frozen, Trace, count_tokens
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

# Marker families in priority order.  Each pattern has three groups: the
# whole marker, its indent and its value; labeled markers match an empty
# indent, bullets an empty value.  The patterns scan the masked text
# behind one extra "\n", and the line-start families match that newline
# instead of (?m)^: the regex engine jumps to a literal first character,
# where it would try ^ at every position.  A numbered marker's "(" only
# opens a value that a ")" closes.
_MARKERS = {
    "numbered": re.compile(
        r"(?m)(\n(?P<indent>[ \t]*)(?:\((?=\d+\)))?(?P<value>\d+)[.)](?:[ \t]+|[ \t]*$))"),
    "labeled": re.compile(r"(?i)((?P<indent>)\bstep[ \t]+(?P<value>\d+)[ \t]*:)"),
    "bulleted": re.compile(r"(\n(?P<indent>[ \t]*)[-*][ \t]+(?P<value>))"),
}
# Every labeled marker holds "tep" in some case: under (?i), t, e and p
# match only their two ASCII cases (unlike s, which also matches U+017F).
# A text whose lowercase lacks "tep" skips the labeled scans.
_UNLABELED = {family: p for family, p in _MARKERS.items() if family != "labeled"}
_PARAGRAPH_BREAK = re.compile(r"\n[ \t]*\n+")


class SegmentationRules(Frozen):
    """Knobs for marker detection.

    min_step_chars: steps shorter than this (after stripping) are merged
    into their neighbour rather than counted.
    max_marker_value: numbers above this are not treated as list markers,
    which keeps years and large constants at line starts from splitting
    a trace.
    allow_paragraph_fallback: when False, a trace without explicit
    markers raises instead of degrading to paragraph steps.
    """

    __slots__ = ("min_step_chars", "max_marker_value", "allow_paragraph_fallback")

    def __init__(self, min_step_chars: int = 3, max_marker_value: int = 999,
                 allow_paragraph_fallback: bool = True):
        if min_step_chars < 1:
            raise ParameterError("min_step_chars must be >= 1")
        if not 1 <= max_marker_value < 10 ** 4300:  # str() refuses more digits
            raise ParameterError("max_marker_value must be >= 1 and under 4300 digits")
        self._set_fields(min_step_chars, max_marker_value, allow_paragraph_fallback)


DEFAULT_RULES = SegmentationRules()


def _mask(text: str) -> str:
    """Replace code/math span contents with a sentinel, preserving offsets."""
    if "`" not in text and "$" not in text:
        return text
    for pattern in _MASK_PATTERNS:
        text = pattern.sub(lambda m: _NOT_NEWLINE.sub("\uffff", m[0]), text)
    return text


def _marker_value(digits: str, limit: int, width: int) -> int:
    """A marker's value, 0 for a bullet, or -1 when it is above limit: no
    marker.  width is len(str(limit)).  Only the last width digits go
    through int(), which refuses over 4300 digits: every digit before them
    must be a zero, of any script, so the cost is linear in the number of
    digits."""
    if len(digits) > width and any(map(int, digits[:-width])):
        return -1
    value = int(digits[-width:] or 0)
    return value if value <= limit else -1


def _find_markers(text: str, masked: str, pattern: re.Pattern, rules: SegmentationRules):
    """One family's top-level markers: (texts, values), the text before
    the first marker and after each, unstripped, and each marker's value;
    None when there is no marker.  text and its masked copy each start
    with one extra "\n"; markers are found in masked, texts read from text.

    One split gives [text, marker, indent, value, text, marker, ...].  A
    marker whose value is above max_marker_value, or that is nested below
    the family's top indent, is no step marker: it joins, as text, the
    step before it.
    """
    pieces = pattern.split(masked)
    indents, digits = pieces[2::4], pieces[3::4]
    if not digits:
        return None
    pieces[2::4] = pieces[3::4] = [""] * len(digits)  # so "".join(pieces) == masked
    limit = rules.max_marker_value
    width = len(str(limit))
    values = [_marker_value(value, limit, width) for value in digits]
    if masked is not text:  # the masked spans are read from the text
        ends = list(accumulate(map(len, pieces)))
        pieces = [text[start:end] for start, end in zip([0, *ends], ends)]
    if -1 not in values and indents.count(indents[0]) == len(indents):
        return pieces[::4], values  # every marker starts a step
    top = min((len(indent) for indent, value in zip(indents, values) if value >= 0),
              default=None)
    if top is None:
        return None
    # Nested lists: only markers at the family's minimal indent delimit
    # steps; deeper ones stay inside their parent step's text.
    bounds = [4 * i + 1 for i, (indent, value) in enumerate(zip(indents, values))
              if value >= 0 and len(indent) == top]
    return (["".join(pieces[i + 1:end]) for i, end in zip([-1, *bounds], [*bounds, None])],
            [values[i // 4] for i in bounds])


def _merge_micro_steps(texts: list[str], min_chars: int) -> tuple[list[str], bool]:
    """Fold steps shorter than min_chars into a neighbour.

    A micro step merges backward into its predecessor; a leading micro
    run merges forward into the first real step.  Returns the merged
    texts and whether any merge happened.

    texts are stripped, so a merge that makes the step (step + "\n" +
    text).strip() joins the step's nonempty texts with "\n"; each step is
    kept as that list and joined once, so the cost is linear in the text
    length.
    """
    if min(map(len, texts), default=min_chars) >= min_chars:
        return texts, False
    steps: list[list[str]] = []  # each step's nonempty texts
    size = 0  # len("\n".join(steps[-1]))
    for text in texts:
        if not steps or (len(text) >= min_chars and size >= min_chars):
            steps.append([])
            size = 0
        if text:
            size += bool(steps[-1]) + len(text)  # a "\n" unless it is the first
            steps[-1].append(text)
    return ["\n".join(step) for step in steps], len(steps) < len(texts)


def segment(raw_text: str, rules: SegmentationRules = DEFAULT_RULES):
    """Segment a trace.  Returns (steps, segmentation_mode, confidence),
    steps being the tuple of step texts in order.

    Raises SegmentationError on empty input, or on marker-free input when
    paragraph fallback is disabled.
    """
    return _segment(_normalize(raw_text), rules)


def _normalize(raw_text: str) -> str:
    return raw_text.replace("\r\n", "\n").replace("\r", "\n")


def _segment(text: str, rules: SegmentationRules):
    """segment() of a text whose newlines are normalized."""
    if not text.strip():
        raise SegmentationError("cannot segment empty trace")

    masked = _mask(text)
    unmasked = "\n" + text
    masked = unmasked if masked is text else "\n" + masked
    families = _MARKERS if "tep" in masked.lower() else _UNLABELED
    for family, pattern in families.items():
        found = _find_markers(unmasked, masked, pattern, rules)
        if found:
            steps, mode, confidence = _segment_by_markers(*found, family, rules)
            # Two ordinal marker families in one trace means the step
            # structure is ambiguous, whatever the winner looked like.
            if (mode == "numbered" and confidence == "high" and families is _MARKERS
                    and _find_markers(unmasked, masked, _MARKERS["labeled"], rules)):
                confidence = "low"
            return steps, mode, confidence

    if not rules.allow_paragraph_fallback:
        raise SegmentationError(
            "no explicit step markers found and paragraph fallback is disabled"
        )
    return _segment_paragraphs(text, rules)


def _segment_by_markers(texts, values, family: str, rules: SegmentationRules):
    # Anything before the first marker belongs to the first step.
    preamble, *texts = map(str.strip, texts)
    if preamble:
        texts[0] = preamble + "\n" + texts[0] if texts[0] else preamble

    texts, merged = _merge_micro_steps(texts, rules.min_step_chars)
    if not any(texts):  # each is stripped
        raise SegmentationError("trace contains step markers but no step content")

    confidence = "low"
    if family in ("numbered", "labeled") and not merged:
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
    text = _normalize(raw_text)
    steps, mode, confidence = _segment(text, rules)
    return Trace(
        example_id=example_id,
        teacher_id=teacher_id,
        raw_text=text,
        steps=steps,
        tok=count_tokens(text),
        segmentation_mode=mode,
        confidence=confidence,
    )


def audit_draw(low: bytes, fraction: float, seed: int) -> bytearray:
    """The audit rule over positions: low holds one byte per trace, 1 for
    a low-confidence trace and 0 for a high-confidence one.  Returns one
    byte per trace, 1 for each high-confidence trace the seeded draw
    picks; the audit sample is every low trace, then every drawn one,
    each group in input order.

    The draw fills the rest of the ceil(fraction * n) target: its
    positions among the high traces are random.Random(seed).sample of
    range(number of high traces), which picks what sampling the high
    traces themselves would, because sample uses only the population's
    length.
    """
    if not 0.0 < fraction <= 1.0:
        raise ParameterError(f"audit fraction must lie in (0, 1], got {fraction}")
    drawn = bytearray(len(low))
    n_low = low.count(1)
    n_high = len(low) - n_low
    extra = max(0, math.ceil(fraction * len(low)) - n_low)
    chosen = set(random.Random(seed).sample(range(n_high), min(extra, n_high)))
    rank = 0  # the next high trace's position among the high traces
    for i, is_low in enumerate(low):
        if not is_low:
            drawn[i] = rank in chosen
            rank += 1
    return drawn


def audit_sample(traces, fraction: float, seed: int) -> list[Trace]:
    """Pick traces for manual audit.

    All low-confidence traces are included (in input order); the rest of
    the ceil(fraction * n) target is filled by a seeded uniform draw from
    the high-confidence ones (see audit_draw).  The same inputs, fraction
    and seed always return the same selection.
    """
    traces = list(traces)
    low = bytes(t.confidence == "low" for t in traces)
    drawn = audit_draw(low, fraction, seed)
    return list(compress(traces, low)) + list(compress(traces, drawn))
