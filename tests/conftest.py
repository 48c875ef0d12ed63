"""Shared test oracles: independent reference implementations.

These deliberately avoid the library's code paths (different ranking,
pair enumeration instead of inversion counting) so agreement between
module and oracle actually means something.
"""

from __future__ import annotations

import math
import re
import statistics

from stepladder.corpus import Step
from stepladder.errors import SegmentationError


def naive_kendall_tau(xs, ys) -> float:
    """Tau-b by explicit pair enumeration, O(n^2).

    Shares only the final division with the fast implementation, so
    exact float equality between the two is a meaningful check.
    """
    n = len(xs)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = (xs[i] > xs[j]) - (xs[i] < xs[j])
            dy = (ys[i] > ys[j]) - (ys[i] < ys[j])
            if dx == 0 and dy == 0:
                continue
            if dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif dx == dy:
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) // 2
    n1 = ties_x + _joint_ties(xs, ys)
    n2 = ties_y + _joint_ties(xs, ys)
    if n0 == n1 or n0 == n2:
        return 0.0
    num = concordant - discordant
    return num / math.sqrt((n0 - n1) * (n0 - n2))


def _joint_ties(xs, ys) -> int:
    n = len(xs)
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            if xs[i] == xs[j] and ys[i] == ys[j]:
                count += 1
    return count


def counting_ranks(values) -> list[float]:
    """Average ranks by direct counting: rank = #less + (#equal + 1) / 2."""
    ranks = []
    for v in values:
        less = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        ranks.append(less + (equal + 1) / 2)
    return ranks


def ref_spearman(xs, ys) -> float:
    """Spearman via counting ranks and the stdlib Pearson correlation."""
    return statistics.correlation(counting_ranks(xs), counting_ranks(ys))


def naive_merge_micro_steps(texts, min_chars):
    """The segmenter's micro-step merge, rebuilding the last step on every
    merge: quadratic on long runs, but plainly right."""
    merged = False
    out = []
    for text in texts:
        if out and (len(text.strip()) < min_chars or len(out[-1].strip()) < min_chars):
            out[-1] = (out[-1] + "\n" + text).strip()
            merged = True
        else:
            out.append(text)
    return out, merged


_NAIVE_MASKS = (
    re.compile(r"```.*?```", re.DOTALL),
    re.compile(r"`[^`\n]+`"),
    re.compile(r"\$\$.*?\$\$", re.DOTALL),
    re.compile(r"\$[^$\n]+\$"),
)
_NAIVE_NUMBERED = re.compile(r"(?m)^([ \t]*)(?:(\d+)[.)]|\((\d+)\))(?:[ \t]+|[ \t]*$)")
_NAIVE_LABELED = re.compile(r"(?i)\bstep[ \t]+(\d+)[ \t]*:")
_NAIVE_BULLETED = re.compile(r"(?m)^([ \t]*)[-*][ \t]+")


def _naive_mask(text):
    for pattern in _NAIVE_MASKS:
        text = pattern.sub(
            lambda m: "".join("\n" if ch == "\n" else "\uffff" for ch in m.group(0)), text)
    return text


def _naive_find_markers(masked, family, rules):
    if family == "numbered":
        hits = [(m.start(), m.end(), int(m.group(2) or m.group(3)), len(m.group(1)))
                for m in _NAIVE_NUMBERED.finditer(masked)]
        hits = [h for h in hits if h[2] <= rules.max_marker_value]
    elif family == "labeled":
        hits = [(m.start(), m.end(), int(m.group(1)), 0)
                for m in _NAIVE_LABELED.finditer(masked)
                if int(m.group(1)) <= rules.max_marker_value]
    else:
        hits = [(m.start(), m.end(), None, len(m.group(1)))
                for m in _NAIVE_BULLETED.finditer(masked)]
    if not hits:
        return []
    top = min(h[3] for h in hits)
    return [(start, content, value) for start, content, value, indent in hits
            if indent == top]


def _naive_steps(texts):
    return tuple(Step(index=i, text=t) for i, t in enumerate(texts, start=1))


def naive_segment(raw_text, rules):
    """The segmenter with one hand-written branch per marker family, tried
    in the order numbered, labeled, bulleted; each family is scanned
    afresh wherever it is needed."""
    text = raw_text.replace("\r\n", "\n").replace("\r", "\n")
    if not text.strip():
        raise SegmentationError("cannot segment empty trace")
    masked = _naive_mask(text)
    for family in ("numbered", "labeled", "bulleted"):
        markers = _naive_find_markers(masked, family, rules)
        if not markers:
            continue
        texts = []
        for i, (_start, content_start, _value) in enumerate(markers):
            end = markers[i + 1][0] if i + 1 < len(markers) else len(text)
            texts.append(text[content_start:end].strip())
        preamble = text[: markers[0][0]].strip()
        if preamble:
            texts[0] = preamble + "\n" + texts[0] if texts[0] else preamble
        texts, merged = naive_merge_micro_steps(texts, rules.min_step_chars)
        if not any(t.strip() for t in texts):
            raise SegmentationError("trace contains step markers but no step content")
        values = [value for _, _, value in markers]
        confidence = "low"
        if (family in ("numbered", "labeled") and not merged
                and values == list(range(1, len(values) + 1))):
            confidence = "high"
        if (family == "numbered" and confidence == "high"
                and _naive_find_markers(masked, "labeled", rules)):
            confidence = "low"
        return _naive_steps(texts), family, confidence
    if not rules.allow_paragraph_fallback:
        raise SegmentationError(
            "no explicit step markers found and paragraph fallback is disabled")
    parts = [p.strip() for p in re.split(r"\n[ \t]*\n+", text)]
    texts, _ = naive_merge_micro_steps([p for p in parts if p], rules.min_step_chars)
    return _naive_steps(texts), "paragraph-fallback", "low"
