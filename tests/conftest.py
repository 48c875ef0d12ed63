"""Shared test oracles: independent reference implementations.

These deliberately avoid the library's code paths (different ranking,
pair enumeration instead of inversion counting) so agreement between
module and oracle actually means something.
"""

from __future__ import annotations

import math
import random
import re
import statistics
import unicodedata

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


def _naive_value(digits, limit):
    """A marker's value if it is at most limit, else None: its digits, of
    any script, read one by one with unicodedata, leading zeros dropped, so
    that no int() sees more digits than limit has."""
    values = [unicodedata.decimal(ch) for ch in digits]
    first = next((i for i, v in enumerate(values) if v), len(values))
    if len(values) - first > len(str(limit)):
        return None
    value = sum(v * 10 ** i for i, v in enumerate(reversed(values[first:])))
    return value if value <= limit else None


def _naive_find_markers(masked, family, rules):
    if family == "numbered":
        hits = [(m.start(), m.end(), _naive_value(m.group(2) or m.group(3),
                                                  rules.max_marker_value), len(m.group(1)))
                for m in _NAIVE_NUMBERED.finditer(masked)]
        hits = [h for h in hits if h[2] is not None]
    elif family == "labeled":
        hits = [(m.start(), m.end(), _naive_value(m.group(1), rules.max_marker_value), 0)
                for m in _NAIVE_LABELED.finditer(masked)]
        hits = [h for h in hits if h[2] is not None]
    else:
        hits = [(m.start(), m.end(), None, len(m.group(1)))
                for m in _NAIVE_BULLETED.finditer(masked)]
    if not hits:
        return []
    top = min(h[3] for h in hits)
    return [(start, content, value) for start, content, value, indent in hits
            if indent == top]


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
        return tuple(texts), family, confidence
    if not rules.allow_paragraph_fallback:
        raise SegmentationError(
            "no explicit step markers found and paragraph fallback is disabled")
    parts = [p.strip() for p in re.split(r"\n[ \t]*\n+", text)]
    texts, _ = naive_merge_micro_steps([p for p in parts if p], rules.min_step_chars)
    return tuple(texts), "paragraph-fallback", "low"


def naive_apply_task_cap(members, share):
    """The bucketer's task-share cap as an evict-and-recount loop: every
    round recounts the tasks, evicts one member of the most over-cap task
    (ties to the larger name), and stops once every task fits."""
    retained = list(members)
    evicted = []
    while retained:
        counts = {}
        for _k, _id, task in retained:
            counts[task] = counts.get(task, 0) + 1
        cap = math.ceil(share * len(retained))
        over = [(cnt - cap, task) for task, cnt in counts.items() if cnt > cap]
        if not over:
            break
        _excess, worst = max(over, key=lambda t: (t[0], t[1]))
        for i in range(len(retained) - 1, -1, -1):
            if retained[i][2] == worst:
                evicted.append(retained.pop(i))
                break
    evicted.reverse()
    return retained, evicted


def list_audit_sample(traces, fraction, seed):
    """The audit rule over the traces themselves: every low-confidence
    trace, then a seeded sample of the high-confidence ones, drawn from
    their list, in input order."""
    traces = list(traces)
    if not traces:
        return []
    target = math.ceil(fraction * len(traces))
    low = [t for t in traces if t.confidence == "low"]
    high = [t for t in traces if t.confidence == "high"]
    extra = max(0, target - len(low))
    picked = random.Random(seed).sample(high, min(extra, len(high)))
    picked_ids = {id(t) for t in picked}
    return low + [t for t in high if id(t) in picked_ids]


class CacheLogModel:
    """The response cache log as a dict: what a lookup of each key must
    give after a run of appended lines.

    The last complete line under a key decides: its text if the line is
    intact, a miss (None) if it is bad.  A torn line (one cut short with
    no newline) decides nothing while it is last; once another line
    follows, it is a line of its own, intact only if nothing but its
    newline was cut.
    """

    def __init__(self):
        self.texts = {}
        self._torn = None  # (key or None, text or None) once completed

    def line(self, key, text):
        """A complete line indexed under key (None: under no key), whose
        text is text, or None for a bad line."""
        self._complete()
        if key is not None:
            self.texts[key] = text

    def torn(self, key, text):
        self._complete()
        self._torn = (key, text)

    def _complete(self):
        if self._torn is not None:
            key, text = self._torn
            self._torn = None
            if key is not None:
                self.texts[key] = text

    def get(self, key):
        return self.texts.get(key)
