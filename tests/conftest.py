"""Shared test oracles: independent reference implementations.

These deliberately avoid the library's code paths (different ranking,
pair enumeration instead of inversion counting) so agreement between
module and oracle actually means something.
"""

from __future__ import annotations

import math
import statistics


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
