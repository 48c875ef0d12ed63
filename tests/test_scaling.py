"""No stage is super-linear on legal input.

Each check builds one adversarial but legal input family at a size n and
at 4n, times the stage in-process on both, best of 3 with the sizes
interleaved, and asserts a time ratio under 8: linear work gives about 4,
quadratic work about 16.
"""

from __future__ import annotations

import time

import pytest

from stepladder.analyzer import kendall_tau
from stepladder.bucketer import BucketSpec, bucketize
from stepladder.corpus import DoTScore, Example, SchedulePlan
from stepladder.scheduler import baseline_order
from stepladder.segmenter import segment

SIZES = (500, 2000)


def best_times(family, sizes=SIZES, repeats=3) -> list[float]:
    """The best time of repeats calls of family(n)'s run for each size n,
    the sizes interleaved so that a slow spell hits both."""
    runs = [family(n) for n in sizes]
    best = [float("inf")] * len(sizes)
    for _ in range(repeats):
        for i, run in enumerate(runs):
            start = time.perf_counter()
            run()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def bucket_lookup(n):
    """bucketize of n scores, all in the last of n buckets (one edge per k),
    of one task."""
    spec = BucketSpec(tuple((k, k) for k in range(1, n)) + ((n, None),))
    scores = [DoTScore.compute(f"e{i}", "t", k=n, tok=50) for i in range(n)]
    tasks = {score.example_id: "math" for score in scores}
    return lambda: bucketize(scores, spec, tasks)


def test_bucket_lookup_is_linear():
    small, large = best_times(bucket_lookup)
    assert large / small < 8


# Texts of n units each that push the segmenter's masks, marker scans and
# step merges hardest.
SEGMENTER_TEXTS = {
    "backtick run": lambda n: "`" * n,
    "unclosed fences": lambda n: "```\n1. a\n" * n,
    "unclosed inline code": lambda n: "a `b\n" * n,
    "dollar run": lambda n: "$" * n,
    "unclosed display math": lambda n: "$$ x\n1. a\n" * n,
    "tiny numbered steps": lambda n: "".join(f"{i}. a\n" for i in range(1, n + 1)),
    "nested indents": lambda n: "".join(" " * (i % 40) + "1. a step\n" for i in range(n)),
    "long zero-padded markers": lambda n: ("0" * 40 + "1. a step\n") * n,
    "markers above the limit": lambda n: "".join(f"{1000 + i}. a\n" for i in range(n)),
    "labels on one line": lambda n: "Step 1: a " * n,
    "tep but no step": lambda n: "tep " * n,
    "blank-line paragraphs": lambda n: "a\n \n\n" * n,
}


@pytest.mark.parametrize("name", sorted(SEGMENTER_TEXTS))
def test_segmenter_is_linear(name):
    def family(n):
        text = SEGMENTER_TEXTS[name](n)
        return lambda: segment(text)

    small, large = best_times(family)
    assert large / small < 8


def task_cap(n):
    """bucketize of n scores in one bucket, two of each of n/2 tasks, under
    a cap of one member a task: every task loses a member."""
    scores = [DoTScore.compute(f"e{i}", "t", k=1, tok=50) for i in range(n)]
    tasks = {score.example_id: f"task{i // 2}" for i, score in enumerate(scores)}
    spec = BucketSpec(((1, None),), max_task_share=1 / n)
    return lambda: bucketize(scores, spec, tasks)


def kendall_three_values(n):
    """Kendall tau of n pairs whose xs and ys each take three values."""
    xs = [i % 3 for i in range(n)]
    ys = [i * 7 // 5 % 3 for i in range(n)]
    return lambda: kendall_tau(xs, ys)


def baseline_all_tied(n):
    """The token_length baseline of n examples whose scores all have one tok."""
    examples = [Example(id=f"e{i}", task="math", prompt="p") for i in range(n)]
    scores = [DoTScore.compute(f"e{i}", "t", k=1, tok=50) for i in range(n)]
    plan = SchedulePlan(mode="staged", phases=1, budget_per_phase=n, seed=0)
    return lambda: baseline_order(examples, scores, "token_length", plan)


@pytest.mark.parametrize("family", [task_cap, kendall_three_values, baseline_all_tied],
                         ids=lambda family: family.__name__)
def test_stage_is_linear(family):
    small, large = best_times(family)
    assert large / small < 8
