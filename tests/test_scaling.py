"""No stage is super-linear on legal input.

Each check builds one adversarial but legal input family at a size n and
at 4n, times the stage in-process on both, best of 3 with the sizes
interleaved, and asserts a time ratio under 8: linear work gives about 4,
quadratic work about 16.
"""

from __future__ import annotations

import time

from stepladder.bucketer import BucketSpec, bucketize
from stepladder.corpus import DoTScore

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
