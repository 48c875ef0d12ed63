"""Group scored examples into contiguous depth buckets.

Buckets partition the k axis (default 1-3, 4-6, 7+).  An optional
per-task share cap keeps any single task family from dominating a
bucket: a task may hold at most ceil(max_task_share * n) members, where
n is the bucket's size after capping.  Members evicted by the cap are
reported as overflow, never dropped silently.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections import Counter
from operator import itemgetter
from typing import Iterable, Mapping, Optional

from .corpus import (NUMBER, DoTScore, Frozen, Record, one_score_per_example, read_headed,
                     write_atomic)
from .errors import CorpusError, ParameterError

DEFAULT_EDGES = ((1, 3), (4, 6), (7, None))


class BucketSpec(Frozen):
    """Depth bucket boundaries plus the task-balance cap.

    edges is a tuple of (lo, hi) ranges; hi None means unbounded.  Ranges
    must start at 1, be contiguous and non-overlapping, and the final
    range must be unbounded so every k >= 1 lands somewhere.
    """

    __slots__ = ("edges", "max_task_share")

    def __init__(self, edges: tuple[tuple[int, Optional[int]], ...] = DEFAULT_EDGES,
                 max_task_share: float = 1.0):
        edges = tuple(tuple(e) for e in edges)
        if not edges:
            raise ParameterError("bucket edges must be nonempty")
        if edges[0][0] != 1:
            raise ParameterError("first bucket must start at k = 1")
        for i, (lo, hi) in enumerate(edges):
            last = i == len(edges) - 1
            if hi is None and not last:
                raise ParameterError("only the final bucket may be unbounded")
            if hi is not None and hi < lo:
                raise ParameterError(f"bucket range ({lo}, {hi}) is empty")
            if i > 0:
                prev_hi = edges[i - 1][1]
                if lo != prev_hi + 1:
                    raise ParameterError(
                        f"bucket ranges must be contiguous, got ...{prev_hi}], [{lo}..."
                    )
        if edges[-1][1] is not None:
            raise ParameterError("final bucket must be unbounded (hi = None)")
        if not 0.0 < max_task_share <= 1.0:
            raise ParameterError("max_task_share must lie in (0, 1]")
        self._set_fields(edges, max_task_share)

    def bucket_for_k(self, k: int) -> int:
        """1-based bucket index for a step count: the edges start at 1 and
        are contiguous, so it is the number of edges whose lo is at most k."""
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        return bisect_right(self.edges, k, key=itemgetter(0))


class Bucket(Frozen):
    """One depth bucket's retained members, sorted by (k, id)."""

    __slots__ = ("index", "lo", "hi", "member_ids", "member_ks", "task_histogram")

    def __init__(self, index: int, lo: int, hi: Optional[int], member_ids: tuple[str, ...] = (),
                 member_ks: tuple[int, ...] = (),
                 task_histogram: Optional[dict[str, int]] = None):
        member_ids, member_ks = tuple(member_ids), tuple(member_ks)
        if len(member_ids) != len(member_ks):
            raise CorpusError(f"bucket {index}: ids and ks differ in length")
        self._set_fields(index, lo, hi, member_ids, member_ks,
                         {} if task_histogram is None else task_histogram)

    @property
    def size(self) -> int:
        return len(self.member_ids)

    @property
    def range_label(self) -> str:
        return f"{self.lo}+" if self.hi is None else f"{self.lo}-{self.hi}"


class OverflowRecord(Frozen):
    """A member evicted from a bucket by the task-share cap."""

    __slots__ = ("bucket_index", "example_id", "task", "k")

    def __init__(self, bucket_index: int, example_id: str, task: str, k: int):
        self._set_fields(bucket_index, example_id, task, k)


class BucketizeResult(Frozen):
    __slots__ = ("spec", "buckets", "overflow")

    def __init__(self, spec: BucketSpec, buckets: tuple[Bucket, ...],
                 overflow: tuple[OverflowRecord, ...] = ()):
        self._set_fields(spec, buckets, overflow)


def _apply_task_cap(members: list[tuple[int, str, str]], share: float):
    """Evict members until every task holds <= ceil(share * n) of n retained.

    members are (k, id, task), already sorted.  Each round, the most
    over-cap task (ties broken by task name) loses its largest (k, id)
    member.  Returns (retained, evicted): retained in (k, id) order,
    evicted in reverse order of eviction, the last one evicted first.

    One sorted pass finds the same evictions as that round-by-round loop.
    The cap ceil(share * n) is the same for every task, so the most
    over-cap task of a round is the task with the most members, ties
    going to the larger name.  That task loses its j-th member (in
    (k, id) order) when it holds j members.  The whole eviction sequence
    is therefore every task's slots (j, task) in descending order, and it
    stops at the first slot with j <= ceil(share * (n - evicted so far)).
    When the largest task fits under the cap, that is the first slot.
    """
    by_task: dict[str, list[tuple[int, str, str]]] = {}
    for member in members:
        by_task.setdefault(member[2], []).append(member)
    if max(map(len, by_task.values()), default=0) <= math.ceil(share * len(members)):
        return members, []
    slots = sorted(((j, task) for task, own in by_task.items()
                    for j in range(1, len(own) + 1)), reverse=True)
    evicted: list[tuple[int, str, str]] = []
    for j, task in slots:
        if j <= math.ceil(share * (len(members) - len(evicted))):
            break
        evicted.append(by_task[task][j - 1])
    gone = {m[1] for m in evicted}
    evicted.reverse()
    return [m for m in members if m[1] not in gone], evicted


def bucketize(scores: Iterable[DoTScore], spec: BucketSpec,
              tasks: Mapping[str, str]) -> BucketizeResult:
    """Assign one score per example to its depth bucket.

    tasks maps example_id to a task family name, used for the balance
    cap and the per-bucket histograms.  A second score for one example
    (e.g. another teacher's) and an id that tasks lacks or maps to None
    are CorpusErrors: collapse to one score per example first.
    """
    per_bucket: dict[int, list[tuple[int, str, str]]] = {}
    for sc in one_score_per_example(scores, tasks, "tasks", "task"):
        member = (sc.k, sc.example_id, tasks[sc.example_id])
        per_bucket.setdefault(spec.bucket_for_k(sc.k), []).append(member)

    buckets: list[Bucket] = []
    overflow: list[OverflowRecord] = []
    for i, (lo, hi) in enumerate(spec.edges, start=1):
        members = sorted(per_bucket.get(i, []))
        retained, evicted = _apply_task_cap(members, spec.max_task_share)
        histogram = Counter(task for _k, _id, task in retained)
        buckets.append(Bucket(
            index=i,
            lo=lo,
            hi=hi,
            member_ids=tuple(m[1] for m in retained),
            member_ks=tuple(m[0] for m in retained),
            task_histogram=dict(sorted(histogram.items())),
        ))
        overflow.extend(
            OverflowRecord(bucket_index=i, example_id=m[1], task=m[2], k=m[0])
            for m in evicted
        )
    return BucketizeResult(spec=spec, buckets=tuple(buckets), overflow=tuple(overflow))


# ---------------------------------------------------------------------------
# Reporting


class BucketReport(Frozen):
    """Table-friendly summary of a bucketize run."""

    __slots__ = ("rows", "overflow_total", "overflow_by_task")

    def __init__(self, rows: tuple[dict, ...], overflow_total: int,
                 overflow_by_task: dict[str, int]):
        self._set_fields(rows, overflow_total, overflow_by_task)

    def render(self) -> str:
        header = f"{'bucket':>6}  {'range':>6}  {'size':>5}  {'k min':>5}  {'k mean':>7}  {'k max':>5}  tasks"
        lines = [header, "-" * len(header)]
        for row in self.rows:
            if row["size"] == 0:
                stats = f"{'-':>5}  {'-':>7}  {'-':>5}"
                tasks = "-"
            else:
                stats = f"{row['k_min']:>5}  {row['k_mean']:>7.2f}  {row['k_max']:>5}"
                tasks = ", ".join(f"{t}={n}" for t, n in row["tasks"].items())
            lines.append(
                f"{row['bucket']:>6}  {row['range']:>6}  {row['size']:>5}  {stats}  {tasks}"
            )
        lines.append(f"overflow: {self.overflow_total}")
        for task, n in self.overflow_by_task.items():
            lines.append(f"  {task}: {n}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "buckets": [dict(row) for row in self.rows],
            "overflow_total": self.overflow_total,
            "overflow_by_task": dict(self.overflow_by_task),
        }


def describe(result: BucketizeResult) -> BucketReport:
    rows = []
    for b in result.buckets:
        row = {"bucket": b.index, "range": b.range_label, "size": b.size}
        if b.size:
            row["k_min"] = min(b.member_ks)
            row["k_mean"] = sum(b.member_ks) / b.size
            row["k_max"] = max(b.member_ks)
            row["tasks"] = dict(b.task_histogram)
        rows.append(row)
    by_task = Counter(rec.task for rec in result.overflow)
    return BucketReport(
        rows=tuple(rows),
        overflow_total=len(result.overflow),
        overflow_by_task=dict(sorted(by_task.items())),
    )


# ---------------------------------------------------------------------------
# Persistence

SPEC = Record((("edges", [(int, int | None)], False), ("max_task_share", NUMBER, True)),
              BucketSpec, tag="spec")
MEMBER = Record((("id", str, False), ("k", int, False)), lambda id, k: (id, k), lambda m: m)

BUCKET = Record((
    ("index", int, False),
    ("lo", int, False),
    ("hi", int | None, False),
    ("members", [MEMBER], False),
    ("task_histogram", {str: int}, True),
), lambda members, **fields: Bucket(member_ids=tuple(m[0] for m in members),
                                    member_ks=tuple(m[1] for m in members), **fields),
    lambda b: (b.index, b.lo, b.hi, zip(b.member_ids, b.member_ks), b.task_histogram),
    tag="bucket")

OVERFLOW = Record((
    ("bucket", int, False),
    ("id", str, False),
    ("task", str, False),
    ("k", int, False),
), lambda bucket, id, task, k: OverflowRecord(bucket, id, task, k),
    lambda o: (o.bucket_index, o.example_id, o.task, o.k), tag="overflow")


def write_buckets(result: BucketizeResult, path) -> None:
    """Serialize a bucketize result: spec header, bucket lines, overflow lines."""
    write_atomic(path, [SPEC.dump(result.spec), *map(BUCKET.dump, result.buckets),
                        *map(OVERFLOW.dump, result.overflow)])


def read_buckets(path) -> BucketizeResult:
    """Decode a buckets file and check it against its own spec header by
    read_headed's rules: one bucket line per spec edge, with that edge's
    lo and hi, and an example id on one line only, among every bucket's
    members and the overflow.  A bucket's task_histogram, unless empty,
    has counts of at least 1 that add up to its members.  Each member's k
    lies in its bucket's range, and each overflow line names a bucket
    whose range holds its k.
    """
    spec, lines = read_headed(
        path, "buckets file", {"spec": SPEC, "bucket": BUCKET, "overflow": OVERFLOW},
        lambda spec: ("edges", len(spec.edges)),
        lambda _spec, tag, value: ("members", value.member_ids) if tag == "bucket" else
        ("id", (value.example_id,)))
    edges = spec.edges
    buckets, overflow = [], []
    for where, tag, value in lines:
        if tag == "bucket":
            buckets.append(value)
            index, field, members = value.index, "members", zip(value.member_ids, value.member_ks)
            for key, want, got in zip(("lo", "hi"), edges[index - 1], (value.lo, value.hi)):
                if got != want:
                    raise CorpusError(f"{where}: {key!r}: expected {json.dumps(want)} "
                                      f"for bucket line {index}, got {json.dumps(got)}")
            histogram = value.task_histogram
            for task, n in histogram.items():
                if n < 1:
                    raise CorpusError(f"{where}: 'task_histogram': task {task!r} has count {n}, "
                                      "below 1")
            if histogram and (total := sum(histogram.values())) != value.size:
                raise CorpusError(f"{where}: 'task_histogram': counts add up to {total}, not to "
                                  f"the bucket's {value.size} members")
        else:
            overflow.append(value)
            index, field, members = value.bucket_index, "k", ((value.example_id, value.k),)
            if not 1 <= index <= len(edges):
                raise CorpusError(f"{where}: 'bucket': expected 1..{len(edges)}, got {index}")
        lo, hi = edges[index - 1]
        for example_id, k in members:
            if k < lo or hi is not None and k > hi:
                raise CorpusError(f"{where}: {field!r}: example {example_id!r} has k {k}, outside "
                                  f"bucket {index}'s range {lo}{'+' if hi is None else f'-{hi}'}")
    return BucketizeResult(spec, tuple(buckets), tuple(overflow))
