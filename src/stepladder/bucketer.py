"""Group scored examples into contiguous depth buckets.

Buckets partition the k axis (default 1-3, 4-6, 7+).  An optional
per-task share cap keeps any single task family from dominating a
bucket: a task may hold at most ceil(max_task_share * n) members, where
n is the bucket's size after capping.  Members evicted by the cap are
reported as overflow, never dropped silently.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .corpus import NUMBER, DoTScore, Record, read_jsonl, write_atomic
from .errors import CorpusError, ParameterError

DEFAULT_EDGES = ((1, 3), (4, 6), (7, None))


@dataclass(frozen=True)
class BucketSpec:
    """Depth bucket boundaries plus the task-balance cap.

    edges is a tuple of (lo, hi) ranges; hi None means unbounded.  Ranges
    must start at 1, be contiguous and non-overlapping, and the final
    range must be unbounded so every k >= 1 lands somewhere.
    """

    edges: tuple[tuple[int, Optional[int]], ...] = DEFAULT_EDGES
    max_task_share: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        if not self.edges:
            raise ParameterError("bucket edges must be nonempty")
        if self.edges[0][0] != 1:
            raise ParameterError("first bucket must start at k = 1")
        for i, (lo, hi) in enumerate(self.edges):
            last = i == len(self.edges) - 1
            if hi is None and not last:
                raise ParameterError("only the final bucket may be unbounded")
            if hi is not None and hi < lo:
                raise ParameterError(f"bucket range ({lo}, {hi}) is empty")
            if i > 0:
                prev_hi = self.edges[i - 1][1]
                if lo != prev_hi + 1:
                    raise ParameterError(
                        f"bucket ranges must be contiguous, got ...{prev_hi}], [{lo}..."
                    )
        if self.edges[-1][1] is not None:
            raise ParameterError("final bucket must be unbounded (hi = None)")
        if not 0.0 < self.max_task_share <= 1.0:
            raise ParameterError("max_task_share must lie in (0, 1]")

    def bucket_for_k(self, k: int) -> int:
        """1-based bucket index for a step count."""
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        for i, (lo, hi) in enumerate(self.edges, start=1):
            if lo <= k and (hi is None or k <= hi):
                return i
        raise ParameterError(f"no bucket covers k = {k}")  # unreachable by invariant


@dataclass(frozen=True)
class Bucket:
    """One depth bucket's retained members, sorted by (k, id)."""

    index: int
    lo: int
    hi: Optional[int]
    member_ids: tuple[str, ...] = ()
    member_ks: tuple[int, ...] = ()
    task_histogram: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "member_ids", tuple(self.member_ids))
        object.__setattr__(self, "member_ks", tuple(self.member_ks))
        if len(self.member_ids) != len(self.member_ks):
            raise CorpusError(f"bucket {self.index}: ids and ks differ in length")

    @property
    def size(self) -> int:
        return len(self.member_ids)

    @property
    def range_label(self) -> str:
        return f"{self.lo}+" if self.hi is None else f"{self.lo}-{self.hi}"


@dataclass(frozen=True)
class OverflowRecord:
    """A member evicted from a bucket by the task-share cap."""

    bucket_index: int
    example_id: str
    task: str
    k: int


@dataclass(frozen=True)
class BucketizeResult:
    spec: BucketSpec
    buckets: tuple[Bucket, ...]
    overflow: tuple[OverflowRecord, ...] = ()


def _cap(share: float, n: int) -> int:
    return math.ceil(share * n)


def _apply_task_cap(members: list[tuple[int, str, str]], share: float):
    """Evict members until every task holds <= ceil(share * n) of n retained.

    members are (k, id, task), already sorted.  The most over-cap task
    (ties broken by task name) loses its largest (k, id) member each
    round.  Returns (retained, evicted): retained in (k, id) order,
    evicted in reverse order of eviction, the last one evicted first.
    """
    retained = list(members)
    evicted: list[tuple[int, str, str]] = []
    while retained:
        counts: dict[str, int] = {}
        for _k, _id, task in retained:
            counts[task] = counts.get(task, 0) + 1
        cap = _cap(share, len(retained))
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


def bucketize(scores: Iterable[DoTScore], spec: BucketSpec,
              tasks: Mapping[str, str]) -> BucketizeResult:
    """Assign one score per example to its depth bucket.

    tasks maps example_id to a task family name, used for the balance
    cap and the per-bucket histograms.  Duplicate example ids (e.g.
    scores from several teachers) and ids missing from tasks are errors:
    collapse to one score per example first.
    """
    scores = list(scores)
    seen: set[str] = set()
    for sc in scores:
        if sc.example_id in seen:
            raise ParameterError(
                f"duplicate score for example {sc.example_id!r}; "
                "bucketing needs exactly one score per example"
            )
        seen.add(sc.example_id)
        if sc.example_id not in tasks:
            raise ParameterError(f"example {sc.example_id!r} has no task mapping")

    per_bucket: dict[int, list[tuple[int, str, str]]] = {}
    for sc in scores:
        idx = spec.bucket_for_k(sc.k)
        per_bucket.setdefault(idx, []).append(
            (sc.k, sc.example_id, tasks[sc.example_id])
        )

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


@dataclass(frozen=True)
class BucketReport:
    """Table-friendly summary of a bucketize run."""

    rows: tuple[dict, ...]
    overflow_total: int
    overflow_by_task: dict[str, int]

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
    records = {"spec": SPEC, "bucket": BUCKET, "overflow": OVERFLOW}
    spec = None
    values = []
    for where, value in read_jsonl(path, records):
        if not isinstance(value, BucketSpec):
            values.append(value)
        elif spec is not None:
            raise CorpusError(f"{where}: duplicate spec header")
        else:
            spec = value
    if spec is None:
        raise CorpusError(f"{path}: buckets file has no spec header")
    return BucketizeResult(spec=spec,
                           buckets=tuple(v for v in values if isinstance(v, Bucket)),
                           overflow=tuple(v for v in values if isinstance(v, OverflowRecord)))
