from __future__ import annotations

import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_apply_task_cap
from stepladder.bucketer import (
    DEFAULT_EDGES,
    BucketSpec,
    _apply_task_cap,
    bucketize,
    describe,
    read_buckets,
    write_buckets,
)
from stepladder.corpus import DoTScore
from stepladder.errors import CorpusError, ParameterError


def ds(example_id, k, tok=50, teacher_id="t"):
    return DoTScore.compute(example_id, teacher_id, k=k, tok=tok)


def test_spec_validation():
    BucketSpec()  # defaults are legal
    with pytest.raises(ParameterError):
        BucketSpec(edges=())
    with pytest.raises(ParameterError):
        BucketSpec(edges=((2, 3), (4, None)))  # must start at 1
    with pytest.raises(ParameterError):
        BucketSpec(edges=((1, 3), (5, None)))  # gap
    with pytest.raises(ParameterError):
        BucketSpec(edges=((1, 3), (4, 3), (4, None)))  # empty range
    with pytest.raises(ParameterError):
        BucketSpec(edges=((1, None), (4, 6)))  # unbounded before the end
    with pytest.raises(ParameterError):
        BucketSpec(edges=((1, 3), (4, 6)))  # last must be unbounded
    with pytest.raises(ParameterError):
        BucketSpec(max_task_share=0.0)
    with pytest.raises(ParameterError):
        BucketSpec(max_task_share=1.2)


def test_bucket_for_k_boundaries():
    spec = BucketSpec()
    assert [spec.bucket_for_k(k) for k in (1, 3, 4, 6, 7, 100)] == \
        [1, 1, 2, 2, 3, 3]
    with pytest.raises(ParameterError):
        spec.bucket_for_k(0)


def test_default_edges_shape():
    assert DEFAULT_EDGES == ((1, 3), (4, 6), (7, None))


def test_bucketize_places_members_in_sorted_order():
    scores = [ds("c", 5), ds("a", 2), ds("b", 2), ds("z", 9), ds("d", 1)]
    tasks = {i: "math" for i in "abcdz"}
    result = bucketize(scores, BucketSpec(), tasks)
    assert result.buckets[0].member_ids == ("d", "a", "b")  # by (k, id)
    assert result.buckets[0].member_ks == (1, 2, 2)
    assert result.buckets[1].member_ids == ("c",)
    assert result.buckets[2].member_ids == ("z",)
    assert result.overflow == ()
    assert result.buckets[0].task_histogram == {"math": 3}


def test_bucketize_rejects_duplicates_and_unknown_tasks():
    with pytest.raises(CorpusError, match="^duplicate score for example 'a'$"):
        bucketize([ds("a", 1), ds("a", 2)], BucketSpec(), {"a": "math"})
    with pytest.raises(CorpusError, match="^no example 'a' in tasks$"):
        bucketize([ds("a", 1)], BucketSpec(), {})


def test_task_cap_hand_case():
    # 10 math + 2 qa at share 0.6.  The cap shrinks as members leave:
    # 12->ceil(7.2)=8, then 11->7, 10->6, 9->6, 8->5, 7->5 where math=5
    # finally fits.  Five math members overflow, none from qa.
    scores = [ds(f"m{i:02d}", k=1) for i in range(10)]
    scores += [ds(f"q{i}", k=2) for i in range(2)]
    tasks = {s.example_id: ("math" if s.example_id[0] == "m" else "qa")
             for s in scores}
    result = bucketize(scores, BucketSpec(max_task_share=0.6), tasks)
    b = result.buckets[0]
    assert b.size == 7
    assert b.task_histogram == {"math": 5, "qa": 2}
    assert len(result.overflow) == 5
    assert all(r.task == "math" for r in result.overflow)
    # evictions take the largest (k, id) first, so the survivors are the
    # smallest ids; overflow lists the last eviction first, which within
    # one task is (k, id) order
    assert b.member_ids[:5] == ("m00", "m01", "m02", "m03", "m04")
    assert [r.example_id for r in result.overflow] == \
        ["m05", "m06", "m07", "m08", "m09"]


def test_overflow_lists_the_last_eviction_first():
    # n=4, cap 1: x and y are both one over, y wins the tie on name and
    # loses (3, e1); n=3, cap 1: x loses (3, e2).  Overflow comes back as
    # [e2, e1], which is not (k, id) order.
    scores = [ds("e3", 1), ds("e0", 2), ds("e1", 3), ds("e2", 3)]
    tasks = {"e3": "y", "e0": "x", "e1": "y", "e2": "x"}
    result = bucketize(scores, BucketSpec(max_task_share=0.2), tasks)
    assert result.buckets[0].member_ids == ("e3", "e0")
    assert [r.example_id for r in result.overflow] == ["e2", "e1"]


@st.composite
def capped_members(draw):
    """Sorted (k, id, task) members over 1-6 task names, so that count
    ties are common, and a share near 1/T, at 1.0, tiny, or anywhere."""
    names = [f"task{i}" for i in range(draw(st.integers(1, 6)))]
    rows = draw(st.lists(st.tuples(st.integers(1, 3), st.sampled_from(names)), max_size=40))
    members = sorted((k, f"e{i:02d}", task) for i, (k, task) in enumerate(rows))
    near = 1 / len(names)
    share = draw(st.one_of(
        st.sampled_from([near, math.nextafter(near, 0), math.nextafter(near, 1), 1.0, 1e-9]),
        st.floats(min_value=1e-9, max_value=1.0),
    ))
    return members, min(share, 1.0)


@given(capped_members())
@settings(max_examples=300, deadline=None)
def test_task_cap_matches_the_evict_and_recount_loop(case):
    members, share = case
    assert _apply_task_cap(members, share) == naive_apply_task_cap(members, share)


def max_feasible_total(counts: dict[str, int], share: float) -> int:
    # Largest T such that every task fits under ceil(share * T) and the
    # capped counts still cover T members.
    n = sum(counts.values())
    for total in range(n, -1, -1):
        cap = math.ceil(share * total)
        if sum(min(c, cap) for c in counts.values()) >= total:
            return total
    return 0


def test_task_cap_retains_the_maximum_feasible_total():
    rng = random.Random(404)
    for trial in range(150):
        n_tasks = rng.randint(1, 4)
        counts = {f"task{j}": rng.randint(0, 8) for j in range(n_tasks)}
        counts = {t: c for t, c in counts.items() if c}
        if not counts:
            continue
        share = rng.choice((0.3, 0.4, 0.5, 0.6, 0.75, 1.0))
        scores, tasks = [], {}
        i = 0
        for task, c in counts.items():
            for _ in range(c):
                eid = f"e{i:03d}"
                scores.append(ds(eid, k=rng.randint(1, 3)))
                tasks[eid] = task
                i += 1
        result = bucketize(scores, BucketSpec(max_task_share=share), tasks)
        b = result.buckets[0]
        assert b.size == max_feasible_total(counts, share), (counts, share)
        cap = math.ceil(share * b.size) if b.size else 0
        assert all(c <= cap for c in b.task_histogram.values())
        # conservation: every input id is either retained or in overflow
        kept = set(b.member_ids)
        spilled = {r.example_id for r in result.overflow}
        assert kept | spilled == set(tasks)
        assert not kept & spilled


def test_overflow_is_reported_not_dropped():
    scores = [ds(f"e{i}", k=8) for i in range(4)]
    tasks = {s.example_id: "only" for s in scores}
    result = bucketize(scores, BucketSpec(max_task_share=0.5), tasks)
    total = sum(b.size for b in result.buckets) + len(result.overflow)
    assert total == 4


def test_range_label():
    scores = [ds("a", 2), ds("b", 8)]
    result = bucketize(scores, BucketSpec(), {"a": "x", "b": "x"})
    assert result.buckets[0].range_label == "1-3"
    assert result.buckets[2].range_label == "7+"


def test_describe_render_and_json():
    scores = [ds("a", 1), ds("b", 2), ds("c", 8)]
    tasks = {"a": "math", "b": "qa", "c": "math"}
    report = describe(bucketize(scores, BucketSpec(), tasks))
    text = report.render()
    assert "1-3" in text and "7+" in text
    assert "overflow: 0" in text
    # middle bucket is empty; stats render as placeholders, not crashes
    assert "-" in text
    data = report.to_json()
    assert data["overflow_total"] == 0
    assert len(data["buckets"]) == 3
    assert data["buckets"][0]["size"] == 2


def test_describe_lists_overflow_by_task():
    scores = [ds(f"e{i}", k=1) for i in range(6)]
    tasks = {s.example_id: "math" for s in scores}
    report = describe(bucketize(scores, BucketSpec(max_task_share=0.4), tasks))
    assert report.overflow_total > 0
    assert report.overflow_by_task.get("math") == report.overflow_total
    assert "math" in report.render()


def test_round_trip_and_byte_determinism(tmp_path):
    rng = random.Random(9)
    scores = [ds(f"e{i:03d}", k=rng.randint(1, 12)) for i in range(60)]
    tasks = {s.example_id: rng.choice(("math", "code", "qa"))
             for s in scores}
    result = bucketize(scores, BucketSpec(max_task_share=0.5), tasks)
    p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    write_buckets(result, p1)
    write_buckets(result, p2)
    assert p1.read_bytes() == p2.read_bytes()
    again = read_buckets(p1)
    assert again.spec == result.spec
    assert again.buckets == result.buckets
    assert again.overflow == result.overflow
    write_buckets(again, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_unbounded_hi_survives_round_trip(tmp_path):
    result = bucketize([ds("a", 50)], BucketSpec(), {"a": "math"})
    path = tmp_path / "b.jsonl"
    write_buckets(result, path)
    assert read_buckets(path).buckets[2].hi is None
    assert '"hi": null' in path.read_text(encoding="utf-8")


def test_duplicate_spec_header_is_an_error(tmp_path):
    result = bucketize([ds("a", 2), ds("b", 9)], BucketSpec(), {"a": "math", "b": "qa"})
    path = tmp_path / "b.jsonl"
    write_buckets(result, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines + lines[:1]), encoding="utf-8")
    with pytest.raises(CorpusError, match=rf":{len(lines) + 1}: duplicate spec header"):
        read_buckets(path)


def _edit_buckets_file(path, case):
    """Break a written three-bucket file in one way; return the line and
    the field the reader must name."""
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    first_member = lines[1]["members"][0]["id"]
    if case == "index-gap":  # bucket lines 1 and 3, the repro of a KeyError in schedule
        lines[2:] = lines[3:]
        line, field = 3, "index"
    elif case == "missing-bucket":
        del lines[3]
        line, field = 1, "edges"
    elif case == "extra-bucket":
        lines.insert(4, dict(lines[3], index=4, lo=10, members=[]))
        line, field = 1, "edges"
    elif case == "lo":
        lines[2]["lo"] = 5
        line, field = 3, "lo"
    elif case == "hi":
        lines[3]["hi"] = 50
        line, field = 4, "hi"
    elif case == "member-twice":
        lines[3]["members"].append({"id": first_member, "k": 9})
        line, field = 4, "members"
    elif case.startswith("member-k"):  # k 9 or -4 in bucket 1-3, k 2 in bucket 7+
        bucket, k = {"member-k-above": (1, 9), "member-k-below": (1, -4),
                     "member-k-open": (3, 2)}[case]
        lines[bucket]["members"][0]["k"] = k
        line, field = bucket + 1, "members"
    elif case in ("overflow-bucket", "overflow-k"):  # the first overflow line's bucket or k
        key, value = {"overflow-bucket": ("bucket", 99), "overflow-k": ("k", -3)}[case]
        lines[4][key] = value
        line, field = 5, key
    elif case.startswith("histogram"):  # bucket 1 holds one member, of task math
        lines[1]["task_histogram"] = {"histogram-below-1": {"math": 2, "nonsense": -1},
                                      "histogram-sum": {"math": 2}}[case]
        line, field = 2, "task_histogram"
    else:  # an overflow id that is also a member
        lines.append({"record": "overflow", "bucket": 1, "id": first_member,
                      "task": "math", "k": 1})
        line, field = len(lines), "id"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
    return line, field


BUCKETS_FILE_FAULTS = ["index-gap", "missing-bucket", "extra-bucket", "lo", "hi",
                       "member-twice", "overflow-is-member", "member-k-above", "member-k-below",
                       "member-k-open", "overflow-bucket", "overflow-k", "histogram-below-1",
                       "histogram-sum"]


def three_buckets(path):
    scores = [ds("a", 1), ds("b", 2), ds("c", 5), ds("d", 9), ds("e", 1)]
    tasks = {"a": "math", "b": "math", "c": "qa", "d": "qa", "e": "math"}
    result = bucketize(scores, BucketSpec(max_task_share=0.5), tasks)
    assert result.overflow  # the file holds every kind of line
    write_buckets(result, path)
    return result


@pytest.mark.parametrize("case", BUCKETS_FILE_FAULTS)
def test_buckets_file_must_agree_with_its_spec(tmp_path, case):
    path = tmp_path / "b.jsonl"
    result = three_buckets(path)
    assert read_buckets(path) == result
    line, field = _edit_buckets_file(path, case)
    with pytest.raises(CorpusError, match=rf"^{re.escape(str(path))}:{line}: '{field}': "):
        read_buckets(path)
