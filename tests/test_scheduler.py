from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from stepladder.bucketer import BucketSpec, bucketize
from stepladder.corpus import DoTScore, Example, SchedulePlan
from stepladder.errors import ParameterError, ScheduleError
from stepladder.scheduler import (
    BASELINE_KINDS,
    MAX_REPLACEMENT_DRAWS,
    _largest_remainder,
    baseline_order,
    build_curriculum,
    filter_by_depth,
    phase_weights,
)


def ds(example_id, k, tok=50):
    return DoTScore.compute(example_id, "t", k=k, tok=tok)


def plan_of(**kw):
    base = dict(mode="staged", phases=3, budget_per_phase=5, seed=99,
                alpha=1.0, with_replacement=False, mixing="union")
    base.update(kw)
    return SchedulePlan(**base)


# ---------------------------------------------------------------------------
# phase weights


def test_alpha_zero_is_exactly_uniform():
    for t in (1, 2, 5, 17):
        assert phase_weights(t, 0.0) == [1.0 / t] * t


def test_weights_match_rational_reference():
    for t in range(1, 9):
        for alpha in (1.0, 2.0, 3.0):
            want = [Fraction(i, t) ** int(alpha) for i in range(1, t + 1)]
            total = sum(want)
            got = phase_weights(t, alpha)
            assert sum(got) == pytest.approx(1.0, rel=1e-12)
            for g, w in zip(got, want):
                assert g == pytest.approx(float(w / total), rel=1e-12)


def test_weights_increase_with_phase_for_positive_alpha():
    ws = phase_weights(6, 1.5)
    assert all(a < b for a, b in zip(ws, ws[1:]))


def test_extreme_alpha_saturates_to_last_bucket():
    ws = phase_weights(4, 200.0)
    assert ws[-1] >= 1 - 1e-15
    assert sum(ws) == pytest.approx(1.0, abs=1e-15)
    # even past float overflow territory the weights stay normalized
    ws = phase_weights(50, 5000.0)
    assert all(math.isfinite(w) for w in ws)
    assert ws[-1] == pytest.approx(1.0, abs=1e-40)
    assert sum(ws) == pytest.approx(1.0, abs=1e-12)


def test_phase_weights_validation():
    with pytest.raises(ParameterError):
        phase_weights(0, 1.0)
    with pytest.raises(ParameterError):
        phase_weights(3, -0.5)
    with pytest.raises(ParameterError):
        phase_weights(3, float("nan"))
    with pytest.raises(ParameterError):
        phase_weights(3, float("inf"))


def test_largest_remainder_hand_cases():
    assert _largest_remainder([1, 1, 1], 10) == [4, 3, 3]  # tie goes low
    assert _largest_remainder([0.2, 0.3, 0.5], 7) == [1, 2, 4]
    assert _largest_remainder([1.0], 9) == [9]
    with pytest.raises(ScheduleError, match="sum to zero"):
        _largest_remainder([0.0, 0.0], 5)


def test_largest_remainder_conserves_budget():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 8)
        weights = [rng.random() for _ in range(n)]
        budget = rng.randint(0, 40)
        counts = _largest_remainder(weights, budget)
        assert sum(counts) == budget
        assert all(c >= 0 for c in counts)


# ---------------------------------------------------------------------------
# curriculum construction


def bucketed(n=60, seed=1, kmax=12):
    rng = random.Random(seed)
    scores = [ds(f"e{i:03d}", k=rng.randint(1, kmax)) for i in range(n)]
    tasks = {s.example_id: rng.choice(("math", "code")) for s in scores}
    return bucketize(scores, BucketSpec(), tasks)


def test_staged_draws_each_phase_from_its_own_bucket():
    result = bucketed()
    manifest = build_curriculum(result, plan_of())
    members = {b.index: set(b.member_ids) for b in result.buckets}
    for phase in manifest.phases:
        assert phase.bucket_counts == {phase.index: 5}
        assert set(phase.example_ids) <= members[phase.index]
        assert len(phase.example_ids) == 5


def test_without_replacement_never_repeats_an_id():
    result = bucketed(n=120)
    manifest = build_curriculum(result, plan_of(mode="mixed", alpha=1.0,
                                                budget_per_phase=12))
    drawn = [i for p in manifest.phases for i in p.example_ids]
    assert len(drawn) == len(set(drawn)) == 36


def test_with_replacement_can_repeat():
    # one example per bucket forces reuse once draws exceed pool size
    scores = [ds("a", 1), ds("b", 5), ds("c", 9)]
    tasks = {"a": "x", "b": "x", "c": "x"}
    result = bucketize(scores, BucketSpec(), tasks)
    manifest = build_curriculum(
        result, plan_of(with_replacement=True, budget_per_phase=4))
    assert manifest.phases[0].example_ids == ("a",) * 4


def test_same_seed_reproduces_and_new_seed_reshuffles():
    result = bucketed()
    a = build_curriculum(result, plan_of(seed=5))
    b = build_curriculum(result, plan_of(seed=5))
    c = build_curriculum(result, plan_of(seed=6))
    assert a == b
    assert [p.example_ids for p in a.phases] != [p.example_ids for p in c.phases]


def test_mixed_counts_do_not_depend_on_seed():
    result = bucketed(n=200)
    p1 = plan_of(mode="mixed", alpha=1.5, budget_per_phase=10, seed=1)
    p2 = plan_of(mode="mixed", alpha=1.5, budget_per_phase=10, seed=2)
    m1 = build_curriculum(result, p1)
    m2 = build_curriculum(result, p2)
    assert [p.bucket_counts for p in m1.phases] == \
        [p.bucket_counts for p in m2.phases]
    assert [p.example_ids for p in m1.phases] != \
        [p.example_ids for p in m2.phases]


def test_union_mixing_reaches_back_adjacent_does_not():
    result = bucketed(n=300, seed=3)
    union = build_curriculum(
        result, plan_of(mode="mixed", alpha=1.0, budget_per_phase=30,
                        mixing="union"))
    assert set(union.phases[2].bucket_counts) == {1, 2, 3}
    adjacent = build_curriculum(
        result, plan_of(mode="mixed", alpha=1.0, budget_per_phase=30,
                        mixing="adjacent"))
    for phase in adjacent.phases:
        assert set(phase.bucket_counts) <= {phase.index - 1, phase.index}


def test_staged_equals_mixed_with_delta_weights():
    result = bucketed(n=90, seed=8)
    staged = build_curriculum(result, plan_of(seed=21))
    delta = build_curriculum(
        result, plan_of(mode="mixed", seed=21),
        phase_weights_fn=lambda t, plan: [0.0] * (t - 1) + [1.0])
    assert [p.example_ids for p in staged.phases] == \
        [p.example_ids for p in delta.phases]
    assert [p.bucket_counts for p in staged.phases] == \
        [p.bucket_counts for p in delta.phases]


def test_custom_weights_are_validated():
    result = bucketed()
    with pytest.raises(ScheduleError, match="weights"):
        build_curriculum(result, plan_of(mode="mixed"),
                         phase_weights_fn=lambda t, plan: [1.0] * (t + 1))
    with pytest.raises(ScheduleError, match=">= 0"):
        build_curriculum(result, plan_of(mode="mixed"),
                         phase_weights_fn=lambda t, plan: [-1.0] * t)
    with pytest.raises(ScheduleError, match="sum to zero"):
        build_curriculum(result, plan_of(mode="mixed"),
                         phase_weights_fn=lambda t, plan: [0.0] * t)


def test_exhaustion_names_the_phase_and_bucket():
    scores = [ds("a", 1), ds("b", 1), ds("c", 5), ds("d", 9)]
    tasks = {i: "x" for i in "abcd"}
    result = bucketize(scores, BucketSpec(), tasks)
    with pytest.raises(ScheduleError, match=r"phase 1: bucket 1 has 2"):
        build_curriculum(result, plan_of(budget_per_phase=3))
    # With replacement a pool never runs short, but an empty one has no id.
    result = bucketize([ds("a", 1), ds("d", 9)], BucketSpec(), tasks)
    with pytest.raises(ScheduleError, match=r"^phase 2: bucket 2 is empty$"):
        build_curriculum(result, plan_of(with_replacement=True))


def test_more_phases_than_buckets_is_an_error():
    result = bucketed()
    with pytest.raises(ScheduleError, match="phases"):
        build_curriculum(result, plan_of(phases=4))


class ReachedTheDraws(Exception):
    pass


def _reach_the_draws(t, plan):
    raise ReachedTheDraws


def test_with_replacement_bound_is_checked_before_any_draw():
    # The weights callback runs before the first draw, so raising from it
    # shows where a plan got to without drawing millions of ids.
    result = bucketed()
    half = MAX_REPLACEMENT_DRAWS // 2
    with pytest.raises(ScheduleError, match=f"is {2 * half + 2}; .* {MAX_REPLACEMENT_DRAWS}"):
        build_curriculum(result, plan_of(with_replacement=True, phases=2,
                                         budget_per_phase=half + 1),
                         phase_weights_fn=_reach_the_draws)
    with pytest.raises(ReachedTheDraws):  # at the bound: allowed
        build_curriculum(result, plan_of(with_replacement=True, phases=2,
                                         budget_per_phase=half),
                         phase_weights_fn=_reach_the_draws)
    with pytest.raises(ReachedTheDraws):  # without replacement pools run short instead
        build_curriculum(result, plan_of(phases=2, budget_per_phase=half + 1),
                         phase_weights_fn=_reach_the_draws)


def test_provenance_is_copied_into_the_manifest():
    result = bucketed()
    manifest = build_curriculum(result, plan_of(), provenance={"note": "v1"})
    assert manifest.provenance == {"note": "v1"}


# ---------------------------------------------------------------------------
# baselines


def corpus_examples(n=40, seed=2):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        out.append(Example(
            id=f"e{i:03d}", task="math", prompt="solve " * rng.randint(2, 6),
            judge_score=round(rng.random(), 4),
        ))
    return out


def test_token_length_baseline_sorts_by_tok_then_id():
    examples = corpus_examples(12)
    rng = random.Random(4)
    scores = [ds(ex.id, k=2, tok=rng.choice((30, 40, 50))) for ex in examples]
    manifest = baseline_order(examples, scores, "token_length",
                              plan_of(phases=3, budget_per_phase=4))
    flat = [i for p in manifest.phases for i in p.example_ids]
    by_id = {s.example_id: s.tok for s in scores}
    assert flat == sorted(flat, key=lambda i: (by_id[i], i))
    assert all(p.bucket_counts == {} for p in manifest.phases)
    assert manifest.provenance == {"ordering": "token_length"}


def test_judge_score_baseline_sorts_ascending():
    examples = corpus_examples(12)
    manifest = baseline_order(examples, None, "judge_score",
                              plan_of(phases=2, budget_per_phase=6))
    flat = [i for p in manifest.phases for i in p.example_ids]
    by_id = {ex.id: ex.judge_score for ex in examples}
    assert flat == sorted(flat, key=lambda i: (by_id[i], i))


def test_random_baseline_is_a_seeded_permutation():
    examples = corpus_examples(12)
    p = plan_of(phases=2, budget_per_phase=6)
    a = baseline_order(examples, None, "random", p)
    b = baseline_order(examples, None, "random", p)
    c = baseline_order(examples, None, "random", plan_of(
        phases=2, budget_per_phase=6, seed=1234))
    flat = [i for ph in a.phases for i in ph.example_ids]
    assert sorted(flat) == sorted(ex.id for ex in examples)
    assert a == b
    assert flat != [i for ph in c.phases for i in ph.example_ids]


def test_baseline_budgets_match_the_plan():
    examples = corpus_examples(40)
    scores = [ds(ex.id, k=3, tok=60) for ex in examples]
    p = plan_of(phases=4, budget_per_phase=10)
    for kind in BASELINE_KINDS:
        manifest = baseline_order(examples, scores, kind, p)
        assert [len(ph.example_ids) for ph in manifest.phases] == [10] * 4


def test_baseline_errors():
    examples = corpus_examples(10)
    with pytest.raises(ParameterError, match="unknown baseline kind"):
        baseline_order(examples, None, "alphabetical", plan_of())
    with pytest.raises(ScheduleError, match="lacks scores for: e000"):
        baseline_order(examples, [], "token_length",
                       plan_of(phases=2, budget_per_phase=5))
    bare = [Example(id="x1", task="math", prompt="p q r")]
    with pytest.raises(ScheduleError, match="lacks judge_score for: x1"):
        baseline_order(bare, None, "judge_score",
                       plan_of(phases=1, budget_per_phase=1))
    with pytest.raises(ScheduleError, match="needs 12 examples but only 10"):
        baseline_order(examples, None, "random",
                       plan_of(phases=3, budget_per_phase=4))


@pytest.mark.parametrize("kind, what", [("token_length", "scores"),
                                        ("judge_score", "judge_score")])
def test_baseline_error_names_at_most_ten_ids(kind, what):
    examples = [Example(id=f"x{i:05d}", task="math", prompt="p") for i in range(10_000)]
    with pytest.raises(ScheduleError) as exc:
        baseline_order(examples, [], kind, plan_of(phases=1, budget_per_phase=1))
    first = ", ".join(f"x{i:05d}" for i in range(10))
    assert str(exc.value) == f"{kind} baseline lacks {what} for: {first} and 9990 more"


# ---------------------------------------------------------------------------
# depth filtering


def test_filter_by_depth_window():
    scores = [ds("a", 2), ds("b", 5), ds("c", 9), ds("d", 5), ds("e", 1)]
    assert filter_by_depth(scores, min_k=2, max_k=5) == ["a", "b", "d"]
    assert filter_by_depth(scores, min_k=6) == ["c"]
    assert filter_by_depth(scores, max_k=1) == ["e"]
    assert filter_by_depth(scores, min_k=2, max_k=2) == ["a"]
    assert filter_by_depth(scores, min_k=100) == []


def test_filter_by_depth_orders_by_depth_then_id():
    scores = [ds("b", 5), ds("a", 5), ds("c", 2)]
    assert filter_by_depth(scores, min_k=1) == ["c", "a", "b"]


def test_filter_by_depth_validation():
    scores = [ds("a", 2)]
    with pytest.raises(ParameterError, match="min_k, max_k or both"):
        filter_by_depth(scores)
    with pytest.raises(ParameterError):
        filter_by_depth(scores, min_k=0)
    with pytest.raises(ParameterError):
        filter_by_depth(scores, max_k=0)
    with pytest.raises(ParameterError, match="exceeds"):
        filter_by_depth(scores, min_k=5, max_k=2)
