from __future__ import annotations

import math
import random

import pytest

from stepladder.corpus import DoTScore, Trace
from stepladder.errors import ScoringError
from stepladder.scorer import aggregate_self_consistency, score, score_corpus

from test_corpus import make_trace

# Frozen reference values, computed once with mpmath at 50 digits.
NORM_K2_TOK10 = 0.8340647828484926   # 2 / log(11)
NORM_K1_TOK1 = 1.4426950408889634    # 1 / log(2)


def test_score_known_values():
    s = score(make_trace("e", "t", k=2, tok=10))
    assert s.k == 2 and s.tok == 10 and s.n_samples == 1
    assert s.dot_norm == pytest.approx(NORM_K2_TOK10, rel=1e-12)
    s = score(make_trace("e", "t", k=1, tok=1))
    assert s.dot_norm == pytest.approx(NORM_K1_TOK1, rel=1e-12)


def test_score_matches_high_precision_reference():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    rng = random.Random(5150)
    for _ in range(300):
        k = rng.randint(1, 60)
        tok = rng.randint(1, 10**6)
        got = score(make_trace("e", "t", k=k, tok=tok)).dot_norm
        want = float(mpmath.mpf(k) / mpmath.log(mpmath.mpf(tok) + 1))
        assert got == pytest.approx(want, rel=1e-12), (k, tok)


def test_score_rejects_stepless_trace():
    # steps=() passes every check of Trace's, so the scorer is the gate
    hollow = Trace(example_id="e", teacher_id="t", raw_text="word " * 4,
                   steps=(), tok=4, segmentation_mode="paragraph-fallback",
                   confidence="low")
    with pytest.raises(ScoringError, match="has no steps"):
        score(hollow)


# ---------------------------------------------------------------------------
# self-consistency aggregation


def sample(k, tok, example_id="e", teacher_id="t"):
    return make_trace(example_id, teacher_id, k=k, tok=tok)


def test_lower_median_odd_and_even():
    agg = aggregate_self_consistency([sample(3, 9), sample(5, 9), sample(9, 9)])
    assert agg.k == 5
    agg = aggregate_self_consistency([sample(3, 9), sample(5, 9)])
    assert agg.k == 3  # even count takes the lower middle
    agg = aggregate_self_consistency([sample(7, 9)])
    assert agg.k == 7 and agg.n_samples == 1


def test_medians_taken_per_axis():
    # k-median and tok-median may come from different samples
    agg = aggregate_self_consistency([sample(2, 100), sample(4, 50)])
    assert (agg.k, agg.tok) == (2, 50)
    assert agg.dot_norm == pytest.approx(2 / math.log1p(50), rel=1e-12)
    assert agg.n_samples == 2


def test_aggregate_order_invariant():
    rng = random.Random(17)
    samples = [sample(rng.randint(1, 9), rng.randint(5, 500)) for _ in range(7)]
    base = aggregate_self_consistency(samples)
    for _ in range(10):
        rng.shuffle(samples)
        assert aggregate_self_consistency(samples) == base


def test_aggregate_rejects_empty_and_mixed_groups():
    with pytest.raises(ScoringError):
        aggregate_self_consistency([])
    with pytest.raises(ScoringError, match="mixes"):
        aggregate_self_consistency([sample(2, 9), sample(2, 9, example_id="other")])
    with pytest.raises(ScoringError, match="mixes"):
        aggregate_self_consistency([sample(2, 9), sample(2, 9, teacher_id="other")])


# ---------------------------------------------------------------------------
# corpus-level scoring


def test_score_corpus_groups_and_sorts():
    traces = [
        sample(2, 30, "b", "t1"),
        sample(4, 30, "b", "t1"),
        sample(6, 30, "b", "t1"),
        sample(1, 10, "a", "t2"),
        sample(3, 12, "a", "t1"),
    ]
    scores, errors = score_corpus(traces)
    assert errors == []
    assert [(s.example_id, s.teacher_id) for s in scores] == \
        [("a", "t1"), ("a", "t2"), ("b", "t1")]
    by_key = {(s.example_id, s.teacher_id): s for s in scores}
    assert by_key[("b", "t1")].k == 4
    assert by_key[("b", "t1")].n_samples == 3
    assert by_key[("a", "t2")].n_samples == 1


def test_score_corpus_collects_errors_and_continues():
    hollow = Trace(example_id="bad", teacher_id="t", raw_text="x y z",
                   steps=(), tok=3, segmentation_mode="paragraph-fallback",
                   confidence="low")
    scores, errors = score_corpus([sample(2, 9, "good"), hollow])
    assert [s.example_id for s in scores] == ["good"]
    assert len(errors) == 1
    example_id, teacher_id, reason = errors[0]
    assert (example_id, teacher_id) == ("bad", "t")
    assert "step" in reason


def test_score_corpus_empty():
    assert score_corpus([]) == ([], [])


def test_dotscore_compute_round_trips_through_validation():
    s = DoTScore.compute("e", "t", k=5, tok=200, n_samples=3)
    DoTScore(example_id="e", teacher_id="t", k=5, tok=200,
             dot_norm=s.dot_norm, n_samples=3)  # does not raise
