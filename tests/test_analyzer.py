from __future__ import annotations

import math
import random

import pytest

from stepladder.analyzer import (
    _ranks,
    cross_teacher_agreement,
    kendall_tau,
    length_confound,
    spearman,
)
from stepladder.corpus import DoTScore
from stepladder.errors import AnalysisError

from conftest import counting_ranks, naive_kendall_tau, ref_spearman


def ds(example_id, k, tok=50, teacher_id="t"):
    return DoTScore.compute(example_id, teacher_id, k=k, tok=tok)


# ---------------------------------------------------------------------------
# ranks and Spearman


def test_ranks_average_over_ties():
    assert _ranks([10, 20, 20, 30]) == [1.0, 2.5, 2.5, 4.0]
    assert _ranks([5, 5, 5]) == [2.0, 2.0, 2.0]
    assert _ranks([3, 1, 2]) == [3.0, 1.0, 2.0]


def test_ranks_match_counting_definition():
    rng = random.Random(88)
    for _ in range(100):
        xs = [rng.randint(0, 5) for _ in range(rng.randint(1, 30))]
        assert _ranks(xs) == counting_ranks(xs)


def test_spearman_known_values():
    assert spearman([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
    assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
    assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)


def test_spearman_matches_reference_implementation():
    rng = random.Random(314)
    for _ in range(200):
        n = rng.randint(3, 40)
        xs = [rng.randint(0, 9) for _ in range(n)]
        ys = [rng.randint(0, 9) for _ in range(n)]
        if len(set(xs)) == 1 or len(set(ys)) == 1:
            continue
        assert spearman(xs, ys) == pytest.approx(ref_spearman(xs, ys), abs=1e-12)


def test_spearman_errors():
    with pytest.raises(AnalysisError, match="length mismatch"):
        spearman([1, 2, 3], [1, 2])
    with pytest.raises(AnalysisError, match="at least 3"):
        spearman([1, 2], [1, 2])
    with pytest.raises(AnalysisError, match="constant"):
        spearman([4, 4, 4], [1, 2, 3])


# ---------------------------------------------------------------------------
# Kendall tau-b


def test_kendall_known_values():
    assert kendall_tau([1, 2, 3, 4], [1, 2, 3, 4]) == 1.0
    assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0
    assert kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(2 / 3)
    assert kendall_tau([1, 1, 2], [1, 2, 3]) == pytest.approx(2 / math.sqrt(6))


def test_kendall_all_tied_is_zero_by_convention():
    assert kendall_tau([7, 7, 7], [1, 2, 3]) == 0.0
    assert kendall_tau([1, 2, 3], [5, 5, 5]) == 0.0
    assert kendall_tau([2, 2], [9, 9]) == 0.0


def test_kendall_is_symmetric_and_sign_flips():
    rng = random.Random(66)
    for _ in range(50):
        n = rng.randint(2, 25)
        xs = [rng.randint(0, 6) for _ in range(n)]
        ys = [rng.randint(0, 6) for _ in range(n)]
        assert kendall_tau(xs, ys) == pytest.approx(kendall_tau(ys, xs), abs=1e-12)
        flipped = [-y for y in ys]
        assert kendall_tau(xs, flipped) == pytest.approx(-kendall_tau(xs, ys),
                                                         abs=1e-12)


def test_kendall_agrees_exactly_with_pair_enumeration():
    # Same integer numerator and the same final division, so the two
    # routes must produce bit-identical floats, not merely close ones.
    rng = random.Random(12321)
    for _ in range(400):
        n = rng.randint(2, 60)
        span = rng.choice((2, 3, 8, 1000))
        xs = [rng.randint(0, span) for _ in range(n)]
        ys = [rng.randint(0, span) for _ in range(n)]
        assert kendall_tau(xs, ys) == naive_kendall_tau(xs, ys), (xs, ys)


def test_kendall_errors():
    with pytest.raises(AnalysisError, match="length mismatch"):
        kendall_tau([1, 2], [1])
    with pytest.raises(AnalysisError, match="at least 2"):
        kendall_tau([1], [1])


# ---------------------------------------------------------------------------
# cross-teacher agreement


def test_agreement_two_teachers():
    a = [ds(f"e{i}", k=i + 1, tok=10 * (i + 1), teacher_id="a") for i in range(5)]
    b = [ds(f"e{i}", k=i + 1, tok=90 - 7 * i, teacher_id="b") for i in range(5)]
    report = cross_teacher_agreement({"a": a, "b": b})
    assert report.teachers == ("a", "b")
    assert report.n_common == 5
    assert len(report.pairs) == 1
    pair = report.pairs[0]
    assert (pair.teacher_a, pair.teacher_b) == ("a", "b")
    assert pair.tau_depth == 1.0
    assert pair.tau_tokens == -1.0


def test_agreement_three_teachers_yields_three_pairs():
    def scores(teacher, ks):
        return [ds(f"e{i}", k=k, tok=20 + i, teacher_id=teacher)
                for i, k in enumerate(ks)]
    report = cross_teacher_agreement({
        "t3": scores("t3", [1, 2, 3, 4]),
        "t1": scores("t1", [1, 2, 3, 4]),
        "t2": scores("t2", [4, 3, 2, 1]),
    })
    assert report.teachers == ("t1", "t2", "t3")
    labels = [(p.teacher_a, p.teacher_b) for p in report.pairs]
    assert labels == [("t1", "t2"), ("t1", "t3"), ("t2", "t3")]
    by_label = dict(zip(labels, report.pairs))
    assert by_label[("t1", "t3")].tau_depth == 1.0
    assert by_label[("t1", "t2")].tau_depth == -1.0


def test_agreement_uses_only_the_shared_examples():
    a = [ds(f"e{i}", k=i + 1, teacher_id="a") for i in range(6)]
    b = [ds(f"e{i}", k=6 - i, teacher_id="b") for i in range(4)]  # e0..e3 only
    report = cross_teacher_agreement({"a": a, "b": b})
    assert report.n_common == 4
    assert report.pairs[0].tau_depth == -1.0


def test_agreement_errors():
    a = [ds(f"e{i}", k=i + 1) for i in range(4)]
    with pytest.raises(AnalysisError, match="at least 2 teachers"):
        cross_teacher_agreement({"a": a})
    with pytest.raises(AnalysisError, match="duplicate"):
        cross_teacher_agreement({"a": a + [ds("e0", k=9)], "b": a})
    b = [ds("e0", k=1), ds("e1", k=2), ds("zz", k=3)]
    with pytest.raises(AnalysisError, match="only 2 examples"):
        cross_teacher_agreement({"a": a, "b": b})


def test_agreement_report_render_and_json():
    a = [ds(f"e{i}", k=i + 1, tok=30 + i, teacher_id="a") for i in range(4)]
    b = [ds(f"e{i}", k=i + 2, tok=40 + i, teacher_id="b") for i in range(4)]
    report = cross_teacher_agreement({"a": a, "b": b})
    text = report.render()
    assert "a" in text and "b" in text and "tau" in text.lower()
    data = report.to_json()
    assert data["n_common"] == 4
    assert data["pairs"][0]["tau_depth"] == 1.0


# ---------------------------------------------------------------------------
# length confound


def test_confound_depth_signal_survives_length_control():
    # labels follow k exactly; tok is uncorrelated noise
    rng = random.Random(55)
    scores, labels = [], {}
    for i in range(40):
        k = rng.randint(1, 9)
        eid = f"e{i:02d}"
        scores.append(ds(eid, k=k, tok=rng.randint(50, 500)))
        labels[eid] = float(k)
    report = length_confound(scores, labels)
    assert report.n == 40
    assert report.rho_depth == pytest.approx(1.0)
    assert report.partial_depth is not None
    assert report.partial_depth > 0.9


def test_confound_partial_vanishes_when_label_is_pure_length():
    # k and the label both echo tok, so controlling for tok leaves nothing
    rng = random.Random(21)
    scores, labels = [], {}
    for i in range(80):
        tok = rng.randint(40, 2000)
        eid = f"e{i:02d}"
        scores.append(ds(eid, k=max(1, tok // 100), tok=tok))
        labels[eid] = float(tok + rng.randint(-9, 9))
    report = length_confound(scores, labels)
    assert report.rho_tokens == pytest.approx(1.0, abs=0.01)
    assert report.partial_depth is not None
    assert abs(report.partial_depth) < 0.3


def test_confound_label_identical_to_tokens_is_flagged():
    # rank(label) == rank(tok) exactly; the residuals are constant zero
    scores = [ds(f"e{i}", k=(i % 3) + 1, tok=100 + 10 * i) for i in range(8)]
    labels = {s.example_id: float(s.tok) for s in scores}
    report = length_confound(scores, labels)
    assert report.rho_tokens == 1.0
    assert report.partial_depth is None
    assert "fully explained" in report.note


def test_confound_partial_matches_closed_form():
    # residual-regression route vs the textbook formula on rank r's
    rng = random.Random(919)
    for _ in range(30):
        n = 25
        scores, labels = [], {}
        for i in range(n):
            eid = f"e{i:02d}"
            scores.append(ds(eid, k=rng.randint(1, 8), tok=rng.randint(10, 999)))
            labels[eid] = rng.random()
        report = length_confound(scores, labels)
        ks = [float(s.k) for s in sorted(scores, key=lambda s: s.example_id)]
        toks = [float(s.tok) for s in sorted(scores, key=lambda s: s.example_id)]
        lab = [labels[s.example_id]
               for s in sorted(scores, key=lambda s: s.example_id)]
        r_xy = spearman(ks, lab)
        r_xz = spearman(ks, toks)
        r_yz = spearman(lab, toks)
        want = (r_xy - r_xz * r_yz) / math.sqrt((1 - r_xz**2) * (1 - r_yz**2))
        assert report.partial_depth == pytest.approx(want, abs=1e-10)


def test_confound_constant_tokens_degrades_gracefully():
    scores = [ds(f"e{i}", k=i + 1, tok=77) for i in range(6)]
    labels = {s.example_id: float(s.k) for s in scores}
    report = length_confound(scores, labels)
    assert report.rho_depth == pytest.approx(1.0)
    assert report.rho_tokens is None
    assert report.partial_depth is None
    assert "constant" in report.note
    rendered = report.render()
    assert "n/a" in rendered


def test_confound_errors():
    scores = [ds(f"e{i}", k=i + 1) for i in range(4)]
    labels = {s.example_id: 1.0 * i for i, s in enumerate(scores)}
    with pytest.raises(AnalysisError, match="duplicate"):
        length_confound(scores + [ds("e0", k=5)], labels)
    with pytest.raises(AnalysisError, match="unlabeled examples: e3"):
        length_confound(scores, {k: v for k, v in labels.items() if k != "e3"})
    with pytest.raises(AnalysisError, match="at least 4"):
        length_confound(scores[:3], labels)


def test_confound_error_names_at_most_ten_ids():
    scores = [ds(f"e{i:05d}", k=1) for i in range(10_000)]
    with pytest.raises(AnalysisError) as exc:
        length_confound(scores, {"e00003": 1.0})
    first = ", ".join(f"e{i:05d}" for i in range(11) if i != 3)
    assert str(exc.value) == f"unlabeled examples: {first} and 9989 more"


def test_confound_report_shapes():
    scores = [ds(f"e{i}", k=i + 1, tok=100 + 3 * i) for i in range(8)]
    labels = {s.example_id: float(i) for i, s in enumerate(scores)}
    report = length_confound(scores, labels)
    assert "Spearman" in report.method
    text = report.render()
    assert str(report.n) in text
