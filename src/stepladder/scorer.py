"""Turn segmented traces into depth scores.

DoT(x) is the step count k of the teacher's trace; dot_norm divides k by
ln(1 + tok) to damp pure verbosity.  With several stochastic samples per
example, the per-sample k and tok are aggregated by lower median before
dot_norm is recomputed, so one rambling outlier cannot drag the score up.
"""

from __future__ import annotations

from typing import Iterable

from .corpus import DoTScore, Trace
from .errors import ScoringError


def score(trace: Trace) -> DoTScore:
    """Score a single trace: k steps, tok tokens, dot_norm = k / ln(1 + tok)."""
    if trace.k < 1:
        raise ScoringError(
            f"trace ({trace.example_id}, {trace.teacher_id}) has no steps"
        )
    return DoTScore.compute(trace.example_id, trace.teacher_id, trace.k, trace.tok)


def _lower_median(values: list[int]) -> int:
    return sorted(values)[(len(values) - 1) // 2]


def _aggregate(example_id: str, teacher_id: str, samples: list[tuple[int, int]]) -> DoTScore:
    """One score from a pair's (k, tok) samples, each by lower median."""
    return DoTScore.compute(example_id, teacher_id,
                            _lower_median([k for k, _tok in samples]),
                            _lower_median([tok for _k, tok in samples]),
                            n_samples=len(samples))


def aggregate_self_consistency(scores: Iterable[DoTScore]) -> DoTScore:
    """Collapse repeated samples of one (example, teacher) pair.

    k and tok are aggregated independently by lower median (the lower of
    the two central order statistics when the count is even), then
    dot_norm is recomputed from the aggregates.  A singleton passes
    through unchanged apart from n_samples bookkeeping.
    """
    scores = list(scores)
    if not scores:
        raise ScoringError("cannot aggregate an empty score group")
    keys = {(s.example_id, s.teacher_id) for s in scores}
    if len(keys) != 1:
        raise ScoringError(
            f"aggregation group mixes (example, teacher) pairs: {sorted(keys)}"
        )
    return _aggregate(scores[0].example_id, scores[0].teacher_id,
                      [(s.k, s.tok) for s in scores])


def score_corpus(traces: Iterable[Trace]) -> tuple[list[DoTScore], list[tuple[str, str, str]]]:
    """Score every trace, aggregating repeated samples per (example, teacher).

    Returns (scores, errors).  Scores are sorted by (example_id,
    teacher_id); errors are (example_id, teacher_id, reason) triples for
    traces that could not be scored.  Unscorable traces never abort the
    run, they are reported.  Only each trace's k and tok are kept, so
    traces may stream in from a file.
    """
    groups: dict[tuple[str, str], list[tuple[int, int]]] = {}
    errors: list[tuple[str, str, str]] = []
    for trace in traces:
        try:
            single = score(trace)
        except ScoringError as exc:
            errors.append((trace.example_id, trace.teacher_id, str(exc)))
            continue
        groups.setdefault((trace.example_id, trace.teacher_id), []).append(
            (single.k, single.tok))

    return [_aggregate(*key, samples) for key, samples in sorted(groups.items())], errors
