"""Turn segmented traces into depth scores.

DoT(x) is the step count k of the teacher's trace; dot_norm divides k by
ln(1 + tok) to damp pure verbosity.  With several stochastic samples per
example, the per-sample k and tok are aggregated by lower median before
dot_norm is recomputed, so one rambling outlier cannot drag the score up.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .corpus import DoTScore, Trace
from .errors import ScoringError


def _steps(trace: Trace) -> int:
    """The trace's step count k; ScoringError if it has none."""
    k = trace.k
    if k < 1:
        raise ScoringError(
            f"trace ({trace.example_id}, {trace.teacher_id}) has no steps"
        )
    return k


def score(trace: Trace) -> DoTScore:
    """Score a single trace: k steps, tok tokens, dot_norm = k / ln(1 + tok)."""
    return DoTScore.compute(trace.example_id, trace.teacher_id, _steps(trace), trace.tok)


def _lower_median(values: list[int]) -> int:
    return sorted(values)[(len(values) - 1) // 2]


def _aggregate(example_id: str, teacher_id: str, samples: list[int]) -> DoTScore:
    """One score from a pair's samples, listed flat as k, tok, k, tok, ...;
    k and tok each by lower median."""
    return DoTScore.compute(example_id, teacher_id, _lower_median(samples[::2]),
                            _lower_median(samples[1::2]), n_samples=len(samples) // 2)


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
                      [n for s in scores for n in (s.k, s.tok)])


def score_stream(traces: Iterable[Trace]) -> tuple[Iterator[DoTScore], list[tuple[str, str, str]]]:
    """score_corpus with the scores as an iterator.

    Every trace is read, and the errors listed, before this returns; only
    each trace's k and tok are kept, one copy of each teacher id, so
    traces may stream in from a file.  The iterator builds each pair's
    DoTScore as it reaches the pair, in (example_id, teacher_id) order,
    and lets go of the pair's samples.  (A trace's tok is >= 1 by
    construction, so k is all score() checks.)
    """
    groups: dict[tuple[str, str], list[int]] = {}
    teachers: dict[str, str] = {}
    errors: list[tuple[str, str, str]] = []
    for trace in traces:
        try:
            k = _steps(trace)
        except ScoringError as exc:
            errors.append((trace.example_id, trace.teacher_id, str(exc)))
            continue
        teacher = teachers.setdefault(trace.teacher_id, trace.teacher_id)
        groups.setdefault((trace.example_id, teacher), []).extend((k, trace.tok))
    return (_aggregate(*key, groups.pop(key)) for key in sorted(groups)), errors


def score_corpus(traces: Iterable[Trace]) -> tuple[list[DoTScore], list[tuple[str, str, str]]]:
    """Score every trace, aggregating repeated samples per (example, teacher).

    Returns (scores, errors).  Scores are sorted by (example_id,
    teacher_id); errors are (example_id, teacher_id, reason) triples for
    traces that could not be scored.  Unscorable traces never abort the
    run, they are reported.
    """
    scores, errors = score_stream(traces)
    return list(scores), errors
