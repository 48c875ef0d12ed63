"""Build deterministic shallow-to-deep curricula from depth buckets.

Two modes.  "staged" trains phase t on bucket t only.  "mixed" samples
phase t from buckets 1..t with weights w_i proportional to i**alpha:
alpha = 0 is uniform mixing, large alpha approaches hard staging.
Weights become integer per-bucket counts by largest-remainder rounding
(so counts do not depend on the seed), and the actual ids are drawn with
a per-(phase, bucket) seeded stream, by default without replacement
against pools shared across phases.

Baseline orderings (token length, judge score, random) produce manifests
with the same phase/budget accounting so curricula can be compared under
matched budgets.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .corpus import BASELINE_KINDS, CurriculumManifest, DoTScore, Example, Phase, SchedulePlan
from .errors import ParameterError, ScheduleError, some_ids

if TYPE_CHECKING:
    from .bucketer import BucketizeResult

# The most ids a with-replacement curriculum may draw, phases times
# budget_per_phase.  Such draws never run short, and the manifest holds
# every drawn id in memory, so a budget past this bound is refused
# before any draw.
MAX_REPLACEMENT_DRAWS = 10_000_000


def phase_weights(t: int, alpha: float) -> list[float]:
    """Normalized mixing weights over buckets 1..t, w_i proportional to i**alpha.

    Computed from the ratios (i/t)**alpha so that arbitrarily large alpha
    saturates toward (0, ..., 0, 1) instead of overflowing.
    """
    if t < 1:
        raise ParameterError(f"phase index must be >= 1, got {t}")
    if not (alpha >= 0 and math.isfinite(alpha)):
        raise ParameterError(f"alpha must be finite and >= 0, got {alpha}")
    raw = [(i / t) ** alpha for i in range(1, t + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def _largest_remainder(weights: Sequence[float], budget: int) -> list[int]:
    """Apportion budget across weights; exact total, seed-independent.

    Floors the quotas, then hands the remaining units to the largest
    fractional parts, ties going to the lower index.
    """
    total = sum(weights)
    if total <= 0:
        raise ScheduleError("mixing weights sum to zero")
    quotas = [budget * w / total for w in weights]
    counts = [int(math.floor(q)) for q in quotas]
    leftover = budget - sum(counts)
    order = sorted(range(len(weights)), key=lambda i: (counts[i] - quotas[i], i))
    for i in order[:leftover]:
        counts[i] += 1
    return counts


def _phase_bucket_counts(t: int, plan: SchedulePlan, phase_weights_fn) -> dict[int, int]:
    """Per-bucket draw counts for phase t, as {bucket_index: count > 0}."""
    if plan.mode == "staged" and phase_weights_fn is None:
        return {t: plan.budget_per_phase}
    if phase_weights_fn is not None:
        weights = list(phase_weights_fn(t, plan))
        if len(weights) != t:
            raise ScheduleError(
                f"phase {t}: custom weights must cover buckets 1..{t}, "
                f"got {len(weights)} entries"
            )
        if any(w < 0 for w in weights):
            raise ScheduleError(f"phase {t}: custom weights must be >= 0")
    else:
        weights = phase_weights(t, plan.alpha)
        if plan.mixing == "adjacent":
            keep = {t, t - 1}
            weights = [w if i + 1 in keep else 0.0 for i, w in enumerate(weights)]
    counts = _largest_remainder(weights, plan.budget_per_phase)
    return {i + 1: n for i, n in enumerate(counts) if n > 0}


def _stream(seed: int, phase: int, bucket: int) -> random.Random:
    # One independent deterministic stream per (phase, bucket) cell, so a
    # bucket's draws do not shift when another bucket's count changes.
    return random.Random(f"{seed}/{phase}/{bucket}")


def build_curriculum(result: BucketizeResult, plan: SchedulePlan, *,
                     phase_weights_fn=None,
                     provenance: Optional[dict] = None) -> CurriculumManifest:
    """Draw a phase-ordered curriculum manifest from bucketed examples.

    Without replacement (the default), pools are global: ids consumed in
    one phase are gone for later phases, and a shortfall raises
    ScheduleError naming the phase and bucket.  With replacement, more
    than MAX_REPLACEMENT_DRAWS ids in all raise ScheduleError before any
    draw.  phase_weights_fn, when given, replaces the built-in weighting:
    it receives (t, plan) and returns unnormalized weights for buckets
    1..t.
    """
    buckets = result.buckets
    if plan.phases > len(buckets):
        raise ScheduleError(
            f"plan wants {plan.phases} phases but only {len(buckets)} buckets exist"
        )
    draws = plan.phases * plan.budget_per_phase
    if plan.with_replacement and draws > MAX_REPLACEMENT_DRAWS:
        raise ScheduleError(
            f"with replacement, phases * budget_per_phase is {draws}; "
            f"the most a manifest may draw is {MAX_REPLACEMENT_DRAWS}"
        )
    # Without replacement, a bucket's pool loses the ids each phase draws.
    pools: dict[int, list[str]] = {b.index: list(b.member_ids) for b in buckets}

    phases: list[Phase] = []
    for t in range(1, plan.phases + 1):
        counts = _phase_bucket_counts(t, plan, phase_weights_fn)
        ids: list[str] = []
        for bucket_index in sorted(counts):
            want, pool = counts[bucket_index], pools[bucket_index]
            rng = _stream(plan.seed, t, bucket_index)
            if plan.with_replacement:
                if not pool:
                    raise ScheduleError(f"phase {t}: bucket {bucket_index} is empty")
                ids.extend(rng.choice(pool) for _ in range(want))
            else:
                if len(pool) < want:
                    raise ScheduleError(
                        f"phase {t}: bucket {bucket_index} has {len(pool)} "
                        f"examples left but {want} are needed"
                    )
                chosen = rng.sample(pool, want)
                taken = set(chosen)
                pools[bucket_index] = [x for x in pool if x not in taken]
                ids.extend(chosen)
        phases.append(Phase(index=t, example_ids=tuple(ids), bucket_counts=counts))

    return CurriculumManifest(
        plan=plan,
        phases=tuple(phases),
        provenance=dict(provenance or {}),
    )


def baseline_order(examples: Iterable[Example], scores: Optional[Iterable[DoTScore]],
                   kind: str, plan: SchedulePlan) -> CurriculumManifest:
    """Build a matched-budget manifest from a non-depth ordering.

    token_length sorts ascending by aggregated trace token count (scores
    required), judge_score ascending by the corpus judge annotation, and
    random applies a seeded shuffle.  The ordered ids are then chunked
    into plan.phases phases of plan.budget_per_phase each; phases carry
    no bucket accounting.
    """
    examples = list(examples)
    if kind not in BASELINE_KINDS:
        raise ParameterError(
            f"unknown baseline kind {kind!r}; expected one of {BASELINE_KINDS}"
        )

    if kind == "token_length":
        by_id = {s.example_id: s for s in scores or []}
        missing = [ex.id for ex in examples if ex.id not in by_id]
        if missing:
            raise ScheduleError(f"token_length baseline lacks scores for: {some_ids(missing)}")
        ordered = sorted((by_id[ex.id].tok, ex.id) for ex in examples)
    elif kind == "judge_score":
        missing = [ex.id for ex in examples if ex.judge_score is None]
        if missing:
            raise ScheduleError(
                f"judge_score baseline lacks judge_score for: {some_ids(missing)}")
        ordered = sorted((ex.judge_score, ex.id) for ex in examples)
    else:
        ids = sorted(ex.id for ex in examples)
        rng = random.Random(f"{plan.seed}/baseline/random")
        rng.shuffle(ids)
        ordered = [(None, i) for i in ids]

    needed = plan.phases * plan.budget_per_phase
    if len(ordered) < needed:
        raise ScheduleError(
            f"{kind} baseline needs {needed} examples but only {len(ordered)} are available"
        )
    ids = [ex_id for _key, ex_id in ordered]
    phases = []
    for t in range(1, plan.phases + 1):
        chunk = ids[(t - 1) * plan.budget_per_phase: t * plan.budget_per_phase]
        phases.append(Phase(index=t, example_ids=tuple(chunk), bucket_counts={}))
    return CurriculumManifest(
        plan=plan,
        phases=tuple(phases),
        provenance={"ordering": kind},
    )


def filter_by_depth(scores: Iterable[DoTScore], min_k: Optional[int] = None,
                    max_k: Optional[int] = None) -> list[str]:
    """Example ids whose k lies in [min_k, max_k] (inclusive), sorted by (k, id).

    At least one bound is required; use min_k for deep-only slices and
    max_k for shallow-only ones.
    """
    if min_k is None and max_k is None:
        raise ParameterError("filter_by_depth needs min_k, max_k or both")
    if min_k is not None and min_k < 1:
        raise ParameterError("min_k must be >= 1")
    if max_k is not None and max_k < 1:
        raise ParameterError("max_k must be >= 1")
    if min_k is not None and max_k is not None and min_k > max_k:
        raise ParameterError(f"min_k {min_k} exceeds max_k {max_k}")
    picked = [(s.k, s.example_id) for s in scores
              if (min_k is None or s.k >= min_k) and (max_k is None or s.k <= max_k)]
    return [ex_id for _k, ex_id in sorted(picked)]
