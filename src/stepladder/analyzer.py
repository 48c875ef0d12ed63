"""Rank statistics for validating depth as a difficulty signal.

Provides Spearman rank correlation (average ranks over ties), Kendall
tau-b (tie-corrected, computed in O(n log n) by sorting plus inversion
counting), cross-teacher agreement over shared examples, and a length
confound probe that partials trace token count out of the depth vs
difficulty relation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .corpus import DoTScore
from .errors import AnalysisError, some_ids


def _ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks, ties sharing the average of their rank span."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for pos in range(i, j + 1):
            ranks[order[pos]] = avg
        i = j + 1
    return ranks


def _pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        raise AnalysisError("correlation undefined for a constant sequence")
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy)


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks for ties.

    Needs at least 3 aligned pairs; a constant sequence is an error
    because its ranking carries no order information.
    """
    if len(xs) != len(ys):
        raise AnalysisError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 3:
        raise AnalysisError(f"need at least 3 pairs, got {len(xs)}")
    return _pearson(_ranks(xs), _ranks(ys))


def _count_inversions(seq: list) -> int:
    """Strict inversions via mergesort; equal elements are not inverted."""
    if len(seq) < 2:
        return 0
    mid = len(seq) // 2
    left, right = seq[:mid], seq[mid:]
    inv = _count_inversions(left) + _count_inversions(right)
    merged = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            inv += len(left) - i
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    seq[:] = merged
    return inv


def _tie_pairs(values: Sequence) -> int:
    return sum(c * (c - 1) // 2 for c in Counter(values).values())


def kendall_tau(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Kendall tau-b, tie-corrected, in O(n log n).

    Pairs are sorted by (x, y); discordant pairs are then exactly the
    strict inversions of the y sequence, and concordant pairs follow by
    subtracting the tie counts.  When either input is entirely tied the
    denominator vanishes and 0.0 is returned by convention.
    """
    if len(xs) != len(ys):
        raise AnalysisError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise AnalysisError(f"need at least 2 pairs, got {n}")
    n0 = n * (n - 1) // 2
    n1 = _tie_pairs(xs)
    n2 = _tie_pairs(ys)
    n3 = _tie_pairs(list(zip(xs, ys)))
    if n0 == n1 or n0 == n2:
        return 0.0
    paired = sorted(zip(xs, ys))
    discordant = _count_inversions([y for _x, y in paired])
    num = n0 - n1 - n2 + n3 - 2 * discordant  # concordant minus discordant
    return num / math.sqrt((n0 - n1) * (n0 - n2))


# ---------------------------------------------------------------------------
# Cross-teacher agreement


@dataclass(frozen=True)
class TeacherPairAgreement:
    teacher_a: str
    teacher_b: str
    tau_depth: float
    tau_tokens: float


@dataclass(frozen=True)
class AgreementReport:
    """Pairwise rank agreement between teachers on shared examples."""

    teachers: tuple[str, ...]
    n_common: int
    pairs: tuple[TeacherPairAgreement, ...]

    def render(self) -> str:
        header = f"{'teacher a':>12}  {'teacher b':>12}  {'tau(k)':>8}  {'tau(tok)':>9}"
        lines = [f"common examples: {self.n_common}", header, "-" * len(header)]
        for p in self.pairs:
            lines.append(
                f"{p.teacher_a:>12}  {p.teacher_b:>12}  {p.tau_depth:>8.4f}  {p.tau_tokens:>9.4f}"
            )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return asdict(self)


def cross_teacher_agreement(
    scores_by_teacher: Mapping[str, Iterable[DoTScore]],
) -> AgreementReport:
    """Kendall tau-b between every teacher pair, over k and over tok.

    Agreement is computed on the global intersection of example ids
    scored by all teachers; fewer than 3 shared examples is an error.
    """
    if len(scores_by_teacher) < 2:
        raise AnalysisError("agreement needs at least 2 teachers")
    per_teacher: dict[str, dict[str, DoTScore]] = {}
    for teacher_id, scores in scores_by_teacher.items():
        by_id: dict[str, DoTScore] = {}
        for sc in scores:
            if sc.example_id in by_id:
                raise AnalysisError(
                    f"teacher {teacher_id!r} has duplicate scores for "
                    f"example {sc.example_id!r}"
                )
            by_id[sc.example_id] = sc
        per_teacher[teacher_id] = by_id

    teachers = tuple(sorted(per_teacher))
    common = set(per_teacher[teachers[0]])
    for teacher_id in teachers[1:]:
        common &= set(per_teacher[teacher_id])
    if len(common) < 3:
        raise AnalysisError(
            f"only {len(common)} examples are scored by every teacher; need >= 3"
        )
    ordered = sorted(common)

    pairs = []
    for i, a in enumerate(teachers):
        for b in teachers[i + 1:]:
            ka = [per_teacher[a][e].k for e in ordered]
            kb = [per_teacher[b][e].k for e in ordered]
            ta = [per_teacher[a][e].tok for e in ordered]
            tb = [per_teacher[b][e].tok for e in ordered]
            pairs.append(TeacherPairAgreement(
                teacher_a=a,
                teacher_b=b,
                tau_depth=kendall_tau(ka, kb),
                tau_tokens=kendall_tau(ta, tb),
            ))
    return AgreementReport(teachers=teachers, n_common=len(ordered), pairs=tuple(pairs))


# ---------------------------------------------------------------------------
# Length confound


@dataclass(frozen=True)
class ConfoundReport:
    """Depth vs difficulty correlations with token length controlled.

    partial_depth is the partial Spearman correlation between k and the
    difficulty label after regressing both (as ranks) on the token-count
    ranks; None when the control is degenerate, with note saying why.
    """

    n: int
    rho_depth: float
    rho_tokens: Optional[float]
    partial_depth: Optional[float]
    note: str = ""
    method: str = (
        "Spearman rank correlations; partial = Pearson on least-squares "
        "residuals of rank(k) and rank(label) regressed on rank(tok)"
    )

    def render(self) -> str:
        partial = "n/a" if self.partial_depth is None else f"{self.partial_depth:.4f}"
        tokens = "n/a" if self.rho_tokens is None else f"{self.rho_tokens:.4f}"
        lines = [
            f"examples: {self.n}",
            f"spearman depth vs label:  {self.rho_depth:.4f}",
            f"spearman tokens vs label: {tokens}",
            f"partial depth (tokens controlled): {partial}",
        ]
        if self.note:
            lines.append(f"note: {self.note}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return asdict(self)


def _residuals(ys: Sequence[float], xs: Sequence[float]) -> list[float]:
    """Least-squares residuals of ys on xs (with intercept)."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    return [y - (my + slope * (x - mx)) for x, y in zip(xs, ys)]


def length_confound(scores: Iterable[DoTScore],
                    labels: Mapping[str, float]) -> ConfoundReport:
    """Check whether depth predicts difficulty beyond sheer trace length.

    labels maps example_id to an external difficulty value.  Every scored
    example must be labeled and at least 4 are required.
    """
    scores = list(scores)
    seen: set[str] = set()
    for sc in scores:
        if sc.example_id in seen:
            raise AnalysisError(f"duplicate score for example {sc.example_id!r}")
        seen.add(sc.example_id)
    missing = sorted(s.example_id for s in scores if s.example_id not in labels)
    if missing:
        raise AnalysisError(f"unlabeled examples: {some_ids(missing)}")
    if len(scores) < 4:
        raise AnalysisError(f"need at least 4 labeled examples, got {len(scores)}")

    scores.sort(key=lambda s: s.example_id)
    ks = [float(s.k) for s in scores]
    toks = [float(s.tok) for s in scores]
    lab = [float(labels[s.example_id]) for s in scores]

    rank_k, rank_tok, rank_lab = _ranks(ks), _ranks(toks), _ranks(lab)
    rho_depth = _pearson(rank_k, rank_lab)
    rho_tokens: Optional[float] = None
    partial: Optional[float] = None
    note = ""
    if len(set(rank_tok)) == 1:
        note = "token counts are constant; token correlations are undefined"
    else:
        rho_tokens = _pearson(rank_tok, rank_lab)
        res_k = _residuals(rank_k, rank_tok)
        res_lab = _residuals(rank_lab, rank_tok)
        try:
            partial = _pearson(res_k, res_lab)
        except AnalysisError:
            note = ("depth or label ranks are fully explained by token ranks; "
                    "partial correlation is undefined")
    return ConfoundReport(
        n=len(scores),
        rho_depth=rho_depth,
        rho_tokens=rho_tokens,
        partial_depth=partial,
        note=note,
    )
