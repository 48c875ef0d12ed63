"""Rank statistics for validating depth as a difficulty signal.

Provides Spearman rank correlation (average ranks over ties), Kendall
tau-b (tie-corrected, computed in O(n log n) by sorting plus inversion
counting), cross-teacher agreement over shared examples, and a length
confound probe that partials trace token count out of the depth vs
difficulty relation.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from itertools import combinations, groupby
from typing import Iterable, Mapping, Optional, Sequence

from .corpus import DoTScore, Frozen, one_score_per_example
from .errors import AnalysisError


def _ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks, ties sharing the average of their rank span."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    done = 0  # values ranked so far
    for _value, tied in groupby(order, key=values.__getitem__):
        tied = list(tied)
        rank = done + (len(tied) + 1) / 2
        for i in tied:
            ranks[i] = rank
        done += len(tied)
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


def _count_inversions(seq: Sequence) -> int:
    """Strict inversions, pairs i < j with seq[i] > seq[j]: a Fenwick tree
    over the values' ranks counts the earlier values at or below each."""
    rank = {value: r for r, value in enumerate(dict.fromkeys(sorted(seq)), start=1)}
    tree = [0] * (len(rank) + 1)
    inversions = 0
    for seen, value in enumerate(seq):
        inversions += seen
        r = rank[value]
        while r:
            inversions -= tree[r]
            r &= r - 1
        r = rank[value]
        while r < len(tree):
            tree[r] += 1
            r += r & -r
    return inversions


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
    if n0 == n1 or n0 == n2:
        return 0.0
    paired = sorted(zip(xs, ys))
    n3 = _tie_pairs(paired)
    discordant = _count_inversions([y for _x, y in paired])
    num = n0 - n1 - n2 + n3 - 2 * discordant  # concordant minus discordant
    return num / math.sqrt((n0 - n1) * (n0 - n2))


# ---------------------------------------------------------------------------
# Cross-teacher agreement


class TeacherPairAgreement(Frozen):
    __slots__ = ("teacher_a", "teacher_b", "tau_depth", "tau_tokens")

    def __init__(self, teacher_a: str, teacher_b: str, tau_depth: float, tau_tokens: float):
        self._set_fields(teacher_a, teacher_b, tau_depth, tau_tokens)

    def to_json(self) -> dict:
        return dict(zip(self.__slots__, self._values()))


class AgreementReport(Frozen):
    """Pairwise rank agreement between teachers on shared examples."""

    __slots__ = ("teachers", "n_common", "pairs")

    def __init__(self, teachers: tuple[str, ...], n_common: int,
                 pairs: tuple[TeacherPairAgreement, ...]):
        self._set_fields(teachers, n_common, pairs)

    def render(self) -> str:
        header = f"{'teacher a':>12}  {'teacher b':>12}  {'tau(k)':>8}  {'tau(tok)':>9}"
        lines = [f"common examples: {self.n_common}", header, "-" * len(header)]
        for p in self.pairs:
            lines.append(
                f"{p.teacher_a:>12}  {p.teacher_b:>12}  {p.tau_depth:>8.4f}  {p.tau_tokens:>9.4f}"
            )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {"teachers": self.teachers, "n_common": self.n_common,
                "pairs": tuple(p.to_json() for p in self.pairs)}


def cross_teacher_agreement(
    scores_by_teacher: Mapping[str, Iterable[DoTScore]],
) -> AgreementReport:
    """Kendall tau-b between every teacher pair, over k and over tok.

    Agreement is computed on the global intersection of example ids
    scored by all teachers; fewer than 3 shared examples is an error, and
    so is a teacher's second score for one example (a CorpusError).
    """
    if len(scores_by_teacher) < 2:
        raise AnalysisError("agreement needs at least 2 teachers")
    per_teacher = {teacher_id: {s.example_id: s for s in one_score_per_example(
        scores, where=lambda: f"teacher {teacher_id!r}")}
        for teacher_id, scores in scores_by_teacher.items()}

    teachers = tuple(sorted(per_teacher))
    common = set(per_teacher[teachers[0]]).intersection(*map(per_teacher.get, teachers[1:]))
    if len(common) < 3:
        raise AnalysisError(f"only {len(common)} examples are scored by every teacher; need >= 3")
    ordered = sorted(common)
    # Each teacher's k and tok columns over the shared ids, in id order.
    ks = {teacher_id: [kept[e].k for e in ordered] for teacher_id, kept in per_teacher.items()}
    toks = {teacher_id: [kept[e].tok for e in ordered] for teacher_id, kept in per_teacher.items()}
    pairs = tuple(TeacherPairAgreement(a, b, kendall_tau(ks[a], ks[b]),
                                       kendall_tau(toks[a], toks[b]))
                  for a, b in combinations(teachers, 2))
    return AgreementReport(teachers=teachers, n_common=len(ordered), pairs=pairs)


# ---------------------------------------------------------------------------
# Length confound


_METHOD = ("Spearman rank correlations; partial = Pearson on least-squares "
           "residuals of rank(k) and rank(label) regressed on rank(tok)")


class ConfoundReport(Frozen):
    """Depth vs difficulty correlations with token length controlled.

    partial_depth is the partial Spearman correlation between k and the
    difficulty label after regressing both (as ranks) on the token-count
    ranks; None when the control is degenerate, with note saying why.
    """

    __slots__ = ("n", "rho_depth", "rho_tokens", "partial_depth", "note", "method")

    def __init__(self, n: int, rho_depth: float, rho_tokens: Optional[float],
                 partial_depth: Optional[float], note: str = "", method: str = _METHOD):
        self._set_fields(n, rho_depth, rho_tokens, partial_depth, note, method)

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
        return dict(zip(self.__slots__, self._values()))


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

    labels maps example_id to an external difficulty value; an example
    mapped to None is unlabeled.  A score of an unlabeled example, or of
    one that labels lacks, and a second score for one example are
    CorpusErrors.  At least 4 scores are required.
    """
    rows = [(s.example_id, s.k, s.tok)  # all a score is needed for
            for s in one_score_per_example(scores, labels, "labels", "label")]
    n = len(rows)
    if n < 4:
        raise AnalysisError(f"need at least 4 labeled examples, got {n}")

    rows.sort()  # by example_id, which is unique
    # Arrays of doubles: 8 bytes a value, the same floats as a list's.
    ks = array("d", [k for _id, k, _tok in rows])
    toks = array("d", [tok for _id, _k, tok in rows])
    lab = array("d", (float(labels[example_id]) for example_id, _k, _tok in rows))
    del rows

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
        n=n,
        rho_depth=rho_depth,
        rho_tokens=rho_tokens,
        partial_depth=partial,
        note=note,
    )
