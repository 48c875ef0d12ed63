"""The four workloads: their generated inputs, the CLI commands one pass
runs, and the in-process library replay each command is checked against.

A workload is a list of stages.  Each stage is one CLI command plus a
replay of the same command through the library's public functions,
writing the same files into another directory; the replay chains on its
own outputs, so every CLI output must equal its replay byte for byte.
Replay spans are named after the layer the call goes into: "corpus.read",
"corpus.write", "corpus.sha256", "segmenter", "scorer", "bucketer",
"scheduler", "scheduler.baseline", "analyzer.confound", "analyzer.kendall",
"analyzer.agreement", "harvester" and "harvester.retry_probe"; each
stage's replay sits in a "stage.<name>" span.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import stepladder
from stepladder import (
    DEFAULT_TEMPLATE,
    BucketSpec,
    DoTScore,
    Example,
    HarvestJob,
    SchedulePlan,
    TeacherProfile,
    baseline_order,
    build_curriculum,
    bucketize,
    cross_teacher_agreement,
    describe,
    filter_by_depth,
    harvest,
    kendall_tau,
    length_confound,
    read_buckets,
    read_completions,
    read_corpus,
    read_scores,
    read_traces,
    score_corpus,
    trace_from_text,
    write_buckets,
    write_completions,
    write_corpus,
    write_manifest,
    write_scores,
    write_traces,
)
from stepladder.corpus import file_sha256
from stepladder.mockteacher import MockTeacher
from stepladder.synthetic import build_demo_corpus

from harness import API_KEY_ENV, Checks, Cmd, Tracer, median

PHASES = 3


@dataclass
class Stage:
    """One CLI command and its in-process replay."""

    name: str
    argv: list[str]
    outputs: tuple[str, ...]  # files in the pass directory, compared with the replay
    replay: Callable[[Tracer, Path], dict]
    before: Optional[Callable[[Path], None]] = None  # untimed preparation of the pass directory
    units: int = 0  # harvest units the command attempts
    checked_untraced: bool = True  # replayed in every run, not only the traced one


def _write(tr: Tracer, writer, records, path: Path) -> None:
    with tr.span("corpus.write") as counts:
        writer(records, path)
    counts["bytes_out"] = path.stat().st_size


def _digests(tr: Tracer, *inputs: Path) -> list[str]:
    """What the CLI computes for the .meta.json sidecar of its output."""
    with tr.span("corpus.sha256"):
        return [file_sha256(p) for p in inputs]


def _write_report(obj: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Stages shared by the batch workloads


def segment_stage(inp: Path) -> Stage:
    src = inp / "completions.jsonl"

    def replay(tr, d):
        with tr.span("corpus.read"):
            records = read_completions(src)
        with tr.span("segmenter") as counts:
            traces = [trace_from_text(r["example_id"], r["teacher_id"], r["text"])
                      for r in records]
        counts["traces"] = len(traces)
        _write(tr, write_traces, traces, d / "traces.jsonl")
        return {"records": len(records), "traces": len(traces),
                "modes": Counter(t.segmentation_mode for t in traces),
                "low_confidence": sum(t.confidence == "low" for t in traces),
                "digests": _digests(tr, src)}

    return Stage("segment", ["segment", "--completions", str(src), "--out", "traces.jsonl"],
                 ("traces.jsonl",), replay)


def score_stage() -> Stage:
    def replay(tr, d):
        src = d / "traces.jsonl"
        with tr.span("corpus.read"):
            traces = read_traces(src)
        with tr.span("scorer"):
            scores, errors = score_corpus(traces)
        _write(tr, write_scores, scores, d / "scores.jsonl")
        return {"traces": len(traces), "scores": len(scores), "errors": len(errors),
                "digests": _digests(tr, src)}

    return Stage("score", ["score", "--traces", "traces.jsonl", "--out", "scores.jsonl"],
                 ("scores.jsonl",), replay)


def bucket_stage(inp: Path, share: float, scores: Optional[Path] = None) -> Stage:
    """Buckets the pass's own scores.jsonl, or a generated scores file."""
    corpus = inp / "examples.jsonl"

    def replay(tr, d):
        src = scores or d / "scores.jsonl"
        with tr.span("corpus.read"):
            scored = read_scores(src)
            examples = read_corpus(corpus)
        tasks = {ex.id: ex.task for ex in examples}
        with tr.span("bucketer") as counts:
            result = bucketize(scored, BucketSpec(max_task_share=share), tasks)
            text = describe(result).render()
        counts["evicted"] = len(result.overflow)
        counts["retained"] = sum(b.size for b in result.buckets)
        _write(tr, write_buckets, result, d / "buckets.jsonl")
        with open(d / "buckets.txt", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
        return {"scores": len(scored), "retained": counts["retained"],
                "evicted": counts["evicted"], "result": result,
                "digests": _digests(tr, src, corpus)}

    return Stage("bucket", ["bucket", "--scores", str(scores or "scores.jsonl"),
                            "--corpus", str(corpus),
                            "--max-task-share", str(share), "--out", "buckets.jsonl",
                            "--report", "buckets.txt"],
                 ("buckets.jsonl", "buckets.txt"), replay)


def schedule_stage(budget: int, seed: int, mode: str = "mixed") -> Stage:
    out = "curriculum.jsonl" if mode == "mixed" else f"curriculum-{mode}.jsonl"

    def replay(tr, d):
        src = d / "buckets.jsonl"
        with tr.span("corpus.read"):
            result = read_buckets(src)
        plan = SchedulePlan(mode=mode, phases=PHASES, budget_per_phase=budget,
                            seed=seed, alpha=1.0)
        provenance = {"buckets_sha256": _digests(tr, src)[0],
                      "tool_version": stepladder.__version__}
        with tr.span("scheduler"):
            manifest = build_curriculum(result, plan, provenance=provenance)
        _write(tr, write_manifest, manifest, d / out)
        return {"phase_sizes": [len(p.example_ids) for p in manifest.phases],
                "digests": _digests(tr, src)}

    return Stage("schedule" if mode == "mixed" else f"schedule-{mode}",
                 ["schedule", "--buckets", "buckets.jsonl", "--mode", mode, "--alpha", "1.0",
                  "--phases", str(PHASES), "--budget", str(budget), "--seed", str(seed),
                  "--out", out],
                 (out,), replay)


def baseline_stage(inp: Path, budget: int, seed: int) -> Stage:
    corpus = inp / "examples.jsonl"

    def replay(tr, d):
        src = d / "scores.jsonl"
        with tr.span("corpus.read"):
            examples = read_corpus(corpus)
            scores = read_scores(src)
        plan = SchedulePlan(mode="staged", phases=PHASES, budget_per_phase=budget, seed=seed)
        with tr.span("scheduler.baseline"):
            manifest = baseline_order(examples, scores, "token_length", plan)
        _write(tr, write_manifest, manifest, d / "baseline.jsonl")
        return {"phase_sizes": [len(p.example_ids) for p in manifest.phases],
                "digests": _digests(tr, corpus, src)}

    return Stage("baseline", ["baseline", "--corpus", str(corpus), "--scores", "scores.jsonl",
                              "--kind", "token_length", "--phases", str(PHASES),
                              "--budget", str(budget), "--seed", str(seed),
                              "--out", "baseline.jsonl"],
                 ("baseline.jsonl",), replay)


def confound_stage(inp: Path) -> Stage:
    corpus = inp / "examples.jsonl"

    def replay(tr, d):
        src = d / "scores.jsonl"
        with tr.span("corpus.read"):
            scores = read_scores(src)
            examples = read_corpus(corpus)
        labels = {ex.id: float(ex.external_difficulty) for ex in examples
                  if ex.external_difficulty is not None}
        with tr.span("analyzer.confound"):
            report = length_confound(scores, labels)
        _write_report(report.to_json(), d / "confound.json")
        return {"n": report.n, "digests": _digests(tr, src, corpus)}

    return Stage("confound", ["analyze", "confound", "--scores", "scores.jsonl",
                              "--labels-from", str(corpus), "--out", "confound.json"],
                 ("confound.json",), replay)


def agreement_stage(inp: Path) -> Stage:
    other = inp / "scores-b.jsonl"

    def replay(tr, d):
        src = d / "scores.jsonl"
        by_teacher: dict = {}
        with tr.span("corpus.read"):
            for path in (src, other):
                for sc in read_scores(path):
                    by_teacher.setdefault(sc.teacher_id, []).append(sc)
        with tr.span("analyzer.agreement"):
            report = cross_teacher_agreement(by_teacher)
        # The same rank statistic the report is built from, timed on its own.
        a, b = (({s.example_id: s for s in by_teacher[t]}) for t in sorted(by_teacher))
        common = sorted(a.keys() & b.keys())
        with tr.span("analyzer.kendall"):
            kendall_tau([a[e].k for e in common], [b[e].k for e in common])
            kendall_tau([a[e].tok for e in common], [b[e].tok for e in common])
        _write_report(report.to_json(), d / "agreement.json")
        return {"n_common": report.n_common, "digests": _digests(tr, src, other)}

    return Stage("agreement", ["analyze", "agreement", "--scores", "scores.jsonl",
                               "--scores", str(other), "--out", "agreement.json"],
                 ("agreement.json",), replay)


def filter_stage(min_k: int, max_k: int) -> Stage:
    def replay(tr, d):
        src = d / "scores.jsonl"
        with tr.span("corpus.read"):
            scores = read_scores(src)
        with tr.span("scheduler"):
            ids = filter_by_depth(scores, min_k=min_k, max_k=max_k)
        with open(d / "filter.txt", "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(i + "\n" for i in ids)
        return {"kept": len(ids), "digests": _digests(tr, src)}

    return Stage("filter", ["filter", "--scores", "scores.jsonl", "--min-k", str(min_k),
                            "--max-k", str(max_k), "--out", "filter.txt"],
                 ("filter.txt",), replay)


def _schedule_seed(seed: int) -> int:
    return random.Random(f"{seed}/schedule").randrange(1 << 31)


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Base: a workload generates inputs, lists stages, and checks invariants."""

    name = ""
    setup_repeats = 3  # set-ups per run; setup_s is their median
    min_cmds = 1  # smallest number of timed commands a run makes

    def sizes(self) -> tuple[int, int]:
        """(small, main) input sizes; the traced run replays both for slopes."""
        raise NotImplementedError

    def setup(self, inp: Path, n: int, seed: int) -> None:
        raise NotImplementedError

    def stages(self, inp: Path, n: int, seed: int, cli: Path) -> list[Stage]:
        raise NotImplementedError

    def records(self, n: int) -> int:
        """Input records one pass processes."""
        return n

    def check(self, ck: Checks, n: int, res: dict, cmds: list[Cmd], cli: Path) -> None:
        pass

    def describe(self, n: int, res: dict, cmds: list[Cmd]) -> dict:
        return {}

    def probe(self, tr: Tracer, work: Path, inp: Path, res: dict) -> None:
        """Extra measurements after each traced replay."""

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass


def _check_batch(ck: Checks, n: int, res: dict, budget: int) -> None:
    """Conservation from stage to stage, and manifests at exactly the budget."""
    seg, sco, buc = res["segment"], res["score"], res["bucket"]
    ck.expect(seg["records"] == n, f"segment read {seg['records']} of {n} completions")
    ck.expect(seg["traces"] == n, f"{seg['traces']} traces from {n} completions")
    ck.expect(sco["scores"] == sco["traces"] == n and sco["errors"] == 0,
              f"{sco['scores']} scores from {sco['traces']} traces")
    ck.expect(buc["retained"] + buc["evicted"] == buc["scores"] == n,
              f"buckets hold {buc['retained']} + {buc['evicted']} of {n} scores")
    for name in ("schedule", "baseline"):
        sizes = res[name]["phase_sizes"]
        ck.expect(sizes == [budget] * PHASES, f"{name} phase sizes {sizes} != budget {budget}")
    ck.expect(res["confound"]["n"] == n, f"confound covers {res['confound']['n']} of {n}")


def _describe_batch(res: dict) -> dict:
    seg = res["segment"]
    buckets = res["bucket"]["result"].buckets
    return {
        "segmentation_mode_share": {m: c / seg["traces"] for m, c in sorted(seg["modes"].items())},
        "low_confidence_share": seg["low_confidence"] / seg["traces"],
        "dominant_task_share": [max(b.task_histogram.values()) / b.size if b.size else 0.0
                                for b in buckets],
    }


class Pipeline(Workload):
    name = "pipeline-1e5"
    setup_repeats = 1  # one set-up generates 1e5 examples, about 7 s

    def sizes(self):
        return 10_000, 100_000

    def setup(self, inp, n, seed):
        examples, completions = build_demo_corpus(n, seed)
        write_corpus(examples, inp / "examples.jsonl")
        write_completions(completions, inp / "completions.jsonl")

    def stages(self, inp, n, seed, cli):
        budget, sseed = n // 10, _schedule_seed(seed)
        return [segment_stage(inp), score_stage(), bucket_stage(inp, 1.0),
                schedule_stage(budget, sseed), baseline_stage(inp, budget, sseed),
                confound_stage(inp)]

    def check(self, ck, n, res, cmds, cli):
        _check_batch(ck, n, res, n // 10)

    def describe(self, n, res, cmds):
        return _describe_batch(res)


class SmallBatch(Workload):
    name = "small-batch"
    min_cmds = 100  # so the nearest-rank p90 has at least ten samples beyond it

    def sizes(self):
        return 100, 1000

    def setup(self, inp, n, seed):
        examples, completions = build_demo_corpus(n, seed)
        write_corpus(examples, inp / "examples.jsonl")
        write_completions(completions, inp / "completions.jsonl")
        # A second teacher for `analyze agreement`: same ids, other traces.
        _, other = build_demo_corpus(n, seed + 1)
        traces = [trace_from_text(r["example_id"], "teacher-b", r["text"]) for r in other]
        write_scores(score_corpus(traces)[0], inp / "scores-b.jsonl")

    def stages(self, inp, n, seed, cli):
        budget, sseed = n // 10, _schedule_seed(seed)
        return [segment_stage(inp), score_stage(), bucket_stage(inp, 1.0),
                schedule_stage(budget, sseed), baseline_stage(inp, budget, sseed),
                confound_stage(inp), agreement_stage(inp), filter_stage(4, 6)]

    def check(self, ck, n, res, cmds, cli):
        _check_batch(ck, n, res, n // 10)
        ck.expect(res["agreement"]["n_common"] == n,
                  f"agreement covers {res['agreement']['n_common']} of {n}")

    def describe(self, n, res, cmds):
        return _describe_batch(res)


DOMINANT = "arithmetic"
MINOR_TASKS = tuple(f"minor-{i}" for i in range(9))
SKEW_SHARE = 0.2


class TaskSkew(Workload):
    """About 90% of every bucket is one task; the cap must evict most of it."""

    name = "task-skew"

    def sizes(self):
        return 6_000, 12_000

    def setup(self, inp, n, seed):
        rng = random.Random(seed)
        ranges = ((1, 3), (4, 6), (7, 10))
        examples, scores = [], []
        for i in range(n):
            ex_id = f"s{i:06d}"
            task = DOMINANT if rng.random() < 0.9 else rng.choice(MINOR_TASKS)
            examples.append(Example(id=ex_id, task=task, prompt=f"skewed case {i}"))
            scores.append(DoTScore.compute(ex_id, "skew-teacher",
                                           rng.randint(*ranges[i % 3]), rng.randint(20, 400)))
        write_corpus(examples, inp / "examples.jsonl")
        write_scores(scores, inp / "scores.jsonl")

    def stages(self, inp, n, seed, cli):
        # Both schedule modes, so the schedule commands outnumber the bucket
        # command and the p50 command time falls inside their cluster.
        sseed = _schedule_seed(seed)
        return [bucket_stage(inp, SKEW_SHARE, inp / "scores.jsonl"),
                schedule_stage(n // 50, sseed), schedule_stage(n // 50, sseed, "staged")]

    def check(self, ck, n, res, cmds, cli):
        buc = res["bucket"]
        ck.expect(buc["retained"] + buc["evicted"] == buc["scores"] == n,
                  f"buckets hold {buc['retained']} + {buc['evicted']} of {n} scores")
        for b in buc["result"].buckets:
            cap = math.ceil(SKEW_SHARE * b.size)
            worst = max(b.task_histogram.values(), default=0)
            ck.expect(worst <= cap, f"bucket {b.index}: a task holds {worst} > cap {cap}")
        for name in ("schedule", "schedule-staged"):
            sizes = res[name]["phase_sizes"]
            ck.expect(sizes == [n // 50] * PHASES,
                      f"{name} phase sizes {sizes} != budget {n // 50}")

    def describe(self, n, res, cmds):
        result = res["bucket"]["result"]
        evicted = Counter(r.bucket_index for r in result.overflow)
        dominant_before = Counter(r.bucket_index for r in result.overflow if r.task == DOMINANT)
        return {
            "dominant_task_share_in": [
                (b.task_histogram.get(DOMINANT, 0) + dominant_before[b.index])
                / (b.size + evicted[b.index]) for b in result.buckets],
            "dominant_task_share_out": [b.task_histogram.get(DOMINANT, 0) / b.size
                                        for b in result.buckets],
            "evicted_share": len(result.overflow) / n,
        }


SAMPLES = 3
WARM_PASSES = 3
TEACHER = "bench-teacher"


class HarvestMock(Workload):
    """`stepladder harvest` against MockTeacher served from this process.

    Each pass runs the command with an empty cache, then three times more
    with the cache it wrote.  With one cold and three warm times per pass,
    the nearest-rank p50 is the median warm command and p90 the cold one.
    """

    name = "harvest-mock"

    def __init__(self):
        self.mock: Optional[MockTeacher] = None

    def start(self):
        os.environ[API_KEY_ENV] = "bench-key"  # read by in-process harvest() calls
        self.mock = MockTeacher().start()

    def stop(self):
        if self.mock is not None:
            self.mock.stop()

    def sizes(self):
        return 200, 2000

    def records(self, n):
        return n * SAMPLES

    def setup(self, inp, n, seed):
        examples, _ = build_demo_corpus(n, seed)
        # Distinct prompts, so every unit is its own request.
        write_corpus([Example(id=ex.id, task=ex.task, prompt=f"{ex.prompt} [case {ex.id}]",
                              external_difficulty=ex.external_difficulty)
                      for ex in examples], inp / "examples.jsonl")

    def _job(self, cache: Path, url: str, **kw) -> HarvestJob:
        teacher = TeacherProfile(teacher_id=TEACHER, endpoint_url=url, model_name=TEACHER,
                                 template_id=DEFAULT_TEMPLATE.template_id,
                                 samples_per_example=SAMPLES)
        return HarvestJob(teacher=teacher, cache_dir=str(cache), rate_limit=1e6,
                          max_in_flight=_in_flight(), api_key_env=API_KEY_ENV, **kw)

    def stages(self, inp, n, seed, cli):
        corpus = inp / "examples.jsonl"
        url = self.mock.base_url

        def argv(out):
            return ["harvest", "--corpus", str(corpus), "--endpoint", url, "--model", TEACHER,
                    "--teacher-id", TEACHER, "--samples", str(SAMPLES),
                    "--rate-limit", "1000000", "--max-in-flight", str(_in_flight()),
                    "--api-key-env", API_KEY_ENV, "--cache-dir", "cache", "--out", out]

        def stage(name, out, cold, checked=True):
            def replay(tr, d):
                cache = d / "cache"
                if cold:
                    shutil.rmtree(cache, ignore_errors=True)
                elif not cache.is_dir():
                    cache = cli / "cache"  # untraced runs skip the cold replay
                with tr.span("corpus.read"):
                    examples = read_corpus(corpus)
                with tr.span("harvester") as counts:
                    result = harvest(examples, self._job(cache, url))
                counts["requests"] = result.requests_sent
                counts["cache_hits"] = result.cache_hits
                _write(tr, write_traces, result.traces, d / out)
                return {"traces": len(result.traces), "failures": len(result.failures),
                        "requests": result.requests_sent, "cache_hits": result.cache_hits,
                        "trace_objs": result.traces,
                        "digests": _digests(tr, corpus)}

            return Stage(name, argv(out), (out,), replay,
                         before=(lambda d: shutil.rmtree(d / "cache", ignore_errors=True))
                         if cold else None,
                         units=n * SAMPLES, checked_untraced=checked and not cold)

        # Untraced runs replay only the first warm pass; check compares the
        # other passes' outputs with the cold one.
        return [stage("cold", "traces-cold.jsonl", True)] + [
            stage(f"warm-{i}", f"traces-warm-{i}.jsonl", False, checked=i == 1)
            for i in range(1, WARM_PASSES + 1)]

    def check(self, ck, n, res, cmds, cli):
        units = n * SAMPLES
        for cmd in cmds:
            sent, hits = _harvest_counts(cmd.stdout)
            want = (units, 0) if cmd.stage == "cold" else (0, units)
            ck.expect((sent, hits) == want,
                      f"{cmd.stage} pass sent {sent} requests with {hits} cache hits, "
                      f"expected {want[0]} and {want[1]}")
        for i in range(1, WARM_PASSES + 1):
            ck.same_files(cli / "traces-cold.jsonl", cli / f"traces-warm-{i}.jsonl",
                          f"cold vs warm pass {i}")
        warm = res["warm-1"]
        ck.expect(warm["traces"] + warm["failures"] == units,
                  f"{warm['traces']} traces + {warm['failures']} failures != {units} units")
        ck.expect(warm["cache_hits"] == units and warm["requests"] == 0,
                  f"in-process warm pass: {warm['cache_hits']} hits, {warm['requests']} requests")
        if "cold" in res:
            cold = res["cold"]
            ck.expect(cold["requests"] == units and cold["cache_hits"] == 0,
                      f"in-process cold pass: {cold['requests']} requests for {units} units")

    def describe(self, n, res, cmds):
        units = n * SAMPLES
        def rate(cold):
            return units / median([c.wall_s for c in cmds if (c.stage == "cold") == cold])

        return {"warm_cache_hit_share": res["warm-1"]["cache_hits"] / units,
                "harvest_cold_units_per_s": rate(True),
                "harvest_warm_units_per_s": rate(False)}

    def probe(self, tr, work, inp, res):
        # harvest() segments each text inside the harvester span; to time the
        # segmenter on its own, the harvested texts are segmented again.
        traces = res["warm-1"]["trace_objs"]
        with tr.span("segmenter") as counts:
            for t in traces:
                trace_from_text(t.example_id, t.teacher_id, t.raw_text)
        counts["traces"] = len(traces)
        # Retries are counted on their own, against a mock that fails the
        # first attempt for a fifth of the requests, with no backoff sleep.
        examples = read_corpus(inp / "examples.jsonl")[:200]
        cache = work / "retry-cache"
        shutil.rmtree(cache, ignore_errors=True)
        with MockTeacher(failure_percent=20) as flaky:
            with tr.span("harvester.retry_probe") as counts:
                result = harvest(examples, self._job(cache, flaky.base_url, backoff_base=0.0))
        units = len(examples) * SAMPLES
        counts["retries"] = result.requests_sent - (units - result.cache_hits)
        counts["retry_requests"] = result.requests_sent
        counts["retry_traces"] = len(result.traces)


def _in_flight() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def _harvest_counts(stdout: str) -> tuple[int, int]:
    """(requests sent, cache hits) from the harvest summary line."""
    for line in stdout.splitlines():
        if line.startswith("harvested "):
            words = line.replace(",", "").split()
            return int(words[6]), int(words[3])
    return -1, -1


WORKLOADS = {w.name: w for w in (Pipeline, TaskSkew, HarvestMock, SmallBatch)}
