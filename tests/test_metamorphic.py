"""Metamorphic properties of the CLI, run in-process through cli.main on
data/synthetic/: a change to an input that must leave an output as it
was."""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import pytest

from stepladder.cli import main
from stepladder.corpus import BASELINE_KINDS, read_completions, read_traces, write_completions
from stepladder.segmenter import SegmentationRules, trace_from_text
from stepladder.synthetic import build_demo_corpus

BUNDLED = Path(__file__).parent.parent / "data" / "synthetic"
EXAMPLES, COMPLETIONS = BUNDLED / "examples.jsonl", BUNDLED / "completions.jsonl"
SUITE = Path(__file__).parent / "data" / "segmenter_suite.jsonl"


def run(*argv, codes=(0,)) -> None:
    code = main(list(map(str, argv)))
    assert code in codes, argv


def _shuffled(src: Path, dest: Path, seed: int) -> Path:
    lines = src.read_bytes().splitlines(keepends=True)
    random.Random(seed).shuffle(lines)
    dest.write_bytes(b"".join(lines))
    return dest


@pytest.fixture(scope="module")
def other_scores(tmp_path_factory) -> Path:
    """A second teacher's scores for the bundled example ids."""
    root = tmp_path_factory.mktemp("other")
    _, completions = build_demo_corpus(n=500, seed=8)
    write_completions([{**c, "teacher_id": "teacher-b"} for c in completions],
                      root / "completions.jsonl")
    run("segment", "--completions", root / "completions.jsonl", "--out", root / "traces.jsonl")
    run("score", "--traces", root / "traces.jsonl", "--out", root / "scores.jsonl")
    return root / "scores.jsonl"


def _products(completions: Path, other: Path, out: Path) -> dict[str, bytes]:
    """Every output whose bytes do not depend on the order of the
    completion lines, by file name; traces.jsonl follows that order, and
    the audit sample is drawn by position."""
    out.mkdir()
    traces, scores, buckets = out / "traces.jsonl", out / "scores.jsonl", out / "buckets.jsonl"
    run("segment", "--completions", completions, "--out", traces)
    run("score", "--traces", traces, "--out", scores)
    run("bucket", "--scores", scores, "--corpus", EXAMPLES, "--max-task-share", "0.3",
        "--out", buckets, "--report", out / "buckets.txt")
    for name, flags in (("staged", ()), ("mixed", ("--mode", "mixed", "--alpha", "1")),
                        ("replacement", ("--mode", "mixed", "--with-replacement"))):
        run("schedule", "--buckets", buckets, "--phases", 3, "--budget", 40, "--seed", 3,
            *flags, "--out", out / f"{name}.jsonl")
    for kind in BASELINE_KINDS:
        run("baseline", "--corpus", EXAMPLES, "--scores", scores, "--kind", kind,
            "--phases", 3, "--budget", 40, "--seed", 3, "--out", out / f"{kind}.jsonl")
    run("filter", "--scores", scores, "--min-k", 4, "--max-k", 8, "--out", out / "filter.txt")
    run("analyze", "agreement", "--scores", scores, "--scores", other,
        "--out", out / "agreement.json")
    run("analyze", "confound", "--scores", scores, "--labels-from", EXAMPLES,
        "--out", out / "confound.json")
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name != "traces.jsonl" and not p.name.endswith(".meta.json")}


def test_permuted_completions_give_the_same_products(tmp_path, capsys, other_scores):
    whole = _products(COMPLETIONS, other_scores, tmp_path / "whole")
    permuted = _shuffled(COMPLETIONS, tmp_path / "permuted.jsonl", seed=1)
    assert permuted.read_bytes() != COMPLETIONS.read_bytes()
    again = _products(permuted, other_scores, tmp_path / "again")
    capsys.readouterr()
    assert len(whole) == 12
    assert again == whole


@pytest.mark.parametrize("split", [1, 137, 250])
def test_segmenting_two_parts_equals_segmenting_the_whole(tmp_path, capsys, split):
    lines = COMPLETIONS.read_bytes().splitlines(keepends=True)
    parts = []
    for i, chunk in enumerate((lines[:split], lines[split:])):
        (tmp_path / f"c{i}.jsonl").write_bytes(b"".join(chunk))
        run("segment", "--completions", tmp_path / f"c{i}.jsonl", "--out", tmp_path / f"t{i}.jsonl")
        parts.append((tmp_path / f"t{i}.jsonl").read_bytes())
    run("segment", "--completions", COMPLETIONS, "--out", tmp_path / "t.jsonl")
    capsys.readouterr()
    assert b"".join(parts) == (tmp_path / "t.jsonl").read_bytes()


def test_written_traces_resegment_to_themselves(tmp_path, capsys):
    # The bundled completions plus the segmenter suite's texts, under a
    # grid of every SegmentationRules knob.
    suite = [json.loads(line) for line in SUITE.read_text(encoding="utf-8").splitlines()]
    source = tmp_path / "completions.jsonl"
    write_completions(read_completions(COMPLETIONS) + [
        {"example_id": case["name"], "teacher_id": "suite", "text": case["text"]}
        for case in suite], source)
    checked = 0
    for min_chars, max_marker, fallback in itertools.product((1, 3, 40), (1, 5, 999),
                                                             (True, False)):
        rules = SegmentationRules(min_step_chars=min_chars, max_marker_value=max_marker,
                                  allow_paragraph_fallback=fallback)
        out = tmp_path / f"t-{min_chars}-{max_marker}-{fallback}.jsonl"
        run("segment", "--completions", source, "--out", out, "--min-step-chars", min_chars,
            "--max-marker-value", max_marker, *(() if fallback else ("--no-paragraph-fallback",)),
            codes=(0, 2))
        for trace in read_traces(out):
            assert trace_from_text(trace.example_id, trace.teacher_id, trace.raw_text,
                                   rules) == trace
            checked += 1
    capsys.readouterr()
    assert checked > 18 * 500
