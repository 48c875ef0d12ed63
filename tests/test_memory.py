"""Memory guards: each batch stage, run in-process through cli.main on
5000 demo examples, stays under a tracemalloc peak bound.

Every stage after segment streams its inputs into the one mapping its
output needs, so its peak grows with what it keeps per example, not
with whole records.  Measured on CPython 3.11, peaks in MB, with the
stages' former whole-record readers first:

    segment --audit-fraction 0.1   7.24 -> 0.20
    score                          2.68 -> 1.04
    bucket                         3.95 -> 2.16
    baseline (token_length)        3.73 -> 1.64
    analyze confound               3.95 -> 1.66

Each bound sits below the former peak, with at least 1.5x headroom over
the streamed one.  No bound is on wall time.

A record is a slotted object with no per-instance dict.  Held 1e4 at a
time in a list, with a score's dot_norm float, measured on CPython
3.11 in bytes per record, as a frozen dataclass and as a slotted class:

    DoTScore                       160 -> 112
    Trace                          145 -> 97

Each bound sits between the two.
"""

from __future__ import annotations

import contextlib
import io
import math
import tracemalloc

import pytest

# The stage modules load before tracing starts, so that no bound counts
# an import.
import stepladder.analyzer  # noqa: F401
import stepladder.bucketer  # noqa: F401
import stepladder.scheduler  # noqa: F401
import stepladder.scorer  # noqa: F401
import stepladder.segmenter  # noqa: F401
from stepladder.cli import main
from stepladder.corpus import DoTScore, Trace, write_completions, write_corpus
from stepladder.synthetic import build_demo_corpus

MB = 2 ** 20

# (argv, peak bound in MB); {name} is a file of the staged corpus.
GUARDS = {
    "audit": (["segment", "--completions", "{completions}", "--out", "{out}",
               "--audit-fraction", "0.1", "--audit-out", "{out}.audit"], 1.0),
    "score": (["score", "--traces", "{traces}", "--out", "{out}"], 2.0),
    "bucket": (["bucket", "--scores", "{scores}", "--corpus", "{examples}",
                "--out", "{out}"], 3.4),
    "baseline": (["baseline", "--corpus", "{examples}", "--scores", "{scores}",
                  "--kind", "token_length", "--phases", "3", "--budget", "100",
                  "--out", "{out}"], 3.0),
    "confound": (["analyze", "confound", "--scores", "{scores}",
                  "--labels-from", "{examples}"], 3.0),
}


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    root = tmp_path_factory.mktemp("memory")
    examples, completions = build_demo_corpus(5000, 11)
    files = {name: str(root / f"{name}.jsonl")
             for name in ("examples", "completions", "traces", "scores")}
    write_corpus(examples, files["examples"])
    write_completions(completions, files["completions"])
    assert _quiet_main(["segment", "--completions", files["completions"],
                        "--out", files["traces"]]) == 0
    assert _quiet_main(["score", "--traces", files["traces"], "--out", files["scores"]]) == 0
    return {**files, "out": str(root / "out")}


@pytest.mark.parametrize("stage", sorted(GUARDS))
def test_stage_peak_memory_is_bounded(staged, stage):
    argv, bound = GUARDS[stage]
    argv = [arg.format(**staged) for arg in argv]
    tracemalloc.start()
    try:
        assert _quiet_main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * MB, f"{stage}: peak {peak / MB:.2f} MB over {bound} MB"


# record -> (how one is built from its example id, bound in bytes per record)
RECORDS = {
    "DoTScore": (lambda ex_id: DoTScore(ex_id, "t", 2, 9, 2 / math.log1p(9)), 136),
    "Trace": (lambda ex_id: Trace(ex_id, "t", "raw", ("one", "two"), 4, "numbered", "high"),
              120),
}


@pytest.mark.parametrize("record", sorted(RECORDS))
def test_held_record_size_is_bounded(record):
    build, bound = RECORDS[record]
    ids = [f"ex{i:05d}" for i in range(10_000)]  # made before tracing starts
    tracemalloc.start()
    try:
        held = [build(ex_id) for ex_id in ids]
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(held) == len(ids)
    assert size <= bound * len(ids), f"{record}: {size / len(ids):.0f} B over {bound} B"
