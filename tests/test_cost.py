"""A deterministic cost guard: Python calls per record for each batch
command.

Each command runs in-process through cli.main under cProfile on
build_demo_corpus(n, 11), at n = 1000 and at n = 4000.  Its marginal
count, (calls(4000) - calls(1000)) / 3000, strips what a run costs once
(argument parsing, sidecars), and it does not move with the host's
speed the way a wall time does.  One more Python call per record moves
it by 1, so each command's count must stay within 0.5 of the committed
value in CALLS_PER_RECORD.  A change that means to move a count commits
the new value and says so in CHANGES.md.

Every command first runs once, unprofiled, on a small corpus, so that a
first import or a first compile of a regular expression counts at
neither size, whichever tests ran before in this process.

cProfile counts calls of Python functions and of the builtins that
Python code calls.  Work inside C, such as a regex scan or the json
scanner, is invisible to it, so these counts complement wall times and
do not replace them.
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import pstats
from pathlib import Path

from stepladder.cli import main
from stepladder.corpus import write_completions, write_corpus
from stepladder.synthetic import build_demo_corpus

SIZES = (1000, 4000)
WARM_UP = 100
BOUND = 0.5

CALLS_PER_RECORD = {
    "segment": 64.96,
    "score": 56.64,
    "bucket": 65.01,
    "schedule": 8.57,
    "filter --min-k 4": 27.71,
    "baseline --kind token_length": 52.01,
    "analyze confound": 68.02,
    "analyze agreement": 67.01,
}

# Each command's argv, in run order: a command reads what an earlier one
# wrote.  "{budget}" stands for n / 4.
ARGV = {
    "segment": ["segment", "--completions", "completions.jsonl", "--out", "traces.jsonl"],
    "score": ["score", "--traces", "traces.jsonl", "--out", "scores.jsonl"],
    "bucket": ["bucket", "--scores", "scores.jsonl", "--corpus", "examples.jsonl",
               "--out", "buckets.jsonl"],
    "schedule": ["schedule", "--buckets", "buckets.jsonl", "--phases", "3",
                 "--budget", "{budget}", "--out", "manifest.jsonl"],
    "filter --min-k 4": ["filter", "--scores", "scores.jsonl", "--min-k", "4",
                         "--out", "ids.txt"],
    "baseline --kind token_length": ["baseline", "--corpus", "examples.jsonl", "--scores",
                                     "scores.jsonl", "--kind", "token_length", "--phases", "3",
                                     "--budget", "{budget}", "--out", "baseline.jsonl"],
    "analyze confound": ["analyze", "confound", "--scores", "scores.jsonl",
                         "--labels-from", "examples.jsonl", "--out", "confound.json"],
    "analyze agreement": ["analyze", "agreement", "--scores", "scores.jsonl",
                          "--scores", "other.jsonl", "--out", "agreement.json"],
}


def _calls(root: Path, n: int, profile: bool) -> dict:
    """Each command's Python call count on build_demo_corpus(n, 11), run
    in root."""
    examples, completions = build_demo_corpus(n, 11)
    write_corpus(examples, root / "examples.jsonl")
    write_completions(completions, root / "completions.jsonl")
    calls = {}
    with contextlib.chdir(root), contextlib.redirect_stdout(io.StringIO()):
        for name, argv in ARGV.items():
            argv = [str(n // 4) if arg == "{budget}" else arg for arg in argv]
            profiler = cProfile.Profile() if profile else None
            code = profiler.runcall(main, argv) if profile else main(argv)
            assert code == 0, name
            calls[name] = pstats.Stats(profiler).total_calls if profile else 0
            if name == "score":  # the same scores under a second teacher id
                text = (root / "scores.jsonl").read_text(encoding="utf-8")
                (root / "other.jsonl").write_text(
                    text.replace('"teacher_id": "demo-teacher"', '"teacher_id": "other"'),
                    encoding="utf-8")
    return calls


def test_calls_per_record_hold_still(tmp_path):
    _calls(tmp_path, WARM_UP, profile=False)
    small, large = (_calls(tmp_path, n, profile=True) for n in SIZES)
    marginal = {name: round((large[name] - small[name]) / (SIZES[1] - SIZES[0]), 2)
                for name in ARGV}
    for name, committed in CALLS_PER_RECORD.items():
        assert abs(marginal[name] - committed) <= BOUND, (name, marginal)
