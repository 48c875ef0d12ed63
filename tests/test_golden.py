"""The golden run set: every subcommand on data/synthetic/, digested.

tests/data/golden.json holds, for each run, its argv, its exit code and
the sha256 of its stdout, its stderr and each output file and sidecar
that its argv names (null for one the run did not write).  A change to
any byte a command prints or writes fails test_golden_run_set.  A change
that means to make one regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

which prints each entry that changed; CHANGES.md then names each changed
entry and why.

The runs go in-process, in one directory that is also the working
directory, through relative paths: a sidecar keys each input by the path
as given, so an absolute path would change its digest.  The harvests
run against a MockTeacher on a random port, which the harvest sidecar
records as --endpoint; "{url}" stands for it in the argv, and the
endpoint is put back to "{url}" in every file before it is digested.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import stepladder
from stepladder.cli import COMMANDS, OUTPUT, main
from stepladder.mockteacher import MockTeacher

from test_cli import _harvest_env

BUNDLED = Path(__file__).parent.parent / "data" / "synthetic"
GOLDEN = Path(__file__).parent / "data" / "golden.json"

# What a run reads besides its predecessors' outputs: the bundled files,
# the corpus prefix the harvests use, and a schedule config file.
PREFIX_LINES = 8
CONFIG = "mode = mixed\nalpha = 0.5\nphases = 2\nbudget_per_phase = 30\nseed = 11\n"

_HARVEST = ["harvest", "--corpus", "prefix.jsonl", "--endpoint", "{url}", "--model", "m",
            "--teacher-id", "mock-teacher", "--samples", "2", "--max-in-flight", "1",
            "--rate-limit", "1000", "--cache-dir", "cache"]
_BASELINE = ["baseline", "--corpus", "examples.jsonl", "--phases", "4", "--budget", "25"]
_CONFOUND = ["analyze", "confound", "--scores", "scores.jsonl", "--labels-from",
             "examples.jsonl"]
_AGREEMENT = ["analyze", "agreement", "--scores", "scores.jsonl", "--scores",
              "mock-scores.jsonl"]

# name -> argv, in run order: a run may read what an earlier one wrote.
RUNS = {
    "segment-audit": ["segment", "--completions", "completions.jsonl", "--out", "traces.jsonl",
                      "--audit-fraction", "0.1", "--audit-seed", "3",
                      "--audit-out", "audit.jsonl"],
    "segment-no-fallback": ["segment", "--completions", "completions.jsonl",
                            "--no-paragraph-fallback", "--out", "strict.jsonl"],  # exit 2
    "score": ["score", "--traces", "traces.jsonl", "--out", "scores.jsonl"],
    "bucket-capped": ["bucket", "--scores", "scores.jsonl", "--corpus", "examples.jsonl",
                      "--max-task-share", "0.26", "--out", "capped.jsonl",
                      "--report", "capped.txt"],
    "bucket-teacher": ["bucket", "--scores", "scores.jsonl", "--corpus", "examples.jsonl",
                       "--teacher", "demo-teacher", "--edges", "1-2,3-4,5+",
                       "--out", "buckets.jsonl"],
    "schedule-staged": ["schedule", "--buckets", "buckets.jsonl", "--phases", "3",
                        "--budget", "40", "--out", "staged.jsonl"],
    "schedule-mixed": ["schedule", "--buckets", "buckets.jsonl", "--mode", "mixed",
                       "--alpha", "1.0", "--mixing", "adjacent", "--phases", "3",
                       "--budget", "40", "--seed", "7", "--out", "mixed.jsonl"],
    "schedule-with-replacement": ["schedule", "--buckets", "capped.jsonl", "--phases", "3",
                                  "--budget", "60", "--with-replacement",
                                  "--out", "replaced.jsonl"],
    "schedule-config": ["schedule", "--config", "schedule.cfg", "--buckets", "capped.jsonl",
                        "--out", "configured.jsonl"],
    "baseline-random": [*_BASELINE, "--kind", "random", "--seed", "5",
                        "--out", "random.jsonl"],
    "baseline-token-length": [*_BASELINE, "--kind", "token_length", "--scores", "scores.jsonl",
                              "--out", "token-length.jsonl"],
    "baseline-judge-score": [*_BASELINE, "--kind", "judge_score", "--out", "judge.jsonl"],
    "harvest-cold": [*_HARVEST, "--out", "harvest-cold.jsonl"],
    "harvest-warm": [*_HARVEST, "--out", "harvest-warm.jsonl"],
    "score-harvest": ["score", "--traces", "harvest-cold.jsonl", "--out", "mock-scores.jsonl"],
    "agreement-pass": [*_AGREEMENT, "--min-tau", "-1", "--out", "agreement.json"],
    "agreement-fail": [*_AGREEMENT, "--min-tau", "1", "--out", "agreement-failed.json"],
    "confound-pass": [*_CONFOUND, "--min-spearman", "0", "--out", "confound.json"],
    "confound-fail": [*_CONFOUND, "--label-field", "judge_score", "--min-spearman", "0.999",
                      "--out", "confound-failed.json"],
    "filter": ["filter", "--scores", "scores.jsonl", "--min-k", "3", "--max-k", "5",
               "--out", "ids.txt"],
}

# The runs repeated in a subprocess under another hash seed: every batch
# command, none that needs the MockTeacher.
REPLAYED = ("segment-audit", "score", "bucket-capped", "bucket-teacher", "schedule-mixed",
            "baseline-token-length", "confound-pass", "filter")


def _command(argv) -> str:
    """The COMMANDS key that argv runs."""
    return " ".join(argv[:2]) if argv[0] == "analyze" else argv[0]


def _outputs(argv) -> list:
    """The paths argv gives to its command's OUTPUT options."""
    flags = {opt.flag for opt in COMMANDS[_command(argv)][2] if opt.kind == OUTPUT}
    return [argv[i + 1] for i, arg in enumerate(argv[:-1]) if arg in flags]


def _sha256(data: bytes, url: str) -> str:
    return hashlib.sha256(data.replace(url.encode(), b"{url}")).hexdigest()


def _entry(argv, code, stdout: bytes, stderr: bytes, url: str) -> dict:
    """One run's record, read from the working directory."""
    files = {}
    for out in _outputs(argv):
        for path in (Path(out), Path(f"{out}.meta.json")):
            files[str(path)] = _sha256(path.read_bytes(), url) if path.exists() else None
    return {"argv": argv, "exit": code, "stdout": _sha256(stdout, url),
            "stderr": _sha256(stderr, url), "files": files}


def stage(root: Path) -> None:
    """The input files the run set starts from, written into root."""
    for name in ("examples.jsonl", "completions.jsonl"):
        (root / name).write_bytes((BUNDLED / name).read_bytes())
    lines = (BUNDLED / "examples.jsonl").read_bytes().splitlines(keepends=True)
    (root / "prefix.jsonl").write_bytes(b"".join(lines[:PREFIX_LINES]))
    (root / "schedule.cfg").write_text(CONFIG, encoding="utf-8")


def run_set(url: str) -> dict:
    """Every run of RUNS in the working directory, which stage() filled."""
    entries = {}
    for name, argv in RUNS.items():
        argv_given = [url if arg == "{url}" else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv_given)
        entries[name] = _entry(argv, code, out.getvalue().encode(), err.getvalue().encode(),
                               url)
    return entries


def test_golden_run_set(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    stage(tmp_path)
    monkeypatch.chdir(tmp_path)
    with _harvest_env(), MockTeacher() as mock:
        entries = run_set(mock.base_url)
    assert list(entries) == list(golden)
    for name, entry in entries.items():
        assert entry == golden[name], name


def _env(**extra) -> dict:
    """The environment for a subprocess that imports this stepladder."""
    src = str(Path(stepladder.__file__).resolve().parent.parent)
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_golden_runs_repeat_under_another_hash_seed(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    stage(tmp_path)
    env = _env(PYTHONHASHSEED="4242")
    for name in REPLAYED:
        argv = RUNS[name]
        done = subprocess.run([sys.executable, "-m", "stepladder.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, timeout=60)
        with contextlib.chdir(tmp_path):
            entry = _entry(argv, done.returncode, done.stdout, done.stderr, "{url}")
        assert entry == golden[name], name


def test_bundled_data_regenerates_byte_for_byte(tmp_path):
    # The run set rests on data/synthetic/, which README says is made by
    # exactly this command.
    done = subprocess.run([sys.executable, "-m", "stepladder.synthetic", "--out-dir",
                           str(tmp_path), "--n", "500", "--seed", "7"],
                          env=_env(), capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr
    for name in ("examples.jsonl", "completions.jsonl"):
        assert (tmp_path / name).read_bytes() == (BUNDLED / name).read_bytes(), name


def test_run_set_covers_every_output_of_every_command():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    written = {(_command(entry["argv"]), arg)
               for entry in golden.values() if entry["exit"] in (0, 2)
               for arg in entry["argv"]}
    every = {(name, opt.flag) for name, (_help, _run, options) in COMMANDS.items()
             for opt in options if opt.kind == OUTPUT}
    assert every - written == set()


def main_regenerate() -> None:
    """Rewrite golden.json from the code as it is; print what changed."""
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        stage(Path(tmp))
        with _harvest_env(), MockTeacher() as mock:
            entries = run_set(mock.base_url)
    GOLDEN.write_text(json.dumps(entries, indent=2) + "\n", encoding="utf-8")
    for name in sorted(set(old) | set(entries)):
        if old.get(name) != entries.get(name):
            print(f"changed: {name}")


if __name__ == "__main__":
    main_regenerate()
