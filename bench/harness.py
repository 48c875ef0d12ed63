"""Measurement plumbing shared by the workloads.

Child processes run the public CLI exactly as the installed `stepladder`
script does, against the package source in this checkout.  Each child is
reaped with os.wait4 so its own peak RSS is known; RUSAGE_CHILDREN would
keep a running maximum and charge every later command with the largest
earlier one.  Linux also starts a child's peak RSS at its parent's, so the
commands are started by a small launcher process (this file run as a
script) rather than by the benchmark, which holds generated inputs.

Spans are recorded only here, around calls the benchmark makes into the
library, never inside the program.  They stay in memory and are written
out with the result when the run ends.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Mirrors the `stepladder` console script: `from stepladder.cli import main`.
_ENTRY = "import sys; from stepladder.cli import main; sys.exit(main())"

API_KEY_ENV = "STEPLADDER_BENCH_KEY"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env[API_KEY_ENV] = "bench-key"
    return env


@dataclass
class Cmd:
    """One CLI invocation as a child process."""

    stage: str
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def _spawn(argv: list[str], cwd: Path) -> dict:
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", _ENTRY, *argv], cwd=cwd,
                                env=child_env(), stdout=out, stderr=err)
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode,
            "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
            "stderr": err_path.read_text(encoding="utf-8", errors="replace")}


class Launcher:
    """Runs CLI commands from a separate small process, one at a time."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def run(self, stage: str, argv: list[str], cwd: Path) -> Cmd:
        self._proc.stdin.write(json.dumps({"argv": argv, "cwd": str(cwd)}) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher process ended")
        return Cmd(stage, **json.loads(reply))

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


def import_ms(module: str = "stepladder.cli") -> float:
    """Cumulative import time of `module` in a fresh interpreter, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", f"import {module}"],
                          env=child_env(), capture_output=True, text=True, check=True)
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == module:
            return int(parts[1]) / 1000.0
    raise RuntimeError(f"no import time reported for {module}")


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def median(values) -> float:
    return percentile(values, 50)


def slope(n_small: int, t_small: float, n_big: int, t_big: float) -> float:
    """Log-log scaling exponent between two sizes; 1.0 is linear."""
    if t_small <= 0 or t_big <= 0:
        return 0.0
    return math.log(t_big / t_small) / math.log(n_big / n_small)


def file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Checks:
    """Output checks; each one is an attempted operation, each miss a failed one."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def same_files(self, a: Path, b: Path, what: str) -> bool:
        ok = a.is_file() and b.is_file() and file_digest(a) == file_digest(b)
        return self.expect(ok, f"{what}: {a.name} differs from {b}")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    trace: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans: name, start, end, parent, and the trace they belong to.

    A disabled tracer records nothing, so the same replay code runs
    traced and untraced and the difference is the tracing overhead.
    """

    def __init__(self, trace: str, enabled: bool = True):
        self.trace = trace
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield {}
            return
        rec = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                   self.trace, time.perf_counter())
        self.spans.append(rec)
        self._stack.append(rec.id)
        try:
            yield rec.counts
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum((s.seconds for s in self.spans if s.name == name), 0.0)

    def count(self, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in self.spans)

    def self_time(self, span: Span) -> float:
        children = sum(s.seconds for s in self.spans if s.parent == span.id)
        return span.seconds - children

    def dump(self) -> list[dict]:
        return [{"id": s.id, "name": s.name, "parent": s.parent, "trace": s.trace,
                 "start": s.start, "end": s.end, "self_s": self.self_time(s),
                 **({"counts": s.counts} if s.counts else {})}
                for s in self.spans]


if __name__ == "__main__":
    for request in sys.stdin:
        job = json.loads(request)
        print(json.dumps(_spawn(job["argv"], Path(job["cwd"]))), flush=True)
