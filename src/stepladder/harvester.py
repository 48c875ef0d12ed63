"""Collect reasoning traces from an OpenAI-compatible chat endpoint.

Every (example, sample) unit resolves to exactly one trace or one
recorded failure, so a harvest is always accountable: traces + failures
equals examples times samples_per_example.  Responses are cached on disk
in one append-only log keyed by request content, cache hits bypass the
network and the worker pool entirely, and live requests are paced by a
shared token bucket and retried with exponential backoff on transient
errors.  Each worker thread keeps one HTTP connection to the endpoint
alive across its requests.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from .corpus import Example, Record, TeacherProfile, Trace
from .errors import HarvestError
from .segmenter import DEFAULT_RULES, SegmentationRules, trace_from_text

_PLACEHOLDER = "{prompt}"


@dataclass(frozen=True)
class PromptTemplate:
    """System and user messages sent for each example.

    user_text must contain the literal placeholder "{prompt}" exactly
    once; it is replaced in a single pass, so braces inside the example
    prompt itself are inert.
    """

    template_id: str
    system_text: str
    user_text: str

    def __post_init__(self):
        if not self.template_id:
            raise HarvestError("template_id must be nonempty")
        if not self.system_text.strip() or not self.user_text.strip():
            raise HarvestError("template system and user texts must be nonempty")
        count = self.user_text.count(_PLACEHOLDER)
        if count != 1:
            raise HarvestError(
                f"user_text must contain {_PLACEHOLDER!r} exactly once, found {count}"
            )

    def render(self, prompt: str) -> tuple[str, str]:
        return self.system_text, self.user_text.replace(_PLACEHOLDER, prompt, 1)


TEMPLATE = Record((("template_id", str, False), ("system_text", str, False),
                   ("user_text", str, False)), PromptTemplate)


DEFAULT_TEMPLATE = PromptTemplate(
    template_id="numbered-steps-v1",
    system_text="You are a careful assistant that reasons before answering.",
    user_text=(
        "Solve the problem below. Write your reasoning as a numbered list, "
        "one step per line, then state the final answer on its own line.\n\n"
        "{prompt}"
    ),
)


@dataclass(frozen=True)
class HarvestJob:
    """Everything a harvest run needs besides the examples themselves."""

    teacher: TeacherProfile
    cache_dir: str
    rate_limit: float
    template: PromptTemplate = DEFAULT_TEMPLATE
    max_retries: int = 3
    timeout: float = 30.0
    backoff_base: float = 0.5
    max_in_flight: int = 4
    api_key_env: str = "OPENAI_API_KEY"
    rules: SegmentationRules = DEFAULT_RULES

    def __post_init__(self):
        if not self.rate_limit > 0:
            raise HarvestError("rate_limit must be > 0 requests per second")
        if self.max_retries < 0:
            raise HarvestError("max_retries must be >= 0")
        if self.max_in_flight < 1:
            raise HarvestError("max_in_flight must be >= 1")
        if not (self.backoff_base >= 0 and self.timeout > 0):
            raise HarvestError("backoff_base must be >= 0 and timeout > 0")


@dataclass(frozen=True)
class HarvestFailure:
    example_id: str
    sample_index: int
    reason: str


@dataclass
class HarvestResult:
    """Traces plus an account of everything that did not become one."""

    traces: list[Trace] = field(default_factory=list)
    failures: list[HarvestFailure] = field(default_factory=list)
    requests_sent: int = 0
    cache_hits: int = 0
    grant_times: list[float] = field(default_factory=list)


class _RateLimiter:
    """Token bucket with capacity one: grants are spaced >= 1/rate apart.

    Grant timestamps are recorded for audit; the schedule is computed
    under a lock so concurrent workers and retries share one budget.
    """

    def __init__(self, rate: float):
        self.interval = 1.0 / rate
        self._lock = threading.Lock()
        self._next_free = 0.0
        self.grants: list[float] = []

    def acquire(self) -> None:
        with self._lock:
            now = time.monotonic()
            grant = max(now, self._next_free)
            self._next_free = grant + self.interval
            self.grants.append(grant)
            wait = grant - now
        if wait > 0:
            time.sleep(wait)


def _cache_key(job: HarvestJob, system_text: str, user_text: str,
               sample_index: int) -> str:
    payload = json.dumps(
        [job.teacher.model_name, job.template.template_id, system_text,
         user_text, sample_index, float(job.teacher.temperature),
         job.teacher.endpoint_url.rstrip("/")],
        ensure_ascii=True,
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


class _ResponseLog:
    """The response cache: one append-only file of {"key", "text"} lines.

    Opening scans the file once into an index of key -> (offset, length);
    texts stay on disk until looked up.  A line that does not parse, whose
    "key" is not the key it was indexed under, or whose "text" is not a
    string is a plain miss.  When a key has several lines, the last one
    wins.  Each entry is appended with one write() on an O_APPEND
    descriptor, so concurrent harvests sharing the file never interleave
    their lines.
    """

    _PREFIX = b'{"key": "'

    def __init__(self, path: Path):
        self._fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        self._lock = threading.Lock()
        self._index: dict[str, tuple[int, int]] = {}
        offset, line = 0, b"\n"
        try:
            with open(self._fd, "rb", closefd=False) as fh:
                for line in fh:
                    end = line.find(b'"', len(self._PREFIX))
                    if line.startswith(self._PREFIX) and end > 0 and line.endswith(b"\n"):
                        key = line[len(self._PREFIX):end].decode("latin-1")
                        self._index[key] = (offset, len(line))
                    offset += len(line)
        except BaseException:
            os.close(self._fd)
            raise
        # A torn last entry (a crash mid-write) gets a newline before the
        # next append, so it stays a miss and the new line stays parseable.
        self._torn = not line.endswith(b"\n")

    def get(self, key: str) -> Optional[str]:
        """The cached text for key, or None on a miss."""
        where = self._index.get(key)
        if where is None:
            return None
        try:
            obj = json.loads(os.pread(self._fd, where[1], where[0]))
        except ValueError:
            return None
        if type(obj) is not dict or obj.get("key") != key:
            return None
        text = obj.get("text")
        return text if isinstance(text, str) else None

    def put(self, key: str, text: str) -> None:
        entry = (json.dumps({"key": key, "text": text}, ensure_ascii=False)
                 + "\n").encode("utf-8")
        with self._lock:
            line = b"\n" + entry if self._torn else entry
            # Only a full disk writes part of a line; the next append then
            # starts on a fresh line.
            self._torn = os.write(self._fd, line) < len(line)
            if not self._torn:
                end = os.lseek(self._fd, 0, os.SEEK_CUR)
                self._index[key] = (end - len(entry), len(entry))

    def close(self) -> None:
        os.close(self._fd)


def _segment(job: HarvestJob, example: Example, sample_index: int, text: str,
             hit: bool) -> tuple[Optional[Trace], Optional[HarvestFailure], bool]:
    try:
        trace = trace_from_text(example.id, job.teacher.teacher_id, text, job.rules)
    except Exception as exc:
        return None, HarvestFailure(
            example.id, sample_index, f"segmentation failed: {exc}"
        ), hit
    return trace, None, hit


def _fetch_misses(job: HarvestJob, api_key: str, log: _ResponseLog,
                  limiter: _RateLimiter, misses: list, outcomes: list) -> None:
    """Fetch, cache and segment each (position, example, sample index)
    miss, storing its outcome at its position in outcomes.

    max_in_flight workers take the misses in turn.  No future is queued
    per unit, and a worker renders and keys each unit only when it takes
    it, so nothing is held for a miss still waiting its turn.
    """
    # Imported here, not at the top: http.client and ssl add about 30 ms
    # to the start-up of every other subcommand and of all-hit harvests.
    from .chatclient import ChatClient, fetch

    client = ChatClient(job.teacher.endpoint_url, api_key, job.timeout)
    pending = iter(misses)
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                miss = next(pending, None)
            if miss is None:
                return
            position, example, sample_index = miss
            system_text, user_text = job.template.render(example.prompt)
            key = _cache_key(job, system_text, user_text, sample_index)
            # An earlier unit sending the same request may have cached it.
            text = log.get(key)
            hit = text is not None
            if not hit:
                try:
                    text = fetch(client, job, system_text, user_text, limiter)
                except HarvestError as exc:
                    outcomes[position] = (
                        None, HarvestFailure(example.id, sample_index, str(exc)), False)
                    continue
                log.put(key, text)
            outcomes[position] = _segment(job, example, sample_index, text, hit)

    try:
        with ThreadPoolExecutor(max_workers=job.max_in_flight) as pool:
            workers = [pool.submit(work)
                       for _ in range(min(job.max_in_flight, len(misses)))]
            for worker in workers:
                worker.result()
    finally:
        client.close()


def harvest(examples: Iterable[Example], job: HarvestJob) -> HarvestResult:
    """Fetch, cache and segment traces for every example.

    Cache hits are looked up and segmented on the calling thread; only
    misses go to a bounded worker pool, so an all-hit run starts no
    threads and opens no connection.  Results come back in (example,
    sample) order regardless of completion order.  Per-unit errors become
    HarvestFailure records instead of aborting the run.
    """
    api_key = os.environ.get(job.api_key_env)
    if not api_key:
        raise HarvestError(
            f"environment variable {job.api_key_env} is not set; "
            "the endpoint needs an API key"
        )
    cache_dir = Path(job.cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    limiter = _RateLimiter(job.rate_limit)
    outcomes = []
    misses = []  # (position in outcomes, example, sample index)

    log = _ResponseLog(cache_dir / "responses.jsonl")
    try:
        for example in examples:
            system_text, user_text = job.template.render(example.prompt)
            for s in range(job.teacher.samples_per_example):
                text = log.get(_cache_key(job, system_text, user_text, s))
                if text is None:
                    misses.append((len(outcomes), example, s))
                    outcomes.append(None)
                else:
                    outcomes.append(_segment(job, example, s, text, True))
        if misses:
            _fetch_misses(job, api_key, log, limiter, misses, outcomes)
    finally:
        log.close()

    result = HarvestResult()
    for trace, failure, hit in outcomes:
        if trace is not None:
            result.traces.append(trace)
        else:
            result.failures.append(failure)
        result.cache_hits += int(hit)
    # Every limiter grant authorizes exactly one POST, so the grant log
    # doubles as the request count.
    result.requests_sent = len(limiter.grants)
    result.grant_times = list(limiter.grants)
    return result
