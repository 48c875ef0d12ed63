"""Collect reasoning traces from an OpenAI-compatible chat endpoint.

Every (example, sample) unit resolves to exactly one trace or one
recorded failure, so a harvest is always accountable: traces + failures
equals examples times samples_per_example.  Responses are cached on disk
keyed by request content, cache hits bypass the network entirely, and
live requests are paced by a shared token bucket and retried with
exponential backoff on transient errors.  Each worker thread keeps one
HTTP connection to the endpoint alive across its requests.
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

from .corpus import Example, Record, TeacherProfile, Trace, write_atomic
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


def _cache_read(cache_dir: Path, key: str) -> Optional[str]:
    path = cache_dir / f"{key}.json"
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        text = obj["text"]
    except (OSError, ValueError, KeyError, TypeError):
        return None  # missing or corrupt entries are plain misses
    return text if isinstance(text, str) else None


def _cache_write(cache_dir: Path, key: str, text: str) -> None:
    write_atomic(cache_dir / f"{key}.json",
                 [json.dumps({"key": key, "text": text}, ensure_ascii=False)])


def harvest(examples: Iterable[Example], job: HarvestJob) -> HarvestResult:
    """Fetch, cache and segment traces for every example.

    Units are processed by a bounded worker pool; results come back in
    (example, sample) order regardless of completion order.  Per-unit
    errors become HarvestFailure records instead of aborting the run.
    """
    examples = list(examples)
    api_key = os.environ.get(job.api_key_env)
    if not api_key:
        raise HarvestError(
            f"environment variable {job.api_key_env} is not set; "
            "the endpoint needs an API key"
        )
    cache_dir = Path(job.cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)

    # Imported here, not at the top: http.client and ssl add about 30 ms
    # to the start-up of every other subcommand.
    from .chatclient import ChatClient, fetch

    limiter = _RateLimiter(job.rate_limit)
    client = ChatClient(job.teacher.endpoint_url, api_key, job.timeout)
    samples = job.teacher.samples_per_example

    def run_unit(example: Example, sample_index: int):
        system_text, user_text = job.template.render(example.prompt)
        key = _cache_key(job, system_text, user_text, sample_index)
        text = _cache_read(cache_dir, key)
        hit = text is not None
        if not hit:
            try:
                text = fetch(client, job, system_text, user_text, limiter)
            except HarvestError as exc:
                return None, HarvestFailure(example.id, sample_index, str(exc)), False
            _cache_write(cache_dir, key, text)
        try:
            trace = trace_from_text(example.id, job.teacher.teacher_id, text, job.rules)
        except Exception as exc:
            return None, HarvestFailure(
                example.id, sample_index, f"segmentation failed: {exc}"
            ), hit
        return trace, None, hit

    units = [(ex, s) for ex in examples for s in range(samples)]
    try:
        with ThreadPoolExecutor(max_workers=job.max_in_flight) as pool:
            outcomes = list(pool.map(lambda u: run_unit(*u), units))
    finally:
        client.close()

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
