"""Collect reasoning traces from an OpenAI-compatible chat endpoint.

Every (example, sample) unit resolves to exactly one trace or one
recorded failure, so a harvest is always accountable: traces + failures
equals examples times samples_per_example.  Responses are cached on disk
in one append-only log keyed by request content, and cache hits bypass
the network entirely.  Live requests are paced by a token bucket and
retried with exponential backoff on transient errors.  Everything runs
on the calling thread: one selector loop keeps up to max_in_flight
keep-alive connections busy, and traces stream out in order as they
resolve, so a trace is held only while it waits for an earlier unit.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import os
import re
import selectors
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from .corpus import Example, Record, TeacherProfile, Trace, is_text
from .errors import HarvestError, StepladderError
from .segmenter import trace_from_text

_PLACEHOLDER = "{prompt}"

# At most this many units are admitted past the oldest unresolved one, so
# a unit waiting out its backoff holds a bounded number of finished ones.
_WINDOW = 1024

# The longest wait, in seconds, that a timeout or the gap between two
# requests (1 / rate_limit) may ask for.  The selector refuses a wait
# past 2**31 ms, about 24.8 days; this is about 11.6 days.
MAX_WAIT = 1e6


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

    def __post_init__(self):
        if not 1 / MAX_WAIT <= self.rate_limit < math.inf:
            raise HarvestError(f"rate_limit must be finite and >= {1 / MAX_WAIT:g} requests "
                               f"per second, got {self.rate_limit}")
        if self.max_retries < 0:
            raise HarvestError("max_retries must be >= 0")
        if self.max_in_flight < 1:
            raise HarvestError("max_in_flight must be >= 1")
        if not 0 < self.timeout <= MAX_WAIT:
            raise HarvestError(f"timeout must be > 0 and at most {MAX_WAIT:g} s, "
                               f"got {self.timeout}")
        if not self.backoff_base >= 0:
            raise HarvestError("backoff_base must be >= 0")


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
    cache_hits: int = 0
    grant_times: list[float] = field(default_factory=list)

    @property
    def requests_sent(self) -> int:
        """Every limiter grant authorizes exactly one request."""
        return len(self.grant_times)


def _cache_keys(job: HarvestJob, system_text: str, user_text: str) -> list[str]:
    """The cache key of each sample of one request: the sha256 of the JSON
    array [model, template_id, system_text, user_text, sample index,
    temperature, endpoint without a trailing "/"], ASCII-escaped.  The
    array's text is built once, around the sample index."""
    teacher = job.teacher
    head = json.dumps([teacher.model_name, job.template.template_id, system_text, user_text],
                      ensure_ascii=True)[:-1]
    tail = json.dumps([float(teacher.temperature), teacher.endpoint_url.rstrip("/")],
                      ensure_ascii=True)[1:]
    return [hashlib.sha256(f"{head}, {sample}, {tail}".encode("ascii")).hexdigest()
            for sample in range(teacher.samples_per_example)]


class _ResponseLog:
    """The response cache: one append-only file of {"key", "text"} lines.

    Opening scans the file once into an index from each key's 32-byte
    digest to one int, offset << 40 | length (a line is read into memory
    whole, so its length is far below 2**40); texts stay on disk until
    looked up.  A line whose key is not 64 lowercase hex digits is left
    out of the index: no cache key could look it up.  A line that does
    not parse, whose "key" is not the key it was indexed under, or whose
    "text" is not a string that UTF-8 can encode is a plain miss.  When
    a key has several lines, the last one wins.  Each entry is appended
    with one write() on an O_APPEND descriptor, so concurrent harvests
    sharing the file never interleave their lines.
    """

    _KEY = re.compile(rb'\{"key": "([0-9a-f]{64})"')
    _SPAN = 1 << 40  # offset << 40 | length == offset * _SPAN + length

    def __init__(self, path: Path):
        self._fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        self._index: dict[bytes, int] = {}
        offset, line = 0, b"\n"
        try:
            with open(self._fd, "rb", closefd=False) as fh:
                for line in fh:
                    if line.endswith(b"\n") and (key := self._KEY.match(line)):
                        self._index[bytes.fromhex(key[1].decode())] = \
                            offset * self._SPAN + len(line)
                    offset += len(line)
        except BaseException:
            os.close(self._fd)
            raise
        # A torn last entry (a crash mid-write) gets a newline before the
        # next append, so it stays a miss and the new line stays parseable.
        self._torn = not line.endswith(b"\n")

    def get(self, key: str) -> Optional[str]:
        """The cached text for key, or None on a miss."""
        where = self._index.get(bytes.fromhex(key))
        if where is None:
            return None
        offset, length = divmod(where, self._SPAN)
        try:
            obj = json.loads(os.pread(self._fd, length, offset))
        except ValueError:
            return None
        if type(obj) is not dict or obj.get("key") != key:
            return None
        text = obj.get("text")
        return text if isinstance(text, str) and is_text(text) else None

    def put(self, key: str, text: str) -> None:
        entry = (json.dumps({"key": key, "text": text}, ensure_ascii=False)
                 + "\n").encode("utf-8")
        line = b"\n" + entry if self._torn else entry
        # Only a full disk writes part of a line; the next append then
        # starts on a fresh line.
        self._torn = os.write(self._fd, line) < len(line)
        if not self._torn:
            end = os.lseek(self._fd, 0, os.SEEK_CUR)
            self._index[bytes.fromhex(key)] = (end - len(entry)) * self._SPAN + len(entry)

    def close(self) -> None:
        os.close(self._fd)


@dataclass(eq=False, slots=True)
class _Unit:
    """One (example, sample) request; outcome is set once it resolves."""

    position: int
    example: Example
    sample: int
    texts: tuple[str, str]  # the rendered (system, user) messages
    key: str
    attempts: int = 0
    outcome: Union[Trace, HarvestFailure, None] = None


def _units(job: HarvestJob, examples: Iterable[Example]) -> Iterator[_Unit]:
    position = 0
    for example in examples:
        texts = job.template.render(example.prompt)
        for s, key in enumerate(_cache_keys(job, *texts)):
            yield _Unit(position, example, s, texts, key)
            position += 1


class _Harvest:
    """One harvest, run on the calling thread.

    Cache hits are segmented as they are looked up.  Misses are sent from
    one selector loop over up to max_in_flight connections.  A retry's
    backoff and the limiter's next grant are deadlines of that loop, so
    no unit's wait holds up another unit's request.
    """

    def __init__(self, job: HarvestJob, api_key: str, tally: HarvestResult):
        self.job = job
        self.api_key = api_key
        self.tally = tally
        self.log = None  # opened when the stream starts
        self.client = None  # opened with the first miss, as is the selector
        self.selector = None
        self.ready = []  # heap of (position, unit): misses that may be sent now
        self.backoff = []  # heap of (due time, position, unit)
        self.idle = []  # connections with no request on them
        self.busy = {}  # connection -> the unit whose request it carries
        self.next_grant = 0.0  # the rate limiter: no request before this time

    def run(self, examples: Iterable[Example]) -> Iterator[Trace]:
        """Yield each trace, and tally each failure, in (example, sample)
        order as soon as it and every earlier unit are resolved."""
        self.log = _ResponseLog(Path(self.job.cache_dir) / "responses.jsonl")
        window = deque()  # admitted units, oldest first
        try:
            for unit in _units(self.job, examples):
                window.append(unit)
                text = self.log.get(unit.key)
                if text is None:
                    heapq.heappush(self.ready, (unit.position, unit))
                else:
                    self._segment(unit, text, True)
                yield from self._resolved(window)
                # Read ahead only as far as the connections can use.
                while len(self.ready) >= self.job.max_in_flight or len(window) >= _WINDOW:
                    self._step()
                    yield from self._resolved(window)
            while window:
                self._step()
                yield from self._resolved(window)
        finally:
            for conn in [*self.idle, *self.busy]:
                conn.close()
            if self.selector is not None:
                self.selector.close()
            self.log.close()

    def _resolved(self, window: deque) -> Iterator[Trace]:
        """Take the resolved units off the head of the window: yield each
        trace and tally each failure."""
        while window and window[0].outcome is not None:
            outcome = window.popleft().outcome
            if isinstance(outcome, Trace):
                yield outcome
            else:
                self.tally.failures.append(outcome)

    def _step(self) -> None:
        """Wait for a response, a deadline or the next grant; send what may
        be sent; then segment what arrived, while those requests are out."""
        if self.client is None:
            # Imported here, not at the top: the client and the socket
            # module, which all-hit harvests and other subcommands never
            # use.
            from .chatclient import ChatClient

            self.client = ChatClient(self.job.teacher, self.api_key, self.job.timeout)
            self.selector = selectors.DefaultSelector()
        waits = [conn.deadline for conn in self.busy]
        if self.backoff:
            waits.append(self.backoff[0][0])
        if self.ready and len(self.busy) < self.job.max_in_flight:
            waits.append(self.next_grant)
        events = self.selector.select(max(0.0, min(waits) - time.monotonic()))
        arrived = [self._receive(key.data) for key, _mask in events]
        now = time.monotonic()
        arrived += [self._receive(conn, expired=True)
                    for conn in list(self.busy) if conn.deadline <= now]
        while self.backoff and self.backoff[0][0] <= now:
            _due, position, unit = heapq.heappop(self.backoff)
            heapq.heappush(self.ready, (position, unit))
        self._send()
        for unit, text in filter(None, arrived):
            self._segment(unit, text, False)

    def _send(self) -> None:
        """Send ready misses, earliest unit first, while a connection is free
        and the limiter grants."""
        while self.ready and len(self.busy) < self.job.max_in_flight:
            now = time.monotonic()
            if now < self.next_grant:
                return
            _position, unit = heapq.heappop(self.ready)
            # An earlier unit sending the same request may have cached it.
            text = self.log.get(unit.key)
            if text is not None:
                self._segment(unit, text, True)
                continue
            self.tally.grant_times.append(now)
            self.next_grant = now + 1.0 / self.job.rate_limit
            unit.attempts += 1
            conn = self.idle.pop() if self.idle else self.client.connection(self.selector)
            self.busy[conn] = unit
            try:
                conn.start(self.client.request(*unit.texts))
            except OSError as exc:
                self._drop(conn, f"network error: {exc}")

    def _receive(self, conn, expired: bool = False) -> Optional[tuple[_Unit, str]]:
        """Go on with a connection after an event, or after its deadline
        passed; a finished unit's text, once cached, is returned for
        segmenting."""
        try:
            response = conn.advance(expired)
        except OSError as exc:
            self._drop(conn, f"network error: {exc}")
            return None
        if response is None:
            return None
        unit = self.busy.pop(conn)
        if conn.reusable:
            self.idle.append(conn)
        else:
            conn.close()
        status, data = response
        if status == 429 or status >= 500:
            self._retry(unit, f"HTTP {status}")
            return None
        try:
            text = self.client.content(status, data)
        except HarvestError as exc:
            unit.outcome = HarvestFailure(unit.example.id, unit.sample, str(exc))
            return None
        self.log.put(unit.key, text)
        return unit, text

    def _drop(self, conn, reason: str) -> None:
        """Close a failed connection; the request on it, if any, is retried."""
        conn.close()
        if conn in self.idle:
            self.idle.remove(conn)
        unit = self.busy.pop(conn, None)
        if unit is not None:
            self._retry(unit, reason)

    def _retry(self, unit: _Unit, reason: str) -> None:
        if unit.attempts > self.job.max_retries:
            reason = f"{reason} after {unit.attempts} attempts"
            unit.outcome = HarvestFailure(unit.example.id, unit.sample, reason)
        else:
            due = time.monotonic() + self.job.backoff_base * 2 ** (unit.attempts - 1)
            heapq.heappush(self.backoff, (due, unit.position, unit))

    def _segment(self, unit: _Unit, text: str, hit: bool) -> None:
        self.tally.cache_hits += hit
        try:
            unit.outcome = trace_from_text(unit.example.id, self.job.teacher.teacher_id, text)
        except StepladderError as exc:
            reason = f"segmentation failed: {exc}"
            unit.outcome = HarvestFailure(unit.example.id, unit.sample, reason)


def harvest_stream(examples: Iterable[Example], job: HarvestJob,
                   tally: HarvestResult) -> Iterator[Trace]:
    """Fetch, cache and segment traces for every example, as a stream.

    Traces come out in (example, sample) order, each as soon as it and
    every earlier unit are resolved.  Failures, cache hits and limiter
    grants go to tally as the stream is consumed; a unit's error (network,
    HTTP, response or segmentation) becomes a HarvestFailure instead of
    aborting the run, while any other exception is a fault and propagates.
    The API key is checked and the cache directory made before the stream
    is returned.
    """
    api_key = os.environ.get(job.api_key_env)
    if not api_key:
        raise HarvestError(
            f"environment variable {job.api_key_env} is not set; "
            "the endpoint needs an API key"
        )
    Path(job.cache_dir).mkdir(parents=True, exist_ok=True)
    return _Harvest(job, api_key, tally).run(examples)


def harvest(examples: Iterable[Example], job: HarvestJob) -> HarvestResult:
    """Every trace of harvest_stream in a list, with the tally."""
    result = HarvestResult()
    result.traces = list(harvest_stream(examples, job, result))
    return result
