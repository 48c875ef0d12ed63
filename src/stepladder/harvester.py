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
import time
from collections import deque
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from .corpus import Example, Frozen, Record, TeacherProfile, Trace, is_text
from .errors import HarvestError, StepladderError
from .segmenter import trace_from_text

_PLACEHOLDER = "{prompt}"

# At most this many units are admitted past the oldest unresolved one, so
# a unit waiting out its backoff holds a bounded number of finished ones.
_WINDOW = 1024

# The longest wait, in seconds, that a timeout, a retry's backoff or the
# gap between two requests (1 / rate_limit) may ask for.  The selector
# refuses a wait past 2**31 ms, about 24.8 days; this is about 11.6 days.
MAX_WAIT = 1e6


class PromptTemplate(Frozen):
    """System and user messages sent for each example.

    user_text must contain the literal placeholder "{prompt}" exactly
    once; it is replaced in a single pass, so braces inside the example
    prompt itself are inert.
    """

    __slots__ = ("template_id", "system_text", "user_text")

    def __init__(self, template_id: str, system_text: str, user_text: str):
        if not template_id:
            raise HarvestError("template_id must be nonempty")
        if not system_text.strip() or not user_text.strip():
            raise HarvestError("template system and user texts must be nonempty")
        count = user_text.count(_PLACEHOLDER)
        if count != 1:
            raise HarvestError(
                f"user_text must contain {_PLACEHOLDER!r} exactly once, found {count}"
            )
        self._set_fields(template_id, system_text, user_text)

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


class HarvestJob(Frozen):
    """Everything a harvest run needs besides the examples themselves."""

    __slots__ = ("teacher", "cache_dir", "rate_limit", "template", "max_retries", "timeout",
                 "backoff_base", "max_in_flight", "api_key_env")

    def __init__(self, teacher: TeacherProfile, cache_dir: str, rate_limit: float,
                 template: PromptTemplate = DEFAULT_TEMPLATE, max_retries: int = 3,
                 timeout: float = 30.0, backoff_base: float = 0.5, max_in_flight: int = 4,
                 api_key_env: str = "OPENAI_API_KEY"):
        if not 1 / MAX_WAIT <= rate_limit < math.inf:
            raise HarvestError(f"rate_limit must be finite and >= {1 / MAX_WAIT:g} requests "
                               f"per second, got {rate_limit}")
        if max_retries < 0:
            raise HarvestError("max_retries must be >= 0")
        if max_in_flight < 1:
            raise HarvestError("max_in_flight must be >= 1")
        if not 0 < timeout <= MAX_WAIT:
            raise HarvestError(f"timeout must be > 0 and at most {MAX_WAIT:g} s, "
                               f"got {timeout}")
        if not 0 <= backoff_base <= MAX_WAIT:
            raise HarvestError(f"backoff_base must be >= 0 and at most {MAX_WAIT:g} s, "
                               f"got {backoff_base}")
        self._set_fields(teacher, cache_dir, rate_limit, template, max_retries, timeout,
                         backoff_base, max_in_flight, api_key_env)


class HarvestFailure(Frozen):
    __slots__ = ("example_id", "sample_index", "reason")

    def __init__(self, example_id: str, sample_index: int, reason: str):
        self._set_fields(example_id, sample_index, reason)


class HarvestResult:
    """Traces plus an account of everything that did not become one."""

    __slots__ = ("traces", "failures", "cache_hits", "grant_times")

    def __init__(self, traces: Optional[list[Trace]] = None,
                 failures: Optional[list[HarvestFailure]] = None, cache_hits: int = 0,
                 grant_times: Optional[list[float]] = None):
        self.traces = [] if traces is None else traces
        self.failures = [] if failures is None else failures
        self.cache_hits = cache_hits
        self.grant_times = [] if grant_times is None else grant_times

    @property
    def requests_sent(self) -> int:
        """Every limiter grant authorizes exactly one request."""
        return len(self.grant_times)


def _cache_keys(job: HarvestJob, system_text: str, user_text: str) -> list[str]:
    """The cache key of each sample of one request: the sha256 of the JSON
    array [model, template_id, system_text, user_text, sample index,
    temperature, endpoint without a trailing "/"], ASCII-escaped."""
    return _key_maker(job, system_text)(user_text)


def _key_maker(job: HarvestJob, system_text: str):
    """_cache_keys for one job and system text, as a function of the user
    text: the array's text is built once around the user text, which is
    escaped as json.dumps(ensure_ascii=True) escapes it."""
    teacher = job.teacher
    head = json.dumps([teacher.model_name, job.template.template_id, system_text],
                      ensure_ascii=True)[:-1] + ", "
    tail = json.dumps([float(teacher.temperature), teacher.endpoint_url.rstrip("/")],
                      ensure_ascii=True)[1:]
    tails = [f", {sample}, {tail}" for sample in range(teacher.samples_per_example)]

    def keys(user_text: str) -> list[str]:
        array = head + encode_basestring_ascii(user_text)
        return [hashlib.sha256((array + end).encode("ascii")).hexdigest() for end in tails]

    return keys


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
        """The cached text for key, or None on a miss.

        A line as put writes it, {"key": "<key>", "text": "<text>"}, has
        its one string decoded by scanstring; any other line goes through
        json.loads.
        """
        where = self._index.get(bytes.fromhex(key))
        if where is None:
            return None
        offset, length = divmod(where, self._SPAN)
        try:
            # Decoded as json.loads decodes bytes.
            line = os.pread(self._fd, length, offset).decode("utf-8", "surrogatepass")
            head = f'{{"key": "{key}", "text": "'
            text, end = scanstring(line, len(head)) if line.startswith(head) else (None, -1)
            if end != len(line) - 2 or not line.endswith("}\n"):
                obj = json.loads(line)
                text = obj.get("text") if type(obj) is dict and obj.get("key") == key else None
        except (ValueError, RecursionError):
            return None
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


class _Unit:
    """One (example, sample) request; outcome is set once it resolves."""

    __slots__ = ("position", "example", "sample", "texts", "key", "attempts", "outcome")

    def __init__(self, position: int, example: Example, sample: int, texts: tuple[str, str],
                 key: str, attempts: int = 0,
                 outcome: Union[Trace, HarvestFailure, None] = None):
        self.position = position
        self.example = example
        self.sample = sample
        self.texts = texts  # the rendered (system, user) messages
        self.key = key
        self.attempts = attempts
        self.outcome = outcome


def _units(job: HarvestJob, examples: Iterable[Example]) -> Iterator[_Unit]:
    keys = _key_maker(job, job.template.system_text)
    position = 0
    for example in examples:
        texts = job.template.render(example.prompt)
        for s, key in enumerate(keys(texts[1])):
            yield _Unit(position, example, s, texts, key)
            position += 1


class _Harvest:
    """One harvest, run on the calling thread.

    Cache hits are segmented as they are looked up.  Misses wait in one
    queue, ordered by when each may go: a new miss from when it was read,
    a retry from the end of its backoff.  They are sent from one selector
    loop over up to max_in_flight connections, so a retry goes out as soon
    as its backoff ends and the limiter grants, and no unit's wait holds
    up another unit's request.
    """

    def __init__(self, job: HarvestJob, api_key: str, tally: HarvestResult):
        self.job = job
        self.api_key = api_key
        self.tally = tally
        self.log = None  # opened when the stream starts
        self.client = None  # opened with the first miss, as is the selector
        self.selector = None
        self.queue = []  # heap of (not before, position, unit): misses to send
        self.unsent = 0  # misses in queue never sent: the read-ahead gate
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
                    heapq.heappush(self.queue, (time.monotonic(), unit.position, unit))
                    self.unsent += 1
                else:
                    self._segment(unit, text, True)
                if window[0].outcome is not None:
                    yield from self._resolved(window)
                # Read ahead only as far as the connections can use.
                while self.unsent >= self.job.max_in_flight or len(window) >= _WINDOW:
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
            # Imported here, not at the top: the client, the socket and
            # the selectors modules, which all-hit harvests and other
            # subcommands never use.  Connection is bound module-wide,
            # for _send.
            global Connection
            import selectors

            from .chatclient import ChatClient, Connection

            self.client = ChatClient(self.job.teacher, self.api_key, self.job.timeout)
            self.selector = selectors.DefaultSelector()
        waits = [conn.deadline for conn in self.busy]
        if self.queue and len(self.busy) < self.job.max_in_flight:
            waits.append(max(self.queue[0][0], self.next_grant))
        events = self.selector.select(max(0.0, min(waits) - time.monotonic()))
        arrived = [self._receive(key.data) for key, _mask in events]
        now = time.monotonic()
        arrived += [self._receive(conn, expired=True)
                    for conn in list(self.busy) if conn.deadline <= now]
        self._send()
        for unit, text in filter(None, arrived):
            self._segment(unit, text, False)

    def _send(self) -> None:
        """Send the queue's misses in the order they may go, each once its
        time has come, while a connection is free and the limiter grants."""
        while self.queue and len(self.busy) < self.job.max_in_flight:
            now = time.monotonic()
            if now < max(self.queue[0][0], self.next_grant):
                return
            _when, _position, unit = heapq.heappop(self.queue)
            self.unsent -= not unit.attempts
            # An earlier unit sending the same request may have cached it.
            text = self.log.get(unit.key)
            if text is not None:
                self._segment(unit, text, True)
                continue
            self.tally.grant_times.append(now)
            self.next_grant = now + 1.0 / self.job.rate_limit
            unit.attempts += 1
            conn = self.idle.pop() if self.idle else Connection(self.client, self.selector)
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
            try:
                wait = min(MAX_WAIT, math.ldexp(self.job.backoff_base, unit.attempts - 1))
            except OverflowError:
                wait = MAX_WAIT
            heapq.heappush(self.queue, (time.monotonic() + wait, unit.position, unit))

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
