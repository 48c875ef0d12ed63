"""A deterministic OpenAI-compatible chat endpoint for tests and demos.

Serves POST <base>/chat/completions from a background thread.  The
completion for a request is a pure function of (model, user message):
the step count comes from a [[depth=N]] directive in the prompt when
present, otherwise from a hash of the request.  Transient failures are
injected deterministically per request key (the first attempt fails,
retries succeed), so retry tests never flake.  A [[malformed]] directive
makes the server return a 200 with a useless body, for exercising the
client's malformed-response path.

The server speaks HTTP/1.1 and keeps each connection open for the next
request, as a real endpoint does, and writes each response in one
write, so a harvest reuses its max_in_flight connections.  One thread,
in MockTeacher._serve, serves every connection: it reads what arrives,
answers each request as soon as it is whole, and parses only what a
chat request needs (the request line, Content-Length and Connection).
On Linux that thread keeps off the CPU its client last sent from.
stop() closes the connections its clients still hold.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import selectors
import socket
import threading
import time
import traceback
from http import HTTPStatus

_DEPTH_DIRECTIVE = re.compile(r"\[\[depth=(\d+)\]\]")
_MALFORMED_DIRECTIVE = "[[malformed]]"
_MAX_HEAD = 65536  # bytes; a longer request head is refused
# Whether the serving thread can learn its client's CPU and keep off it
# (Linux).
_STEER = hasattr(os, "sched_setaffinity") and hasattr(socket, "SO_INCOMING_CPU")


def _take_request(buffer: bytearray):
    """Take the first whole request off buffer: (method, target, body,
    whether the connection is kept), or None while it is not whole.  A
    request whose body cannot be told from the next request is answered
    with an empty body and ends the connection."""
    end = buffer.find(b"\r\n\r\n")
    if end < 0 and len(buffer) <= _MAX_HEAD:
        return None
    lines = buffer[:max(end, 0)].decode("latin-1").split("\r\n")
    words = lines[0].split()
    method, target, version = words if len(words) == 3 else ("", "", "")
    headers = {}
    for line in lines[1:]:
        name, _colon, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length", "0")
    if end < 0 or not length.isdecimal() or "transfer-encoding" in headers:
        del buffer[:]
        return method, target, b"", False
    tokens = headers.get("connection", "").lower()
    keep = "keep-alive" in tokens if version == "HTTP/1.0" else \
        version == "HTTP/1.1" and "close" not in tokens
    size = end + 4 + int(length)
    if len(buffer) < size:
        return None
    body = bytes(buffer[end + 4:size])
    del buffer[:size]
    return method, target, body, keep


def _response(status: int, obj: dict, keep: bool) -> bytes:
    """A whole response, head and body, to be sent in one write."""
    payload = json.dumps(obj).encode("utf-8")
    head = (f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n"
            + ("" if keep else "Connection: close\r\n") + "\r\n")
    return head.encode("latin-1") + payload


def _hang_up(conn: socket.socket) -> None:
    """Send the client the end of the stream, then close the connection."""
    with contextlib.suppress(OSError):  # the client may have gone already
        conn.shutdown(socket.SHUT_WR)
    conn.close()


def _completion_text(key_int: int, depth: int, verbosity: int) -> str:
    lines = []
    for i in range(1, depth + 1):
        unit = (f"combine intermediate value {(key_int + i) % 97} "
                f"with the running total and simplify. ")
        lines.append(f"{i}. " + unit * verbosity)
    lines.append(f"Answer: {(key_int + depth) % 1000}")
    return "\n".join(lines)


class MockTeacher:
    """Context-managed mock endpoint.

    failure_percent injects one 500 on the first attempt for roughly that
    share of distinct request keys (chosen by key hash, not by chance).
    verbosity multiplies the per-step filler text.  request_times records
    a monotonic receipt timestamp for every request, for rate audits, and
    request_count is their number.
    """

    def __init__(self, failure_percent: int = 0, verbosity: int = 1):
        if not 0 <= failure_percent <= 100:
            raise ValueError("failure_percent must lie in 0..100")
        self.failure_percent = failure_percent
        self.verbosity = verbosity
        self.request_times: list[float] = []
        self._failed_once: set[str] = set()
        self._lock = threading.Lock()
        self._socket: socket.socket | None = None
        self._stopping: threading.Event | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "MockTeacher":
        # A short backlog (socketserver's is 5) drops the connects of many
        # clients at once, and each such client waits out a 1 s SYN resend.
        self._socket = socket.create_server(("127.0.0.1", 0), backlog=64)
        self._stopping = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._socket is not None:
            self._stopping.set()
            self._thread.join()
            self._socket.close()
            self._socket = None

    def __enter__(self) -> "MockTeacher":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def request_count(self) -> int:
        return len(self.request_times)

    @property
    def base_url(self) -> str:
        assert self._socket is not None, "server not started"
        return f"http://127.0.0.1:{self._socket.getsockname()[1]}/v1"

    # -- serving -----------------------------------------------------------

    def _serve(self) -> None:
        """Accept connections and answer their requests until stop();
        then close the connections still open.

        http.server's threading server gives each kept connection a thread,
        and those threads take turns at the interpreter lock: on a 2-vCPU
        host a cold 2000x3 harvest at max_in_flight 2 took 0.8-1.1 s, or at
        a busier time either about 1.3 s or about 2.4 s, on where the
        scheduler put the threads.  Its head parsing (the email package)
        was half of the mock's CPU time.  From one thread with the lean
        parsing of _take_request, the same harvest takes 0.43-0.46 s.

        That thread also keeps off the CPU its client last sent from.  A
        thread woken by data from a local client is moved onto the client's
        CPU when Linux finds its own CPU not idle at that moment (wake
        affinity), and a harvest client seldom waits, so the two then take
        turns on one CPU while another idles: in such spells, which lasted
        minutes, the same harvest took 0.75 s instead of 0.43 s.
        """
        listener = self._socket
        selector = selectors.DefaultSelector()
        selector.register(listener, selectors.EVENT_READ)
        # The CPUs this thread may use (it inherits them), and the one it
        # keeps off.
        cpus = os.sched_getaffinity(0) if _STEER else set()
        client_cpu = -1
        while not self._stopping.is_set():
            # A short wait lets stop() return within 0.05 s.
            for key, _events in selector.select(0.05):
                # A connection's key holds what has arrived on it and is not
                # yet answered.
                conn, buffer = key.fileobj, key.data
                if conn is listener:
                    with contextlib.suppress(OSError):  # the client gave up first
                        selector.register(conn.accept()[0], selectors.EVENT_READ, bytearray())
                    continue
                try:
                    # Readable, so this returns what has arrived (b"" at a close).
                    data = conn.recv(65536)
                    if _STEER:  # run on every allowed CPU but the sender's
                        cpu = conn.getsockopt(socket.SOL_SOCKET, socket.SO_INCOMING_CPU)
                        if cpu != client_cpu and cpu in cpus and len(cpus) > 1:
                            client_cpu = cpu
                            os.sched_setaffinity(0, cpus - {cpu})  # 0: this thread
                    buffer += data
                    keep = bool(data)
                    while keep and (whole := _take_request(buffer)) is not None:
                        method, target, body, keep = whole
                        conn.sendall(_response(*self._answer(method, target, body), keep))
                except ConnectionError:
                    # A client may drop its connection before the response is
                    # written, as a harvest that stops at a bad corpus line
                    # does; that is no fault of the mock's.
                    keep = False
                except Exception:
                    traceback.print_exc()
                    keep = False
                if not keep:
                    selector.unregister(conn)
                    _hang_up(conn)
        selector.unregister(listener)
        for key in selector.get_map().values():
            _hang_up(key.fileobj)
        selector.close()

    # -- request handling --------------------------------------------------

    def _answer(self, method: str, target: str, raw: bytes) -> tuple[int, dict]:
        """(status, JSON object) for one request: the one entry point of
        the request logic, which _serve calls and which servers that
        tests build to frame connections their own way call too."""
        self.request_times.append(time.monotonic())  # atomic: no lock
        if method != "POST":  # "" if the request line did not parse
            return (405, {"error": "only POST is served"}) if method else \
                (400, {"error": "bad request line"})
        if target != "/v1/chat/completions":
            return 404, {"error": "unknown path"}
        try:
            body = json.loads(raw)
            model = body["model"]
            user = next(m["content"] for m in body["messages"]
                        if m["role"] == "user")
        except (ValueError, KeyError, TypeError, StopIteration):
            return 400, {"error": "bad request"}

        key = hashlib.sha256(f"{model}\x00{user}".encode("utf-8")).hexdigest()
        key_int = int(key[:8], 16)

        if self.failure_percent and key_int % 100 < self.failure_percent:
            with self._lock:
                first = key not in self._failed_once
                self._failed_once.add(key)
            if first:
                return 500, {"error": "transient"}

        if _MALFORMED_DIRECTIVE in user:
            return 200, {"bogus": True}

        directive = _DEPTH_DIRECTIVE.search(user)
        depth = int(directive.group(1)) if directive else key_int % 8 + 1
        depth = max(1, depth)
        text = _completion_text(key_int, depth, self.verbosity)
        return 200, {
            "id": f"mock-{key[:12]}",
            "object": "chat.completion",
            "model": model,
            "choices": [{
                "index": 0,
                "message": {"role": "assistant", "content": text},
                "finish_reason": "stop",
            }],
        }
