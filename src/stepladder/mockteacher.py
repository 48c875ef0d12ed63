"""A deterministic OpenAI-compatible chat endpoint for tests and demos.

Serves POST <base>/chat/completions from a background thread.  The
completion for a request is a pure function of (model, user message):
the step count comes from a [[depth=N]] directive in the prompt when
present, otherwise from a hash of the request.  Transient failures are
injected deterministically per request key (the first attempt fails,
retries succeed), so retry tests never flake.  A [[malformed]] directive
makes the server return a 200 with a useless body, for exercising the
client's malformed-response path.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_DEPTH_DIRECTIVE = re.compile(r"\[\[depth=(\d+)\]\]")
_MALFORMED_DIRECTIVE = "[[malformed]]"


class _Server(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        # A client may drop its connection before the response is written,
        # as a harvest that stops at a bad corpus line does; that is no
        # fault of the mock's, so only other errors are printed.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


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
    a monotonic receipt timestamp for every request, for rate audits.
    """

    def __init__(self, failure_percent: int = 0, verbosity: int = 1):
        if not 0 <= failure_percent <= 100:
            raise ValueError("failure_percent must lie in 0..100")
        self.failure_percent = failure_percent
        self.verbosity = verbosity
        self.request_times: list[float] = []
        self.request_count = 0
        self._failed_once: set[str] = set()
        self._lock = threading.Lock()
        self._server: _Server | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "MockTeacher":
        owner = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):  # keep test output quiet
                pass

            def do_POST(self):
                owner._handle(self)

        self._server = _Server(("127.0.0.1", 0), Handler)
        # A short poll interval lets stop() return within 0.05 s, not 0.5 s.
        self._thread = threading.Thread(target=self._server.serve_forever, args=(0.05,),
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None

    def __enter__(self) -> "MockTeacher":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def base_url(self) -> str:
        assert self._server is not None, "server not started"
        return f"http://127.0.0.1:{self._server.server_address[1]}/v1"

    # -- request handling --------------------------------------------------

    def _handle(self, handler: BaseHTTPRequestHandler) -> None:
        with self._lock:
            self.request_times.append(time.monotonic())
            self.request_count += 1
        if handler.path != "/v1/chat/completions":
            self._send(handler, 404, {"error": "unknown path"})
            return
        try:
            length = int(handler.headers.get("Content-Length", "0"))
            body = json.loads(handler.rfile.read(length))
            model = body["model"]
            user = next(m["content"] for m in body["messages"]
                        if m["role"] == "user")
        except (ValueError, KeyError, StopIteration):
            self._send(handler, 400, {"error": "bad request"})
            return

        key = hashlib.sha256(f"{model}\x00{user}".encode("utf-8")).hexdigest()
        key_int = int(key[:8], 16)

        if self.failure_percent and key_int % 100 < self.failure_percent:
            with self._lock:
                first = key not in self._failed_once
                self._failed_once.add(key)
            if first:
                self._send(handler, 500, {"error": "transient"})
                return

        if _MALFORMED_DIRECTIVE in user:
            self._send(handler, 200, {"bogus": True})
            return

        directive = _DEPTH_DIRECTIVE.search(user)
        depth = int(directive.group(1)) if directive else key_int % 8 + 1
        depth = max(1, depth)
        text = _completion_text(key_int, depth, self.verbosity)
        self._send(handler, 200, {
            "id": f"mock-{key[:12]}",
            "object": "chat.completion",
            "model": model,
            "choices": [{
                "index": 0,
                "message": {"role": "assistant", "content": text},
                "finish_reason": "stop",
            }],
        })

    @staticmethod
    def _send(handler: BaseHTTPRequestHandler, status: int, obj: dict) -> None:
        payload = json.dumps(obj).encode("utf-8")
        handler.send_response(status)
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", str(len(payload)))
        handler.end_headers()
        handler.wfile.write(payload)
