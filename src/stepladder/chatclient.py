"""A stdlib client for OpenAI-compatible chat completions endpoints.

The harvester imports this module only when it has requests to send, so
it stays out of every other subcommand's start-up.  The module itself
loads no transport code beyond sockets: ssl is imported only for an
https endpoint, and urllib.request (which brings http.client, email and
ssl) only when some environment variable is named *_proxy.  Proxies come
from the environment only (http_proxy, https_proxy, all_proxy,
no_proxy, in either case); TLS is verified against the system trust
store, which SSL_CERT_FILE and SSL_CERT_DIR override.

Connections are driven by the caller's selector, so one thread can open
and keep many of them busy at once.  Only the endpoint's name lookup
(once per client) and the writing of a request block.
"""

from __future__ import annotations

import errno
import json
import math
import os
import re
import selectors
import socket
import time
from typing import TYPE_CHECKING, Optional
from urllib.parse import unquote, urlsplit

from .corpus import is_text
from .errors import HarvestError

if TYPE_CHECKING:
    from .corpus import TeacherProfile

# Characters that would end the request line or a header early.
_UNSAFE = re.compile(r"[\x00-\x1f\x7f]")

# The most bytes a response body may hold, far above any completion.  A
# longer declared length, or a body that grows past it, fails the request.
MAX_BODY = 64 << 20


def _proxy_for(scheme: str, host: str,
               port: int) -> Optional[tuple[str, int, dict[str, str]]]:
    """(host, port, auth headers) of the environment's proxy for this
    endpoint, or None when no proxy applies or no_proxy exempts it."""
    # urllib.request reads a proxy only from a variable named so; without
    # one, its (and http.client's) import is skipped.
    if not any(name.lower().endswith("_proxy") for name in os.environ):
        return None
    import base64
    import urllib.request

    proxies = urllib.request.getproxies()
    proxy = proxies.get(scheme) or proxies.get("all")
    if not proxy or urllib.request.proxy_bypass(f"{host}:{port}"):
        return None
    parts = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    try:
        proxy_port = parts.port or 80
    except ValueError as exc:
        raise HarvestError(f"proxy {proxy!r} is not a valid URL: {exc}") from None
    if parts.scheme != "http" or not parts.hostname:
        raise HarvestError(f"unsupported proxy {proxy!r}: only http:// proxies work")
    auth = {}
    if parts.username is not None:
        user = f"{unquote(parts.username)}:{unquote(parts.password or '')}"
        auth["Proxy-Authorization"] = "Basic " + base64.b64encode(
            user.encode("utf-8")).decode("ascii")
    return parts.hostname, proxy_port, auth


class ChatClient:
    """Requests to one teacher's chat completions URL, and connections to
    send them on.  Redirects are not followed."""

    def __init__(self, teacher: TeacherProfile, api_key: str, timeout: float):
        url = teacher.endpoint_url.rstrip("/") + "/chat/completions"
        parts = urlsplit(url)
        https = parts.scheme == "https"
        host = parts.hostname
        port = parts.port or (443 if https else 80)  # TeacherProfile checked it
        target = parts.path + (f"?{parts.query}" if parts.query else "")
        headers = {
            "Host": parts.netloc.rpartition("@")[2],
            "Accept-Encoding": "identity",
            "Authorization": f"Bearer {api_key}",
            "Content-Type": "application/json",
            "User-Agent": "stepladder",
        }
        self.teacher = teacher
        self.timeout = timeout
        self.host = host
        proxy = _proxy_for(parts.scheme, host, port)
        name, self.port = (host, port) if proxy is None else proxy[:2]
        # getaddrinfo encodes a str host with the idna codec, whose import
        # (with stringprep and unicodedata) an ASCII name does not need.
        # (A URL like "http://:80" has no host: None looks up the loopback.)
        self.name = name.encode("ascii") if name is not None and name.isascii() else name
        self.addresses = None  # getaddrinfo() of (name, port), once looked up
        self.tunnel = None  # the CONNECT request for the proxy, if any
        self.context = None
        # What a non-blocking read raises when nothing has arrived; TLS
        # adds its own, for a record not yet whole or for housekeeping.
        self.nothing_yet = (BlockingIOError,)
        if https:
            import ssl

            # One context for every connection: loading the trust store
            # is the expensive part of a TLS set-up.
            self.context = ssl.create_default_context()
            self.nothing_yet += (ssl.SSLWantReadError,)
            self.context.set_alpn_protocols(["http/1.1"])
            if proxy is not None:
                authority = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
                lines = [f"CONNECT {authority} HTTP/1.0",
                         *(f"{k}: {v}" for k, v in proxy[2].items()), "", ""]
                self.tunnel = "\r\n".join(lines).encode("latin-1")
        elif proxy is not None:
            target = url  # absolute form, for the proxy to forward
            headers.update(proxy[2])
        head = [f"POST {target} HTTP/1.1", *(f"{k}: {v}" for k, v in headers.items())]
        if " " in target or any(_UNSAFE.search(line) for line in head):
            raise HarvestError("endpoint URL, API key or proxy holds a space or control character")
        self._head = "\r\n".join([*head, "Content-Length: "]).encode("utf-8")

    def request(self, system_text: str, user_text: str) -> bytes:
        """The whole POST for one completion, head and body together."""
        body = json.dumps({
            "model": self.teacher.model_name,
            "messages": [
                {"role": "system", "content": system_text},
                {"role": "user", "content": user_text},
            ],
            "temperature": self.teacher.temperature,
        }).encode("utf-8")
        return b"%s%d\r\n\r\n%s" % (self._head, len(body), body)

    @staticmethod
    def content(status: int, data: bytes) -> str:
        """The message text of a final (not 429, not 5xx) response."""
        if status != 200:
            text = data.decode("utf-8", "replace")
            raise HarvestError(f"HTTP {status}: {text[:200]}")
        try:
            text = json.loads(data)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            raise HarvestError("malformed response body (no message content)")
        if not isinstance(text, str):
            raise HarvestError("malformed response body (content is not text)")
        if not is_text(text):  # neither cached nor written out
            raise HarvestError("malformed response body (content is not valid Unicode)")
        return text


class Connection:
    """One connection to the endpoint, carrying one request at a time.

    Opening it (the TCP connect to each of the address's IPs in turn, the
    proxy's CONNECT and the TLS handshake) and reading each response go
    on as its socket turns ready.  The connection keeps its socket
    registered with the caller's selector for the event it waits on, with
    itself as the key's data; advance() is called on each such event and
    once deadline has passed with no progress.  Errors are raised as
    OSError.  An idle connection turns readable only when the server
    closes it (or breaks the protocol); advance() then raises, so the
    caller drops it before a request is written to it, and every request
    sent is one the server reads.
    """

    def __init__(self, client: ChatClient, selector: selectors.BaseSelector):
        self.client = client
        self.selector = selector
        self.sock = None
        self.reusable = False  # set when a response is whole
        self.deadline = math.inf  # a request is given up if this passes
        self._event = None  # what the socket is registered with selector for
        self._buffer = bytearray()  # what has arrived and is not yet parsed
        self._exchange = None  # the request under way, as a generator

    def start(self, request: bytes) -> None:
        """Open the connection if it is new, then send request whole."""
        self._exchange = self._run(request)
        self._resume(None)

    def advance(self, expired: bool = False) -> Optional[tuple[int, bytes]]:
        """Go on after an event, or after the deadline if expired:
        (status, body) once the response is whole, else None."""
        if self._exchange is not None:
            return self._resume(expired)
        if not self._quiet():
            raise ConnectionError("idle connection turned readable")
        return None

    def close(self) -> None:
        self._watch(None)
        if self.sock is not None:
            self.sock.close()

    def _resume(self, expired: Optional[bool]) -> Optional[tuple[int, bytes]]:
        try:
            event = self._exchange.send(expired)
        except StopIteration as done:
            self._exchange = None
            self.deadline = math.inf
            return done.value
        except ValueError as exc:  # a number in the response did not parse
            raise ConnectionError(f"malformed response: {exc}") from None
        # Any progress restarts the clock, as a blocking socket's timeout
        # does for each of its calls.
        self.deadline = time.monotonic() + self.client.timeout
        self._watch(event)
        return None

    def _watch(self, event: Optional[int]) -> None:
        """Register the socket for event (None: for nothing).  The TLS
        handshake wraps the socket but keeps its descriptor."""
        if event == self._event:
            return
        if event is None:
            self.selector.unregister(self.sock.fileno())
        elif self._event is None:
            self.selector.register(self.sock.fileno(), event, self)
        else:
            self.selector.modify(self.sock.fileno(), event, self)
        self._event = event

    def _run(self, request: bytes):
        """One exchange, as a generator that yields the selector event it
        waits for, is sent whether the deadline passed instead, and
        returns (status, body)."""
        if self.sock is None:
            yield from self._open()
        self._send(request)
        status, _reason, headers, keep = yield from self._head()
        while 100 <= status < 200:  # an interim response: the final one follows
            status, _reason, headers, keep = yield from self._head()
        if status in (204, 304):
            body = b""
        elif "chunked" in headers.get("transfer-encoding", "").lower():
            body = bytearray()
            while size := _number((yield from self._line()).split(b";")[0], 16):
                _bounded(len(body) + size)
                body += (yield from self._take(size + 2))[:-2]
            while (yield from self._line()):  # trailers, up to an empty line
                pass
        elif "content-length" in headers:
            body = yield from self._take(
                _bounded(_number(headers["content-length"].encode(), 10)))
        else:  # the body ends where the connection does
            keep = False
            while (yield from self._fill(until_close=True)):
                pass
            body = self._buffer
            self._buffer = bytearray()
        # A server that closed the connection (or sent more) right after the
        # response has made it readable already.
        self.reusable = keep and not self._buffer and self._quiet()
        return status, bytes(body)

    def _open(self):
        client = self.client
        if client.addresses is None:
            try:
                client.addresses = socket.getaddrinfo(client.name, client.port,
                                                      type=socket.SOCK_STREAM)
            except UnicodeError as exc:  # a name the idna codec cannot encode
                raise OSError(f"bad host name {client.name!r}: {exc}") from None
        for family, kind, proto, _name, address in client.addresses:
            self.sock = socket.socket(family, kind, proto)
            self.sock.setblocking(False)
            error = self.sock.connect_ex(address)
            if error == errno.EINPROGRESS:
                expired = yield selectors.EVENT_WRITE
                error = errno.ETIMEDOUT if expired else self.sock.getsockopt(
                    socket.SOL_SOCKET, socket.SO_ERROR)
            if not error:
                break
            self.close()
        else:
            client.addresses = None  # look the name up again next time
            raise TimeoutError("timed out") if error == errno.ETIMEDOUT \
                else OSError(error, os.strerror(error))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if client.tunnel is not None:
            self._send(client.tunnel)
            status, reason, _headers, _keep = yield from self._head()
            if status != 200:
                raise OSError(f"Tunnel connection failed: {status} {reason}")
        if client.context is not None:
            import ssl  # loaded already, with the context

            self.sock = client.context.wrap_socket(
                self.sock, server_hostname=client.host, do_handshake_on_connect=False)
            while True:
                try:
                    self.sock.do_handshake()
                    break
                except ssl.SSLWantReadError:
                    expired = yield selectors.EVENT_READ
                except ssl.SSLWantWriteError:
                    expired = yield selectors.EVENT_WRITE
                if expired:
                    raise TimeoutError("timed out")

    def _send(self, data: bytes) -> None:
        # Written whole with one call, waiting for buffer space if need be.
        self.sock.settimeout(self.client.timeout)
        self.sock.sendall(data)
        self.sock.setblocking(False)

    def _head(self):
        """Read a response head: (status, reason, headers by lower-case
        name, whether the server lets the connection be kept)."""
        lines = (yield from self._line(b"\r\n\r\n")).decode("latin-1").split("\r\n")
        version, status, reason = (lines[0].split(None, 2) + [""])[:3]
        if not (version.startswith("HTTP/1.") and len(status) == 3 and status.isdecimal()):
            raise ConnectionError(f"malformed status line {lines[0][:80]!r}")
        headers = {}
        for line in lines[1:]:
            name, _colon, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        tokens = headers.get("connection", "").lower()
        keep = "keep-alive" in tokens if version == "HTTP/1.0" else "close" not in tokens
        return int(status), reason, headers, keep

    def _line(self, end: bytes = b"\r\n"):
        """Read up to end, which is consumed too."""
        start = 0
        while (found := self._buffer.find(end, start)) < 0:
            if len(self._buffer) > 65536:
                raise ConnectionError("response head or chunk line too long")
            start = max(0, len(self._buffer) - len(end) + 1)
            yield from self._fill()
        line = bytes(self._buffer[:found])
        del self._buffer[:found + len(end)]
        return line

    def _take(self, size: int):
        """Read exactly size bytes."""
        while len(self._buffer) < size:
            yield from self._fill()
        data = bytes(self._buffer[:size])
        del self._buffer[:size]
        return data

    def _fill(self, until_close: bool = False):
        """Wait for more data.  Once the server has closed, return False
        if the response ends there, else raise.  What has arrived of a
        response that ends there is a body, bounded by MAX_BODY."""
        if until_close:
            _bounded(len(self._buffer))
        while True:
            if (yield selectors.EVENT_READ):
                raise TimeoutError("timed out")
            try:
                # 64 KiB is more than a TLS record holds, so one call
                # drains the record that made the socket readable.
                data = self.sock.recv(65536)
            except self.client.nothing_yet:  # e.g. TLS housekeeping
                continue
            if not (data or until_close):
                raise ConnectionError("the server closed the connection mid-response")
            self._buffer += data
            return bool(data)

    def _quiet(self) -> bool:
        """Whether nothing has arrived: no data, and no close."""
        try:
            self.sock.recv(1)
        except OSError as exc:  # a reset is no better than a close
            return isinstance(exc, self.client.nothing_yet)
        return False


def _bounded(size: int) -> int:
    """size, if a body may hold that many bytes; else ConnectionError."""
    if size > MAX_BODY:
        raise ConnectionError(f"response body over {MAX_BODY} bytes")
    return size


def _number(text: bytes, base: int) -> int:
    """A Content-Length or chunk size; ValueError if it is not one.  Only
    digits are taken: no sign, "_" or "0x" prefix, which int() allows."""
    if not re.fullmatch(rb"[0-9A-Fa-f]+", text.strip()):
        raise ValueError(f"bad length {text[:20]!r}")
    return int(text, base)
