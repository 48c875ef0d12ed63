"""A stdlib client for OpenAI-compatible chat completions endpoints.

The harvester imports this module only when it has requests to send, so
the HTTP and TLS modules stay out of every other subcommand's start-up.
Proxies come from the environment (http_proxy, https_proxy, all_proxy,
no_proxy); TLS is verified against the system trust store, which
SSL_CERT_FILE and SSL_CERT_DIR override.
"""

from __future__ import annotations

import base64
import http.client
import json
import select
import ssl
import threading
import time
import urllib.request
from typing import TYPE_CHECKING, Optional
from urllib.parse import unquote, urlsplit

from .errors import HarvestError

if TYPE_CHECKING:
    from .harvester import HarvestJob, _RateLimiter


def _proxy_for(scheme: str, host: str,
               port: int) -> Optional[tuple[str, int, dict[str, str]]]:
    """(host, port, auth headers) of the environment's proxy for this
    endpoint, or None when no proxy applies or no_proxy exempts it."""
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
    """POSTs to one chat completions URL, one keep-alive connection per
    worker thread.

    A connection that raised is closed, and the next request on that
    thread reconnects.  An idle connection the server has closed is
    replaced before a request is written to it, so every request sent
    is one the server reads.  Redirects are not followed.
    """

    def __init__(self, endpoint_url: str, api_key: str, timeout: float):
        url = endpoint_url.rstrip("/") + "/chat/completions"
        parts = urlsplit(url)
        https = parts.scheme == "https"
        host = parts.hostname
        try:
            port = parts.port or (443 if https else 80)
        except ValueError as exc:
            raise HarvestError(f"endpoint_url has a bad port: {exc}") from None
        self.target = parts.path + (f"?{parts.query}" if parts.query else "")
        self.headers = {
            "Authorization": f"Bearer {api_key}",
            "Content-Type": "application/json",
            "User-Agent": "stepladder",
        }
        self.timeout = timeout
        proxy = _proxy_for(parts.scheme, host, port)
        self.address = (host, port) if proxy is None else proxy[:2]
        self.tunnel = None
        self.context = None
        if https:
            # One context for every connection: loading the trust store
            # is the expensive part of a TLS set-up.
            self.context = ssl.create_default_context()
            self.context.set_alpn_protocols(["http/1.1"])
            if proxy is not None:
                self.tunnel = (host, port, proxy[2])
        elif proxy is not None:
            self.target = url  # absolute form, for the proxy to forward
            self.headers.update(proxy[2])
        self._local = threading.local()
        self._conns: list[http.client.HTTPConnection] = []

    def _new_conn(self) -> http.client.HTTPConnection:
        if self.context is None:
            return http.client.HTTPConnection(*self.address, timeout=self.timeout)
        conn = http.client.HTTPSConnection(*self.address, timeout=self.timeout,
                                           context=self.context)
        if self.tunnel is not None:
            conn.set_tunnel(*self.tunnel)
        return conn

    def _conn(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._new_conn()
            self._conns.append(conn)
        elif conn.sock is not None and select.select([conn.sock], [], [], 0)[0]:
            # An idle connection only turns readable when the server has
            # closed it (or broken the protocol): reconnect.
            conn.close()
        return conn

    def post(self, body: bytes) -> tuple[int, bytes]:
        conn = self._conn()
        try:
            conn.request("POST", self.target, body, self.headers)
            resp = conn.getresponse()
            return resp.status, resp.read()
        except BaseException:
            conn.close()
            raise

    def close(self) -> None:
        for conn in self._conns:
            conn.close()


def fetch(client: ChatClient, job: HarvestJob, system_text: str,
          user_text: str, limiter: _RateLimiter) -> str:
    """One paced, retried chat completion request.  Returns the content."""
    body = json.dumps({
        "model": job.teacher.model_name,
        "messages": [
            {"role": "system", "content": system_text},
            {"role": "user", "content": user_text},
        ],
        "temperature": job.teacher.temperature,
    }).encode("utf-8")
    last = "no attempt made"
    for attempt in range(job.max_retries + 1):
        if attempt:
            time.sleep(job.backoff_base * 2 ** (attempt - 1))
        limiter.acquire()
        try:
            status, data = client.post(body)
        except (OSError, http.client.HTTPException) as exc:
            last = f"network error: {exc}"
            continue
        if status == 429 or status >= 500:
            last = f"HTTP {status}"
            continue
        if status != 200:
            text = data.decode("utf-8", "replace")
            raise HarvestError(f"HTTP {status}: {text[:200]}")
        try:
            content = json.loads(data)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            raise HarvestError("malformed response body (no message content)")
        if not isinstance(content, str):
            raise HarvestError("malformed response body (content is not text)")
        try:
            content.encode("utf-8")
        except UnicodeEncodeError:
            # A lone surrogate escape ("\ud800") parses but can be neither
            # cached nor written out.
            raise HarvestError("malformed response body (content is not valid Unicode)")
        return content
    raise HarvestError(f"{last} after {job.max_retries + 1} attempts")
