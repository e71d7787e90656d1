"""Real HTTP binding for the gateway, for `doorsim serve-cloud` and tests.

A thin translation layer: HTTP requests become :class:`ApiRequest` values,
responses are canonical JSON. All behaviour lives in the service object,
whose ``_error`` also builds the refusal of a request that never reaches it.
Every method, one that ``http.server`` has no name for too, goes to the
service. A body whose JSON holds a lone surrogate escape (``"\\ud800"``) is
refused like one that is not JSON: no UTF-8 reply could carry it back.

Each connection gets its own thread, but the service is single-threaded:
one lock per server admits one :meth:`CloudService.handle` call at a time.
Reading the request and writing the response stay outside it, and so does
the drain: once the reply is written, the server ends its side of the
connection and reads and drops what the client still sends (a body longer
than its ``content-length``), at most :data:`DRAIN_BYTES` within
:data:`DRAIN_SECONDS`, until the client ends its side. A socket closed with
bytes unread resets the connection, which a client can see as a failed
send, a lost reply or a failed shutdown.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from ..errors import ProtocolError
from ..model import _decimal, canonical_json
from .service import ApiRequest, ApiResponse, CloudService, _error

__all__ = ["serve", "CloudHTTPServer", "DRAIN_BYTES", "DRAIN_SECONDS"]

# What a connection may still send after its reply is read and dropped, up to
# this many bytes and for this long; then the server closes it as it is.
DRAIN_BYTES = 1 << 20
DRAIN_SECONDS = 1.0


class CloudHTTPServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, service: CloudService):
        super().__init__(address, _Handler)
        self.service = service
        self.service_lock = threading.Lock()


class _Handler(BaseHTTPRequestHandler):
    server: CloudHTTPServer

    def _dispatch(self) -> None:
        """Any method goes to the service, which answers one it has no route for."""
        url = urlsplit(self.path)
        body = None
        header = self.headers.get("content-length") or "0"
        if not _decimal(header):  # ASCII digits; int() would also take "+19", "1_9", "-0"
            self._protocol_error("content-length must be a non-negative integer")
            return
        length = int(header)
        if length:
            raw = self.rfile.read(length)
            try:
                body = json.loads(raw)
                json.dumps(body, ensure_ascii=False).encode("utf-8")  # no lone surrogate
            except (ValueError, RecursionError):  # not JSON, not text, or nested too deep
                self._protocol_error("body is not JSON")
                return
        request = ApiRequest(
            method=self.command,
            path=url.path,
            headers={k.lower(): v for k, v in self.headers.items()},
            body=body,
            query=dict(parse_qsl(url.query)),
        )
        with self.server.service_lock:
            response = self.server.service.handle(request)
        self._write(response)

    def _protocol_error(self, message: str) -> None:
        self._write(_error(ProtocolError(message)))

    def _write(self, response: ApiResponse) -> None:
        payload = canonical_json(response.body).encode("utf-8")
        self.send_response(response.status)
        self.send_header("content-type", "application/json")
        self.send_header("content-length", str(len(payload)))
        self.end_headers()
        if self.command != "HEAD":  # HEAD: the headers of the reply, no body (RFC 9110, 9.3.2)
            self.wfile.write(payload)

    def finish(self) -> None:
        super().finish()  # the reply is flushed
        self._drain()

    def _drain(self) -> None:
        """End the server's side, then read what the client sends until it
        ends its side or the byte or time bound is reached."""
        connection = self.connection
        deadline = time.monotonic() + DRAIN_SECONDS
        left = DRAIN_BYTES
        try:
            connection.shutdown(socket.SHUT_WR)
            while left > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                connection.settimeout(remaining)
                chunk = connection.recv(min(left, 65536))
                if not chunk:  # the client ended its side
                    return
                left -= len(chunk)
        except OSError:  # timed out, or the client is gone: close as it is
            pass

    def __getattr__(self, name: str):
        """``http.server`` calls ``do_<METHOD>``; for any method, that is ``_dispatch``."""
        if name.startswith("do_"):
            return self._dispatch
        raise AttributeError(name)

    def log_message(self, format: str, *args) -> None:  # silence per-request logging
        pass


def serve(service: CloudService, host: str = "127.0.0.1", port: int = 8750) -> CloudHTTPServer:
    """Start the gateway on a background thread; caller shuts it down."""
    server = CloudHTTPServer((host, port), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server
