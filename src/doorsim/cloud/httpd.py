"""Real HTTP binding for the gateway, for `doorsim serve-cloud` and tests.

A thin translation layer: HTTP requests become :class:`ApiRequest` values,
responses are canonical JSON. All behaviour lives in the service object.

Each connection gets its own thread, but the service is single-threaded:
one lock per server admits one :meth:`CloudService.handle` call at a time.
Reading the request and writing the response stay outside it.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from ..model import _decimal, canonical_json
from .service import ApiRequest, CloudService

__all__ = ["serve", "CloudHTTPServer"]


class CloudHTTPServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, service: CloudService):
        super().__init__(address, _Handler)
        self.service = service
        self.service_lock = threading.Lock()


class _Handler(BaseHTTPRequestHandler):
    server: CloudHTTPServer

    def _dispatch(self, method: str) -> None:
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
            except ValueError:  # not JSON, or not decodable text
                self._protocol_error("body is not JSON")
                return
        request = ApiRequest(
            method=method,
            path=url.path,
            headers={k.lower(): v for k, v in self.headers.items()},
            body=body,
            query=dict(parse_qsl(url.query)),
        )
        with self.server.service_lock:
            response = self.server.service.handle(request)
        self._write(response.status, response.body)

    def _protocol_error(self, message: str) -> None:
        self._write(400, {"ok": False, "error": {"code": "protocol", "message": message}})

    def _write(self, status: int, body) -> None:
        payload = canonical_json(body).encode("utf-8")
        self.send_response(status)
        self.send_header("content-type", "application/json")
        self.send_header("content-length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def log_message(self, format: str, *args) -> None:  # silence per-request logging
        pass


def serve(service: CloudService, host: str = "127.0.0.1", port: int = 8750) -> CloudHTTPServer:
    """Start the gateway on a background thread; caller shuts it down."""
    server = CloudHTTPServer((host, port), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server
