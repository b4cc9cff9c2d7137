"""Tiny scripted HTTP server for exercising the generation client offline."""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        self.server.requests.append(
            {
                "method": self.command,
                "path": self.path,
                "body": body,
                "authorization": self.headers.get("Authorization"),
                "content_type": self.headers.get("Content-Type"),
            }
        )
        script = self.server.script
        status, payload, *headers = script[
            min(len(self.server.requests) - 1, len(script) - 1)
        ]
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    do_GET = do_POST  # a 301, 302 or 303 redirect turns the POST into a GET

    def log_message(self, *args):
        pass


@contextmanager
def stub_server(script):
    """Serve scripted (status, payload) responses; repeats the last one.

    Payloads may be dicts (sent as JSON) or raw bytes; a third item, a dict,
    adds response headers. Yields the server object; `server.url` is the
    endpoint and `server.requests` the log.
    """
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.script = list(script)
    server.requests = []
    server.url = f"http://127.0.0.1:{server.server_port}/generate"
    # A short poll interval lets shutdown() return in milliseconds.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
