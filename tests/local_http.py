"""A local HTTP endpoint on 127.0.0.1 for testing the default transports.

Kept apart from ``corpus`` because the benchmark imports that module, and
``http.server`` would add its imports to every benchmark process.
"""

from __future__ import annotations

import os
import socket
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer
from unittest import mock


@contextmanager
def http_endpoint(respond):
    """Serve GET and POST on 127.0.0.1 with ``respond(path) -> (status, body, content_type)``.

    Yields ``(base_url, received)``; every request is appended to
    ``received`` as ``(method, path, headers, body bytes)``.
    """
    received = []

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            body = self.rfile.read(int(self.headers.get("Content-Length") or 0))
            received.append((self.command, self.path, self.headers, body))
            status, payload, content_type = respond(self.path)
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        do_POST = do_GET

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.02,), daemon=True)
    thread.start()
    try:
        # a proxy configured in the environment must not see these requests
        with mock.patch.dict(os.environ, {"no_proxy": "127.0.0.1"}):
            yield f"http://127.0.0.1:{server.server_port}", received
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def closed_port_url() -> str:
    """URL of a local port nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"
