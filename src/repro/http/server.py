"""A static HTTP/HTTPS server on the simulated stack.

Serves byte resources from an in-memory tree.  With a
:class:`~repro.tlslib.library.TlsLibrary` it speaks HTTPS; without one,
plain HTTP.  Each request charges a small service cost on the host CPU
(the ``http_server_service`` constant), which is what the Table I
latency baseline consists of besides network time.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

from repro.costs.model import CostModel, default_cost_model
from repro.netsim.host import Host
from repro.netsim.tcp import TcpError
from repro.tlslib.library import TlsAlert, TlsLibrary

ContentProvider = Union[bytes, Callable[[], bytes]]


class HttpServer:
    """Static content server; one process per connection."""

    def __init__(
        self,
        host: Host,
        port: int = 80,
        tls: Optional[TlsLibrary] = None,
        cost_model: Optional[CostModel] = None,
        charge_cpu: bool = True,
    ) -> None:
        self.host = host
        self.sim = host.sim
        self.port = port
        self.tls = tls
        self.model = cost_model or default_cost_model()
        self.charge_cpu = charge_cpu
        self.resources: Dict[str, ContentProvider] = {}
        self.requests_served = 0
        #: fault-injection state: while suspended the server still
        #: accepts connections (the listener is kernel state) but answers
        #: 503 — connections must not hang, because HttpClient has no
        #: read timeout
        self.suspended = False
        self.requests_rejected = 0
        self._started = False

    def add_resource(self, path: str, content: ContentProvider) -> None:
        """Register a resource; ``content`` may be a provider callable."""
        self.resources[path] = content

    def start(self) -> None:
        """Start the component's simulation processes."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self.sim.process(self._accept_loop(), name=f"{self.host.name}.http:{self.port}")

    # ------------------------------------------------------------------
    def _accept_loop(self):
        listener = self.host.stack.tcp.listen(self.port)
        while True:
            conn = yield listener.accept()
            self.sim.process(self._serve(conn), name=f"{self.host.name}.http-conn")

    def _serve(self, conn):
        try:
            if self.tls is not None:
                stream = yield from self.tls.server_handshake(conn)
            else:
                stream = _PlainStream(conn)
            while True:
                request = yield from stream.read_until(b"\r\n\r\n")
                if self.suspended:
                    self.requests_rejected += 1
                    stream.send(_response(503, b"service unavailable"))
                    break
                response = self._respond(request)
                if self.charge_cpu:
                    yield self.host.run(
                        self.model.http_server_service
                        + len(response) * self.model.http_server_per_byte
                    )
                stream.send(response)
                self.requests_served += 1
                if b"Connection: close" in request:
                    break
        except (TcpError, TlsAlert):
            return  # peer went away; nothing to clean up in the sim

    def _respond(self, request: bytes) -> bytes:
        try:
            request_line = request.split(b"\r\n", 1)[0].decode()
            method, path, _version = request_line.split(" ", 2)
        except ValueError:
            return _response(400, b"bad request")
        if method != "GET":
            return _response(405, b"method not allowed")
        provider = self.resources.get(path)
        if provider is None:
            return _response(404, b"not found")
        body = provider() if callable(provider) else provider
        return _response(200, body)


def _response(status: int, body: bytes) -> bytes:
    reasons = {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        405: "Method Not Allowed",
        503: "Service Unavailable",
    }
    return (
        f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


class _PlainStream:
    """Adapter giving a raw TCP connection the TlsStream interface."""

    def __init__(self, conn) -> None:
        self.conn = conn

    def send(self, data: bytes) -> None:
        self.conn.send(data)

    def read_until(self, delimiter: bytes):
        return (yield from self.conn.read_until(delimiter))

    def read_exactly(self, count: int):
        return (yield from self.conn.read_exactly(count))

    def close(self) -> None:
        self.conn.close()
