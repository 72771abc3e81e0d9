"""HTTP/JSON front door for a serving fleet.

A small HTTP/1.1 server on the stdlib ``socketserver`` (no third-party
deps) exposing the four query families as POST endpoints::

    POST /v1/embeddings  {"ids": [0, 1, 2]}
    POST /v1/score       {"pairs": [[0, 5], [1, 9]]}       # or [s, r, d]
    POST /v1/topk        {"source": 0, "k": 5, "rel": 0, "exclude": [0]}
    POST /v1/encode      {"ids": [0, 1], "seed": null}

plus ``GET /healthz`` (``ok`` / ``degraded``, HTTP 503 when degraded)
and ``GET /statz`` (per-worker engine/storage/admission stats, gateway
counters, the router's ownership ranges).

The HTTP it speaks is the subset those endpoints need. Each connection
is a keep-alive loop: the request line and headers are read as bytes,
and of the headers only ``Content-Length``, ``Connection`` and
``Expect: 100-continue`` matter. A body must come with a
``Content-Length`` (no chunked bodies). A line over :data:`MAX_LINE`
bytes or a head of more than :data:`MAX_HEADERS` header lines is
answered with a 400 DTO, and so is a body length that is missing, not
an integer or over the frame limit; each of those closes the
connection, since the bytes that follow cannot be trusted to start the
next request. Every reply leaves in one ``sendall``. HTTP/1.0 clients
get ``Connection: close`` unless they ask for ``keep-alive``.

The gateway validates just enough to *route* — the body must be a JSON
object carrying the request's lead node id (first looked-up id, first
source, the top-k source). Everything else is validated by the owning
worker, which renders every reply's HTTP status and body itself (see
:mod:`~repro.fleet.protocol`): the gateway forwards unchanged the
answer bytes and the structured error DTO ``{"error": {"code",
"message"}}`` alike, parsing neither. It renders only its own replies:
the 400s of a malformed request, the 503 of an unreachable worker,
404/405 and the ``/healthz`` and ``/statz`` documents.
A worker whose socket is gone and whose process is dead yields 503 for
its partition range and flips ``/healthz`` to ``degraded``; other
ranges keep serving.

Each client connection's handler thread owns its worker connections:
it dials a worker on the first query routed there, drops the connection
if the worker becomes unreachable, and closes them all when the client
connection ends. :meth:`Gateway.stop` shuts the read side of every
client connection: an idle handler sees the end of the stream and
retires, while one answering a request still sends its reply.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from typing import Any, Dict, Optional, Tuple

from .protocol import (_ERROR_STATUS, MAX_FRAME, WorkerClient,
                       WorkerUnavailable)

__all__ = ["Gateway", "MAX_LINE", "MAX_HEADERS"]

Reply = Tuple[int, bytes]

#: Longest request line or header line read, terminator included.
MAX_LINE = 64 << 10
#: Most header lines in one request head.
MAX_HEADERS = 100

_STATUS_LINE = {s.value: f"HTTP/1.1 {s.value} {s.phrase}\r\n".encode("ascii")
                for s in HTTPStatus}
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


def _error(code: str, message: str, status: Optional[int] = None) -> Reply:
    """One of the gateway's own error DTOs, rendered."""
    body = json.dumps({"error": {"code": code, "message": message}})
    return status or _ERROR_STATUS[code], body.encode("utf-8")


class _BadRequest(ValueError):
    """A request the gateway answers 400 without routing it."""


#: A request head: method, path, keep-alive, ``Content-Length`` (``None``
#: if absent, -1 if not a valid length) and ``Expect: 100-continue``.
_Head = Tuple[bytes, str, bool, Optional[int], bool]


def _read_line(rfile) -> bytes:
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise _BadRequest(f"request line or header line exceeds "
                          f"{MAX_LINE} bytes")
    return line


def _read_head(rfile) -> Optional[_Head]:
    """The next request's head; ``None`` when the client closed."""
    line = _read_line(rfile)
    if line in (b"\r\n", b"\n"):      # a stray CRLF after a previous body
        line = _read_line(rfile)
    if not line:
        return None
    parts = line.split()
    if len(parts) != 3 or not parts[2].startswith(b"HTTP/1."):
        raise _BadRequest(f"malformed request line {line[:80]!r}")
    http11 = parts[2] != b"HTTP/1.0"
    keep_alive, length, expect = http11, None, False
    for _ in range(MAX_HEADERS + 1):
        line = _read_line(rfile)
        if line in (b"\r\n", b"\n", b""):
            path = parts[1].split(b"?", 1)[0].decode("latin-1")
            return parts[0], path, keep_alive, length, expect
        name, _, value = line.partition(b":")
        name = name.strip().lower()
        if name == b"content-length":
            value = value.strip()
            value = int(value) if value.isdigit() else -1
            length = value if length in (None, value) else -1
        elif name == b"connection":
            tokens = {t.strip() for t in value.lower().split(b",")}
            if b"close" in tokens:
                keep_alive = False
            elif b"keep-alive" in tokens:
                keep_alive = True
        elif name == b"expect":
            expect = http11 and value.strip().lower() == b"100-continue"
    raise _BadRequest(f"request head has more than {MAX_HEADERS} "
                      f"header lines")


def _read_body(rfile, sock, length: Optional[int],
               expect: bool) -> Optional[bytes]:
    """The request body; ``None`` if the client closed mid-body."""
    if not length:
        raise _BadRequest("request body required")
    if length < 0:
        raise _BadRequest("Content-Length must be a non-negative integer")
    if length > MAX_FRAME:
        raise _BadRequest(f"request body of {length} bytes exceeds the "
                          f"{MAX_FRAME} byte limit")
    if expect:
        sock.sendall(_CONTINUE)
    raw = rfile.read(length)
    return raw if len(raw) == length else None


def _lead_id(path: str, body: Dict[str, Any]) -> int:
    """The routing key: the node id the request is 'about'."""
    if path in ("/v1/embeddings", "/v1/encode"):
        ids = body.get("ids")
        if (not isinstance(ids, list) or not ids
                or not isinstance(ids[0], int) or isinstance(ids[0], bool)):
            raise ValueError("'ids' must be a non-empty list of integers")
        return ids[0]
    if path == "/v1/score":
        pairs = body.get("pairs")
        if (not isinstance(pairs, list) or not pairs
                or not isinstance(pairs[0], list) or not pairs[0]
                or not isinstance(pairs[0][0], int)
                or isinstance(pairs[0][0], bool)):
            raise ValueError("'pairs' must be a non-empty list of "
                               "[src, dst] or [src, rel, dst] rows")
        return pairs[0][0]
    if path == "/v1/topk":
        src = body.get("source")
        if not isinstance(src, int) or isinstance(src, bool):
            raise ValueError("'source' must be an integer node id")
        return src
    raise ValueError(f"no route for {path}")


#: HTTP path -> worker protocol op.
_OPS = {"/v1/embeddings": "embed", "/v1/score": "score",
        "/v1/topk": "topk", "/v1/encode": "encode"}
#: The paths ``/statz`` counts by name; any other counts as ``other``.
_ROUTES = {*_OPS, "/healthz", "/statz"}


class _Handler(socketserver.StreamRequestHandler):
    """One client connection: answer requests until one closes it."""

    disable_nagle_algorithm = True

    def handle(self) -> None:
        gateway = self.server.gateway                 # type: ignore[attr-defined]
        clients: Dict[int, WorkerClient] = {}   # worker -> its client
        try:
            while gateway._exchange(self.rfile, self.connection, clients):
                pass
        except OSError:
            pass                    # client went away; nothing to salvage
        finally:
            for client in clients.values():
                client.close()


class _Server(socketserver.ThreadingTCPServer):
    daemon_threads = False      # join in-flight handlers on server_close
    block_on_close = True
    allow_reuse_address = True

    def process_request(self, request, client_address) -> None:
        # On the accept thread, so once shutdown() returns every accepted
        # connection is in the set.
        self.connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        self.connections.discard(request)
        super().shutdown_request(request)


class Gateway:
    """The fleet's HTTP server; routes each request to its owning worker."""

    def __init__(self, fleet, host: str = "127.0.0.1", port: int = 0) -> None:
        self.fleet = fleet
        self._server = _Server((host, port), _Handler)
        self._server.gateway = self
        self._server.connections = set()    # open client sockets
        self.host, self.port = self._server.server_address[:2]
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self.counters: Dict[str, int] = {}
        self._date = (0, b"")       # (second, its Date header line)

    # ------------------------------------------------------------------
    def start(self) -> "Gateway":
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="fleet-gateway", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, end idle connections and join the handler
        threads once their in-flight requests are answered."""
        self._server.shutdown()
        for conn in list(self._server.connections):
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass                # its handler closed it meanwhile
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _count(self, key: str) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + 1

    # ------------------------------------------------------------------
    def _exchange(self, rfile, sock,
                  clients: Dict[int, WorkerClient]) -> bool:
        """Read one request, send its reply; whether the connection
        stays open for the next one. ``clients`` holds the connection's
        worker clients."""
        try:
            head = _read_head(rfile)
        except _BadRequest as exc:
            self._send(sock, "-", *_error("bad_request", str(exc)), False)
            return False
        if head is None:
            return False
        method, path, keep, length, expect = head
        try:
            if method == b"POST" and path in _OPS:
                raw = _read_body(rfile, sock, length, expect)
                if raw is None:
                    return False                    # closed mid-body
                status, body = self._query(path, raw, clients)
            elif method == b"GET" and path == "/healthz":
                status, body = self._healthz()
            elif method == b"GET" and path == "/statz":
                status, body = self._statz()
            else:
                keep = False                        # any body stays unread
                if path in _OPS or path in ("/healthz", "/statz"):
                    verb = method.decode("latin-1")
                    status, body = _error(
                        "bad_request", f"{verb} not allowed on {path}", 405)
                else:
                    status, body = _error("not_found", f"no route for {path}")
            if method == b"GET" and length:
                keep = False                        # a GET's body is unread
        except _BadRequest as exc:
            # A body left unread on the socket would be parsed as the next
            # request line: answer, then hang up.
            keep = False
            status, body = _error("bad_request", str(exc))
        except Exception as exc:    # a gateway bug must still answer JSON
            status, body = _error("internal",
                                  f"{type(exc).__name__}: {exc}")
        self._send(sock, path, status, body, keep)
        return keep

    def _send(self, sock, path: str, status: int, body: bytes,
              keep: bool) -> None:
        """The whole reply, head and body, in one ``sendall``."""
        self._count(f"http.{path if path in _ROUTES else 'other'}.{status}")
        second = int(time.time())
        stamp, date = self._date
        if stamp != second:
            date = f"Date: {formatdate(second, usegmt=True)}\r\n".encode()
            self._date = (second, date)
        sock.sendall(b"%s%sContent-Type: application/json\r\n"
                     b"Content-Length: %d\r\n%s\r\n%s" % (
                         _STATUS_LINE[status], date, len(body),
                         b"" if keep else b"Connection: close\r\n", body))

    def _query(self, path: str, raw: bytes,
               clients: Dict[int, WorkerClient]) -> Reply:
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return _error("bad_request",
                          f"request body is not valid JSON: {exc}")
        if not isinstance(body, dict):
            return _error("bad_request", "request body must be a JSON object")
        try:
            lead = _lead_id(path, body)
        except ValueError as exc:         # no lead id to route by
            return _error("bad_request", str(exc))
        worker = self.fleet.router.route(lead)
        self._count(f"routed.worker-{worker}")
        client = clients.get(worker)
        try:
            if client is None:
                client = clients[worker] = self.fleet.connect(worker)
            return client.request_raw(_OPS[path], **body)
        except WorkerUnavailable as exc:
            clients.pop(worker, None)       # a failed client closes itself
            self.fleet.note_unavailable(worker)
            return _error(
                "unavailable",
                f"worker {worker} (partitions "
                f"{self.fleet.owned_range(worker)}) is unavailable: {exc}")
        except Exception:
            if clients.pop(worker, None) is not None:
                client.close()              # its stream may be out of step
            raise

    # ------------------------------------------------------------------
    def _healthz(self) -> Reply:
        workers = self.fleet.health()
        degraded = any(not w["alive"] for w in workers)
        status = "degraded" if degraded else "ok"
        body = json.dumps({"status": status, "workers": workers})
        return 503 if degraded else 200, body.encode("utf-8")

    def _statz(self) -> Reply:
        with self._lock:
            counters = dict(self.counters)
        ranges = {str(w): parts
                  for w, parts in self.fleet.router.ranges().items()}
        body = json.dumps({"gateway": counters,
                           "router": {"policy": self.fleet.router.policy,
                                      "ranges": ranges},
                           "workers": self.fleet.worker_stats()})
        return 200, body.encode("utf-8")
