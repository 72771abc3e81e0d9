"""HTTP/JSON front door for a serving fleet.

A stdlib ``ThreadingHTTPServer`` (no third-party deps) exposing the four
query families as POST endpoints::

    POST /v1/embeddings  {"ids": [0, 1, 2]}
    POST /v1/score       {"pairs": [[0, 5], [1, 9]]}       # or [s, r, d]
    POST /v1/topk        {"source": 0, "k": 5, "rel": 0, "exclude": [0]}
    POST /v1/encode      {"ids": [0, 1], "seed": null}

plus ``GET /healthz`` (``ok`` / ``degraded``, HTTP 503 when degraded)
and ``GET /statz`` (per-worker engine/storage/admission stats, gateway
counters, the router's ownership ranges).

The gateway validates just enough to *route* — the body must be a JSON
object carrying the request's lead node id (first looked-up id, first
source, the top-k source). Everything else is validated by the owning
worker, which renders every reply's HTTP status and body itself (see
:mod:`~repro.fleet.protocol`): the gateway forwards unchanged the
answer bytes and the structured error DTO ``{"error": {"code",
"message"}}`` alike, parsing neither. It renders only its own replies:
the lead-id 400s, the 503 of an unreachable worker, 404/405 and the
``/healthz`` and ``/statz`` documents.
A worker whose socket is gone and whose process is dead yields 503 for
its partition range and flips ``/healthz`` to ``degraded``; other
ranges keep serving.

Each HTTP handler thread checks a private worker connection out of the
per-worker pool, so concurrent HTTP requests reach the worker
concurrently, each on its own worker handler thread.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from .protocol import _ERROR_STATUS, MAX_FRAME, WorkerUnavailable

__all__ = ["Gateway"]

Reply = Tuple[int, bytes]


def _error(code: str, message: str, status: Optional[int] = None) -> Reply:
    """One of the gateway's own error DTOs, rendered."""
    body = json.dumps({"error": {"code": code, "message": message}})
    return status or _ERROR_STATUS[code], body.encode("utf-8")


class _LeadIdError(ValueError):
    """The body lacks the lead node id the router needs."""


def _lead_id(path: str, body: Dict[str, Any]) -> int:
    """The routing key: the node id the request is 'about'."""
    if path in ("/v1/embeddings", "/v1/encode"):
        ids = body.get("ids")
        if (not isinstance(ids, list) or not ids
                or not isinstance(ids[0], int) or isinstance(ids[0], bool)):
            raise _LeadIdError("'ids' must be a non-empty list of integers")
        return ids[0]
    if path == "/v1/score":
        pairs = body.get("pairs")
        if (not isinstance(pairs, list) or not pairs
                or not isinstance(pairs[0], list) or not pairs[0]
                or not isinstance(pairs[0][0], int)
                or isinstance(pairs[0][0], bool)):
            raise _LeadIdError("'pairs' must be a non-empty list of "
                               "[src, dst] or [src, rel, dst] rows")
        return pairs[0][0]
    if path == "/v1/topk":
        src = body.get("source")
        if not isinstance(src, int) or isinstance(src, bool):
            raise _LeadIdError("'source' must be an integer node id")
        return src
    raise _LeadIdError(f"no route for {path}")


#: HTTP path -> worker protocol op.
_OPS = {"/v1/embeddings": "embed", "/v1/score": "score",
        "/v1/topk": "topk", "/v1/encode": "encode"}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # One TCP segment per response: Nagle off, and a buffered wfile so
    # status line + headers + body leave in a single write (the default
    # unbuffered wfile's small writes interact with delayed ACK into a
    # ~40ms per-request latency floor on loopback).
    disable_nagle_algorithm = True
    wbufsize = -1

    def log_message(self, fmt, *args):      # quiet: telemetry covers this
        pass

    def do_GET(self) -> None:
        self.server.gateway._dispatch(self, "GET")     # type: ignore[attr-defined]

    def do_POST(self) -> None:
        self.server.gateway._dispatch(self, "POST")    # type: ignore[attr-defined]


class _Server(ThreadingHTTPServer):
    daemon_threads = False      # join in-flight handlers on server_close
    block_on_close = True
    allow_reuse_address = True


class Gateway:
    """The fleet's HTTP server; routes each request to its owning worker."""

    def __init__(self, fleet, host: str = "127.0.0.1", port: int = 0) -> None:
        self.fleet = fleet
        self._server = _Server((host, port), _Handler)
        self._server.gateway = self
        self.host, self.port = self._server.server_address[:2]
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self.counters: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def start(self) -> "Gateway":
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="fleet-gateway", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting and join in-flight handler threads."""
        self._server.shutdown()
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
    def _dispatch(self, handler: BaseHTTPRequestHandler, method: str) -> None:
        path = handler.path.split("?", 1)[0]
        try:
            if method == "GET" and path == "/healthz":
                status, body = self._healthz()
            elif method == "GET" and path == "/statz":
                status, body = self._statz()
            elif method == "POST" and path in _OPS:
                status, body = self._query(path, handler)
            else:
                handler.close_connection = True     # any body stays unread
                if path in _OPS or path in ("/healthz", "/statz"):
                    status, body = _error(
                        "bad_request", f"{method} not allowed on {path}", 405)
                else:
                    status, body = _error("not_found", f"no route for {path}")
        except Exception as exc:    # a gateway bug must still answer JSON
            status, body = _error("internal",
                                  f"{type(exc).__name__}: {exc}")
        self._count(f"http.{path}.{status}")
        try:
            handler.send_response(status)
            handler.send_header("Content-Type", "application/json")
            handler.send_header("Content-Length", str(len(body)))
            if handler.close_connection:
                handler.send_header("Connection", "close")
            handler.end_headers()
            handler.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass                    # client went away; nothing to salvage

    def _read_body(self, handler: BaseHTTPRequestHandler) -> Dict[str, Any]:
        try:
            length = int(handler.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if not 0 < length <= MAX_FRAME:
            # A body left unread on the socket would be parsed as the next
            # request line: answer, then hang up.
            handler.close_connection = True
            if length < 0:
                raise _LeadIdError("Content-Length must be a non-negative "
                                   "integer")
            if length == 0:
                raise _LeadIdError("request body required")
            raise _LeadIdError(f"request body of {length} bytes exceeds "
                               f"the {MAX_FRAME} byte limit")
        raw = handler.rfile.read(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _LeadIdError(f"request body is not valid JSON: {exc}")
        if not isinstance(body, dict):
            raise _LeadIdError("request body must be a JSON object")
        return body

    def _query(self, path: str, handler: BaseHTTPRequestHandler) -> Reply:
        try:
            body = self._read_body(handler)
            lead = _lead_id(path, body)
        except _LeadIdError as exc:
            return _error("bad_request", str(exc))
        worker = self.fleet.route(lead)
        self._count(f"routed.worker-{worker}")
        try:
            return self.fleet.request_raw(worker, _OPS[path], **body)
        except WorkerUnavailable as exc:
            self.fleet.note_unavailable(worker)
            return _error(
                "unavailable",
                f"worker {worker} (partitions "
                f"{self.fleet.owned_range(worker)}) is unavailable: {exc}")

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
