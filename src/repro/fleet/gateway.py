"""The fleet's HTTP front door, and the HTTP subset host and workers speak.

The host (:class:`Gateway`) accepts every client connection and peeks
at its first request line (``MSG_PEEK``: nothing is consumed). It
answers ``GET /healthz`` (503 when degraded) and ``GET /statz`` itself
and passes any other connection, unread, to one worker
(:meth:`~repro.fleet.fleet.Fleet.hand_off` over an AF_UNIX channel),
which answers it and every later query on it; a control request there
comes back to the host the same way (:func:`serve_http`).

The HTTP is what ``POST /v1/embeddings``, ``/v1/score``, ``/v1/topk``
and ``/v1/encode`` need: keep-alive; of the headers only
``Content-Length`` (required for a body), ``Connection`` and ``Expect:
100-continue`` matter. A line over :data:`MAX_LINE` bytes, a head over
:data:`MAX_HEADERS` header lines, or a body length that is missing, not
an integer or over the frame limit gets a 400 DTO and closes the
connection: the bytes that follow cannot be trusted to start the next
request. Every reply leaves in one ``sendall``; HTTP/1.0 clients get
``Connection: close`` unless they ask for ``keep-alive``.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from typing import Callable, Dict, Optional, Tuple

from .protocol import _ERROR_STATUS, MAX_FRAME

__all__ = ["Gateway", "MAX_LINE", "MAX_HEADERS"]

Reply = Tuple[int, bytes]

#: Longest request line or header line read, terminator included.
MAX_LINE = 64 << 10
#: Most header lines in one request head.
MAX_HEADERS = 100

_STATUS_LINE = {s.value: f"HTTP/1.1 {s.value} {s.phrase}\r\n".encode("ascii")
                for s in HTTPStatus}
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
#: The request lines the host answers itself.
_CONTROL = (b"GET /healthz", b"GET /statz")
#: HTTP path -> worker protocol op.
_OPS = {"/v1/embeddings": "embed", "/v1/score": "score",
        "/v1/topk": "topk", "/v1/encode": "encode"}
#: The paths ``/statz`` counts by name; any other counts as ``other``.
_ROUTES = {*_OPS, "/healthz", "/statz"}
#: Largest passed message: a tag byte plus the bytes received but not
#: parsed, which are at most one ``recv`` (64 KiB) past a request line's
#: first 14 bytes.
_PASS_BYTES = 1 << 17


def _error(code: str, message: str, status: Optional[int] = None) -> Reply:
    """An error DTO, rendered."""
    body = json.dumps({"error": {"code": code, "message": message}})
    return status or _ERROR_STATUS[code], body.encode("utf-8")


class _BadRequest(ValueError):
    """A request answered 400 before any of it is served."""


class _Conn:
    """A client socket and the bytes received from it but not yet parsed."""

    __slots__ = ("sock", "buf")

    def __init__(self, sock: socket.socket, buf: bytes = b"") -> None:
        self.sock, self.buf = sock, buf

    def fill(self) -> bool:
        """One ``recv`` onto the buffer; false at the end of the stream."""
        chunk = self.sock.recv(1 << 16)
        self.buf += chunk
        return bool(chunk)

    def readline(self, limit: int) -> bytes:
        """Up to and including the next ``\\n``, at most ``limit`` bytes
        (fewer at the end of the stream)."""
        while True:
            end = self.buf.find(b"\n", 0, limit) + 1
            if not end and len(self.buf) < limit and self.fill():
                continue
            end = end or min(limit, len(self.buf))
            line, self.buf = self.buf[:end], self.buf[end:]
            return line

    def read(self, n: int) -> bytes:
        """``n`` bytes, fewer if the stream ends first."""
        while len(self.buf) < n and self.fill():
            pass
        data, self.buf = self.buf[:n], self.buf[n:]
        return data


def _classify(data: bytes) -> Optional[bool]:
    """Whether a request starting with ``data`` is a control request;
    ``None`` while ``data`` is too short to tell."""
    data = data.lstrip(b"\r\n")
    for line in _CONTROL:
        if data[:len(line) + 1] in (line + b" ", line + b"?"):
            return True
        if len(data) <= len(line) and line.startswith(data):
            return None
    return False


def next_is_control(conn: _Conn, peek: bool = False) -> Optional[bool]:
    """Whether the connection's next request is one the host answers;
    ``None`` when the client has closed. With ``peek``, a first request
    line that arrived whole stays unread on the socket."""
    while True:
        data = conn.buf
        if not data and peek:
            data = conn.sock.recv(64, socket.MSG_PEEK)
            if not data:
                return None
        verdict = _classify(data)
        if verdict is not None:
            return verdict
        if not conn.fill():         # ended inside a request line
            return False if conn.buf else None


def send_connection(channel: socket.socket, conn: _Conn) -> None:
    """Pass ``conn`` over an AF_UNIX ``SOCK_SEQPACKET`` channel with its
    unparsed bytes, then close this process's copy without a shutdown."""
    socket.send_fds(channel, [b"C" + conn.buf], [conn.sock.fileno()])
    conn.sock.close()


def recv_connection(channel: socket.socket) -> Optional[_Conn]:
    """The next connection passed over ``channel``; ``None`` once the
    other end has closed."""
    data, fds, _, _ = socket.recv_fds(channel, _PASS_BYTES, 1)
    if not fds:
        return None
    return _Conn(socket.socket(fileno=fds[0]), data[1:])


def _read_line(conn: _Conn) -> bytes:
    line = conn.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise _BadRequest(f"request line or header line exceeds "
                          f"{MAX_LINE} bytes")
    return line


#: A request head: method, path, keep-alive, ``Content-Length`` (``None``
#: if absent, -1 if not a valid length) and ``Expect: 100-continue``.
_Head = Tuple[bytes, str, bool, Optional[int], bool]


def read_head(conn: _Conn) -> Optional[_Head]:
    """The next request's head; ``None`` when the client closed."""
    line = _read_line(conn)
    if line in (b"\r\n", b"\n"):      # a stray CRLF after a previous body
        line = _read_line(conn)
    if not line:
        return None
    parts = line.split()
    if len(parts) != 3 or not parts[2].startswith(b"HTTP/1."):
        raise _BadRequest(f"malformed request line {line[:80]!r}")
    http11 = parts[2] != b"HTTP/1.0"
    keep_alive, length, expect = http11, None, False
    for _ in range(MAX_HEADERS + 1):
        line = _read_line(conn)
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


def read_body(conn: _Conn, length: Optional[int],
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
        conn.sock.sendall(_CONTINUE)
    raw = conn.read(length)
    return raw if len(raw) == length else None


class Counters(dict):
    """``http.<route>.<status>`` reply counts; copy with ``dict()``."""

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.Lock()

    def note(self, path: str, status: int) -> None:
        key = f"http.{path if path in _ROUTES else 'other'}.{status}"
        with self._lock:
            self[key] = self.get(key, 0) + 1


_date = (0, b"")        # (second, its Date header line)


def send_http(sock: socket.socket, status: int, body: bytes,
              keep: bool) -> None:
    """The whole reply, head and body, in one ``sendall``."""
    global _date
    second = int(time.time())
    stamp, date = _date
    if stamp != second:
        date = f"Date: {formatdate(second, usegmt=True)}\r\n".encode()
        _date = (second, date)
    sock.sendall(b"%s%sContent-Type: application/json\r\n"
                 b"Content-Length: %d\r\n%s\r\n%s" % (
                     _STATUS_LINE[status], date, len(body),
                     b"" if keep else b"Connection: close\r\n", body))


#: Answers one request from its head, reading any body it takes: status,
#: body and whether to keep the connection, or ``None`` if the client
#: closed mid-body.
Answer = Callable[[_Conn, _Head], Optional[Tuple[int, bytes, bool]]]


def _exchange(conn: _Conn, answer: Answer, counters: Counters) -> bool:
    """Read one request, send its reply; whether the connection stays
    open for the next one."""
    path = "-"
    try:
        head = read_head(conn)
        if head is None:
            return False
        path = head[1]
        reply = answer(conn, head)
        if reply is None:
            return False
        status, body, keep = reply
    except _BadRequest as exc:
        # Bytes left unread on the socket would be parsed as the next
        # request line: answer, then hang up.
        (status, body), keep = _error("bad_request", str(exc)), False
    except OSError:
        raise                   # the client went away: no reply to count
    except Exception as exc:    # a bug must still answer JSON
        (status, body), keep = _error(
            "internal", f"{type(exc).__name__}: {exc}"), False
    counters.note(path, status)
    send_http(conn.sock, status, body, keep)
    return keep


def serve_http(conn: _Conn, control: bool, answer: Answer,
               counters: Counters, pass_on: Callable[[_Conn], bool]) -> None:
    """One client connection's keep-alive loop, on the host (``control``:
    it answers ``/healthz`` and ``/statz``) or on a worker (it answers the
    rest). At the first request of the other kind, ``pass_on`` takes the
    connection, unread; if it cannot, the connection closes."""
    try:
        while True:
            kind = next_is_control(conn, peek=control)
            if kind is None:
                break
            if kind != control:
                if pass_on(conn):
                    return
                break
            if not _exchange(conn, answer, counters):
                break
    except OSError:
        pass                    # client went away; nothing to salvage
    conn.sock.close()


class Handlers:
    """One thread per client connection, each running ``serve`` on it.

    :meth:`stop` shuts the read side of every connection still served, so
    an idle one sees the end of the stream, then joins the threads: a
    request being answered still gets its reply."""

    def __init__(self, serve: Callable[[_Conn], None], name: str) -> None:
        self._serve, self._name = serve, name
        self._live: Dict[threading.Thread, _Conn] = {}
        self._lock = threading.Lock()
        self._stopped = False

    def start(self, conn: _Conn) -> bool:
        """Serve ``conn`` on a new thread; false once stopped."""
        thread = threading.Thread(target=self._run, args=(conn,),
                                  name=self._name, daemon=True)
        with self._lock:
            if self._stopped:
                return False
            self._live[thread] = conn
            thread.start()
        return True

    def _run(self, conn: _Conn) -> None:
        try:
            self._serve(conn)
        finally:
            with self._lock:
                del self._live[threading.current_thread()]

    def stop(self, timeout: float = 10.0) -> None:
        with self._lock:
            self._stopped = True
            live = dict(self._live)
        for conn in live.values():
            try:
                conn.sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass                # its handler closed it meanwhile
        for thread in live:
            thread.join(timeout)


class Gateway:
    """The fleet host's HTTP listener: answers control requests, passes
    every other connection to a worker."""

    def __init__(self, fleet, host: str = "127.0.0.1", port: int = 0) -> None:
        self.fleet = fleet
        self._listener = socket.create_server((host, port), backlog=128)
        self.host, self.port = self._listener.getsockname()[:2]
        self.counters = Counters()
        self.handlers = Handlers(lambda conn: serve_http(
            conn, True, self._answer, self.counters, self._hand_off),
            "fleet-gateway-conn")
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start(self) -> "Gateway":
        self._thread = threading.Thread(target=self._accept_loop,
                                        name="fleet-gateway", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, end idle connections and join the handler
        threads once their in-flight requests are answered."""
        try:
            self._listener.shutdown(socket.SHUT_RDWR)   # wakes accept()
        except OSError:
            pass
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._listener.close()
        self.handlers.stop()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if not self.serve(_Conn(sock)):
                sock.close()

    def serve(self, conn: _Conn) -> bool:
        """Take a connection, accepted here or passed back by a worker;
        false once stopped."""
        return self.handlers.start(conn)

    def _hand_off(self, conn: _Conn) -> bool:
        if self.fleet.hand_off(conn):
            return True
        self.counters.note("-", 503)
        send_http(conn.sock, *_error("unavailable",
                                     "no fleet worker is available"), False)
        return False

    def _answer(self, conn: _Conn, head: _Head) -> Tuple[int, bytes, bool]:
        _, path, keep, length, _ = head
        status, body = self._healthz() if path == "/healthz" else self._statz()
        return status, body, keep and not length    # a GET's body is unread

    # ------------------------------------------------------------------
    def _healthz(self) -> Reply:
        workers = self.fleet.health()
        degraded = any(not w["alive"] for w in workers)
        status = "degraded" if degraded else "ok"
        body = json.dumps({"status": status, "workers": workers})
        return 503 if degraded else 200, body.encode("utf-8")

    def _statz(self) -> Reply:
        """The host's counters merged with every worker's: its HTTP
        replies by route and status, and under ``routed.worker-N`` the
        queries that worker answered."""
        counters = dict(self.counters)
        workers = self.fleet.worker_stats()
        for stats in workers:
            http = stats.pop("http", {})
            for key, n in http.items():
                counters[key] = counters.get(key, 0) + n
            counters[f"routed.worker-{stats['worker']}"] = sum(
                n for key, n in http.items() if key.startswith("http./v1/"))
        body = json.dumps({"gateway": counters,
                           "router": {"policy": self.fleet.affinity,
                                      "ranges": self.fleet.ranges},
                           "workers": workers})
        return 200, body.encode("utf-8")
