"""Length-prefixed frames: the host's control calls and direct queries.

A request frame is a 4-byte big-endian length, then that many bytes of
UTF-8 JSON: an object with an ``op`` (``embed`` / ``score`` / ``topk``
/ ``encode`` / ``health`` / ``stats`` / ``drain``). A reply frame is a
4-byte big-endian length, a 2-byte big-endian HTTP status, then the
exact HTTP body a worker would send an HTTP client: an answer's keys
plus the answering ``"worker"`` under 200, or the error DTO ``{"error":
{"code", "message"}}`` under the status :data:`_ERROR_STATUS` maps its
code to. Float32 answers print with ``%.9g``, which parses back to the
identical float32, so replies are bit-identical to in-process results.

No pipelining: one reply per request, in order, so a frame's header and
body can be taken from one ``recv``.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Optional, Tuple

__all__ = ["MAX_FRAME", "ProtocolError", "WorkerUnavailable",
           "send_frame", "recv_frame", "send_reply", "WorkerClient"]

#: Upper bound on one frame's JSON payload. Generous for real batches
#: (a 64 MiB frame is ~2M embedding floats) while refusing a corrupt or
#: hostile length prefix before allocating anything.
MAX_FRAME = 64 << 20

#: error code -> HTTP status of its error DTO.
_ERROR_STATUS = {"bad_request": 400, "not_found": 404, "draining": 503,
                 "unavailable": 503, "overloaded": 503, "timeout": 504,
                 "internal": 500}

_LEN = struct.Struct("!I")
_REPLY = struct.Struct("!IH")


class ProtocolError(RuntimeError):
    """A malformed frame: bad length prefix, oversized, or invalid JSON."""


class WorkerUnavailable(ConnectionError):
    """The worker's socket is gone (crashed, draining, or never up)."""


def _check_size(length: int) -> None:
    if length > MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes exceeds the "
                            f"{MAX_FRAME} byte limit")


def send_frame(sock: socket.socket, payload: Dict[str, Any]) -> None:
    data = json.dumps(payload).encode("utf-8")
    _check_size(len(data))
    sock.sendall(_LEN.pack(len(data)) + data)


def send_reply(sock: socket.socket, status: int, body: bytes) -> None:
    """One reply frame: ``body`` is the HTTP body, sent as is."""
    _check_size(len(body))
    sock.sendall(_REPLY.pack(len(body), status) + body)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """``n`` bytes or ``None`` on clean EOF at a frame boundary; EOF
    mid-frame is a torn peer and raises."""
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            if got == 0:
                return None
            raise WorkerUnavailable("connection closed mid-frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _recv_framed(sock: socket.socket, header: struct.Struct
                 ) -> Optional[Tuple[tuple, bytes]]:
    """``(header fields, body)`` of the next frame, whose header leads
    with the body length; ``None`` on clean EOF.

    One ``recv`` takes the header and, when it has arrived, the whole
    body: the protocol never pipelines, so no bytes past this frame can
    be waiting behind it."""
    head = sock.recv(1 << 16)
    if not head:
        return None
    if len(head) < header.size:
        rest = _recv_exact(sock, header.size - len(head))
        if rest is None:
            raise WorkerUnavailable("connection closed mid-frame")
        head += rest
    fields = header.unpack_from(head)
    _check_size(fields[0])
    data = head[header.size:]
    if len(data) < fields[0]:
        rest = _recv_exact(sock, fields[0] - len(data))
        if rest is None:
            raise WorkerUnavailable("connection closed between header and "
                                    "body")
        data += rest
    elif len(data) > fields[0]:
        raise ProtocolError(f"{len(data) - fields[0]} bytes past the end "
                            f"of a frame")
    return fields, data


def _json_object(data: bytes, what: str) -> Dict[str, Any]:
    try:
        value = json.loads(data)
    except ValueError as exc:           # not UTF-8, or not JSON
        raise ProtocolError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise ProtocolError(f"{what} must be a JSON object")
    return value


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """The next frame's payload, or ``None`` when the peer closed cleanly."""
    frame = _recv_framed(sock, _LEN)
    return None if frame is None else _json_object(frame[1], "frame")


class WorkerClient:
    """One blocking request/response connection to a worker's frame
    port; not thread-safe. A request that fails with
    :class:`WorkerUnavailable` closes the client.
    """

    def __init__(self, host: str, port: int,
                 connect_timeout: float = 5.0,
                 timeout: Optional[float] = None) -> None:
        self.host, self.port = host, int(port)
        try:
            self._sock = socket.create_connection((host, self.port),
                                                  timeout=connect_timeout)
        except OSError as exc:
            raise WorkerUnavailable(
                f"cannot connect to worker at {host}:{port}: {exc}") from exc
        self._sock.settimeout(timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def request_raw(self, op: str, **fields: Any) -> Tuple[int, bytes]:
        """Send one op, block for its reply: ``(HTTP status, body)``."""
        payload = {"op": op, **fields}
        try:
            send_frame(self._sock, payload)
            response = _recv_framed(self._sock, _REPLY)
        except (OSError, WorkerUnavailable) as exc:
            self.close()
            raise WorkerUnavailable(
                f"worker at {self.host}:{self.port} dropped the "
                f"connection: {exc}") from exc
        if response is None:
            self.close()
            raise WorkerUnavailable(
                f"worker at {self.host}:{self.port} closed the connection")
        return response[0][1], response[1]

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """A reply as a dict: the body's keys plus ``"ok"``, true for a
        200."""
        status, body = self.request_raw(op, **fields)
        return {"ok": status == 200, **_json_object(body, "reply")}

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "WorkerClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
