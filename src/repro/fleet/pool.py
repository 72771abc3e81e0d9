"""Per-worker connection pools for the gateway.

The wire protocol is strictly request/response per connection, so one
shared connection would serialize every request to a worker: each would
wait for the previous reply, and the worker's decode, validation and
rendering could never overlap another request's engine call. The pool
checks a private connection out per in-flight request (growing on
demand, up to a cap) so concurrent gateway handler threads reach the
worker concurrently, each on its own worker handler thread.

A connection that errors is closed and dropped, never returned; the next
checkout dials fresh. :meth:`ConnectionPool.close` poisons the pool for
shutdown — subsequent checkouts raise :class:`~repro.fleet.protocol.
WorkerUnavailable` immediately.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Optional, Tuple

from .protocol import WorkerClient, WorkerUnavailable

__all__ = ["ConnectionPool"]


class ConnectionPool:
    """A grow-on-demand pool of :class:`WorkerClient` connections."""

    def __init__(self, host: str, port: int, max_idle: int = 8,
                 timeout: Optional[float] = None) -> None:
        self.host, self.port = host, int(port)
        self.max_idle = int(max_idle)
        self.timeout = timeout
        self._idle: Deque[WorkerClient] = deque()
        self._lock = threading.Lock()
        self._closed = False

    def checkout(self) -> WorkerClient:
        with self._lock:
            if self._closed:
                raise WorkerUnavailable(
                    f"pool for {self.host}:{self.port} is closed (draining)")
            if self._idle:
                return self._idle.popleft()
        return WorkerClient(self.host, self.port, timeout=self.timeout)

    def checkin(self, client: WorkerClient) -> None:
        with self._lock:
            if not self._closed and len(self._idle) < self.max_idle:
                self._idle.append(client)
                return
        client.close()

    def discard(self, client: WorkerClient) -> None:
        client.close()

    def request_raw(self, op: str, **fields) -> Tuple[int, bytes]:
        """Checkout / request / checkin, with error connections dropped:
        the reply's ``(HTTP status, body)``."""
        client = self.checkout()
        try:
            response = client.request_raw(op, **fields)
        except Exception:
            self.discard(client)
            raise
        self.checkin(client)
        return response

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = list(self._idle), deque()
        for client in idle:
            client.close()
