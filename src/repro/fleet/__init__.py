"""Serving fleet: N engine workers, each answering HTTP itself.

A :class:`~repro.fleet.fleet.Fleet` spawns worker processes that each
serve the snapshot through a read-only engine and answer the HTTP
connections its :class:`~repro.fleet.gateway.Gateway` hands them; the
host answers only ``/healthz`` and ``/statz``. Run it as the
``serve-fleet`` job kind; see ``docs/serving.md``.
"""

from .fleet import Fleet
from .gateway import Gateway
from .protocol import (MAX_FRAME, ProtocolError, WorkerClient,
                       WorkerUnavailable, recv_frame, send_frame)
from .worker import WorkerConfig, worker_main

__all__ = ["Fleet", "Gateway", "ProtocolError", "WorkerClient",
           "WorkerUnavailable", "WorkerConfig", "worker_main", "send_frame",
           "recv_frame", "MAX_FRAME"]
