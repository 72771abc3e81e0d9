"""Serving fleet: N engine workers behind a partition-affinity gateway.

One :class:`~repro.fleet.fleet.Fleet` runs the paper's out-of-core
serving engine as a deployable service: worker processes each own a
read-only :class:`~repro.serve.engine.ServingEngine` over the same
snapshot behind a small admission gate, speaking a length-prefixed
frame protocol (:mod:`~repro.fleet.protocol`) whose replies carry the
rendered HTTP body; an HTTP/JSON gateway (:mod:`~repro.fleet.gateway`,
a keep-alive loop on stdlib ``socketserver`` threads, each owning its
worker connections) exposes the four query families as POST endpoints
plus ``/healthz`` and ``/statz``; and the
:class:`~repro.fleet.affinity.AffinityRouter` maps each request's lead
node id to the worker owning its partition range.
Run it as the ``serve-fleet`` job kind (``repro run fleet.json``); see
``docs/serving.md``.
"""

from .affinity import AffinityRouter
from .fleet import Fleet
from .gateway import Gateway
from .protocol import (MAX_FRAME, ProtocolError, WorkerClient,
                       WorkerUnavailable, recv_frame, send_frame)
from .worker import WorkerConfig, worker_main

__all__ = ["AffinityRouter", "Fleet", "Gateway", "ProtocolError",
           "WorkerClient", "WorkerUnavailable", "WorkerConfig",
           "worker_main", "send_frame", "recv_frame", "MAX_FRAME"]
