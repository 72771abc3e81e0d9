"""The fleet orchestrator: spawn workers, route, serve, drain.

:class:`Fleet` owns the whole serving topology for one snapshot:

1. **Workers** — ``fleet.workers`` processes (``multiprocessing`` spawn
   context, so the entry point is picklable and the children never
   inherit torn state) each build a private read-only engine over the
   shared snapshot and report ``(port, partition boundaries, …)``
   through a ready queue.
2. **Router** — the ready info's partition boundaries seed an
   :class:`~repro.fleet.affinity.AffinityRouter`; every worker serves
   the same table, so ownership is purely a locality assignment.
3. **Gateway** — an HTTP front door (:class:`~repro.fleet.gateway.
   Gateway`) that routes each request's lead node id through the router
   and speaks the frame protocol to the owning worker over a connection
   its handler dialed (:meth:`Fleet.connect`), forwarding the worker's
   rendered reply bytes unchanged.

The fleet keeps only each worker's port and the set of dead workers. A
worker whose process has died is marked dead: requests routed to its
range fail fast with 503 and ``/healthz`` reports ``degraded``; there is
no failover. Control calls (``health``, ``stats``, ``drain``) each dial
a short-lived connection.

:meth:`stop` is drain-ordered: the gateway stops accepting, ends idle
client connections and joins its handlers once their in-flight requests
are answered; then each worker is asked to drain (``drain`` op, SIGTERM
as fallback), finishing its admitted queries, and is joined.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from .affinity import AffinityRouter
from .gateway import Gateway
from .protocol import WorkerClient, WorkerUnavailable
from .worker import WorkerConfig, worker_main

__all__ = ["Fleet"]


class Fleet:
    """N serving workers + router + HTTP gateway over one snapshot."""

    def __init__(self, spec: Dict[str, Any], workdir: Path,
                 ready_timeout: float = 180.0) -> None:
        self.spec = spec
        self.workdir = Path(workdir)
        self.ready_timeout = float(ready_timeout)
        fleet = spec.get("fleet", {})
        self.num_workers = int(fleet.get("workers", 2))
        if self.num_workers < 1:
            raise ValueError("fleet.workers must be at least 1")
        self.host = str(fleet.get("host", "127.0.0.1"))
        self.gateway_port = int(fleet.get("port", 0))
        self.affinity = str(fleet.get("affinity", "range"))
        tele = spec.get("telemetry", {})
        self.telemetry = tele.get("sink", "none") != "none"
        self.flush_every = int(tele.get("flush_every", 25))

        self.router: Optional[AffinityRouter] = None
        self.gateway: Optional[Gateway] = None
        self.worker_info: List[Dict[str, Any]] = []
        self._procs: List[multiprocessing.process.BaseProcess] = []
        self._dead: set = set()     # only grows; set ops are GIL-atomic
        self._started = False
        self._stopped = False

    # ------------------------------------------------------------------
    def start(self) -> "Fleet":
        """Spawn workers, wait for all ready reports, open the gateway."""
        if self._started:
            return self
        ctx = multiprocessing.get_context("spawn")
        ready: Any = ctx.Queue()
        self.workdir.mkdir(parents=True, exist_ok=True)
        for i in range(self.num_workers):
            cfg = WorkerConfig(index=i, spec=self.spec,
                               workdir=str(self.workdir), host=self.host,
                               telemetry=self.telemetry,
                               flush_every=self.flush_every)
            proc = ctx.Process(target=worker_main, args=(cfg, ready),
                               name=f"fleet-worker-{i}")
            proc.start()
            self._procs.append(proc)
        infos: Dict[int, Dict[str, Any]] = {}
        deadline = time.monotonic() + self.ready_timeout
        try:
            while len(infos) < self.num_workers:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RuntimeError(
                        f"only {len(infos)}/{self.num_workers} fleet "
                        f"workers came up within {self.ready_timeout:.0f}s")
                try:
                    msg = ready.get(timeout=min(remaining, 1.0))
                except Exception:
                    dead = [p.name for p in self._procs if not p.is_alive()]
                    if dead and len(infos) < self.num_workers:
                        raise RuntimeError(
                            f"fleet workers died during startup: {dead}")
                    continue
                if "error" in msg:
                    raise RuntimeError(f"fleet worker {msg['worker']} "
                                       f"failed to build: {msg['error']}")
                infos[msg["worker"]] = msg
            self.worker_info = [infos[i] for i in range(self.num_workers)]
            first = self.worker_info[0]
            self.router = AffinityRouter(first["boundaries"],
                                         self.num_workers,
                                         policy=self.affinity)
            self.gateway = Gateway(self, host=self.host,
                                   port=self.gateway_port).start()
        except Exception:
            # A failure anywhere in startup (a worker died, the gateway
            # port is taken, ...) must not leak N live child processes.
            self._kill_all()
            raise
        self._started = True
        return self

    @property
    def url(self) -> str:
        if self.gateway is None:
            raise RuntimeError("fleet is not started")
        return self.gateway.url

    # ------------------------------------------------------------------
    # The surface the gateway drives.
    def connect(self, worker: int) -> WorkerClient:
        """A new connection to ``worker``; :class:`WorkerUnavailable` at
        once if the worker is marked dead."""
        if worker in self._dead:
            raise WorkerUnavailable(f"worker {worker} is down")
        return WorkerClient(self.host, self.worker_info[worker]["port"])

    def request(self, worker: int, op: str, **fields: Any) -> Dict[str, Any]:
        """One control op on a short-lived connection: the reply as a
        dict (see :meth:`WorkerClient.request`)."""
        with self.connect(worker) as client:
            return client.request(op, **fields)

    def note_unavailable(self, worker: int) -> None:
        """Called on a connection failure: a dead process means the range
        is down; a live process just lost one connection."""
        if not self._procs[worker].is_alive():
            self._dead.add(worker)

    def owned_range(self, worker: int) -> str:
        parts = self.router.ranges().get(worker, [])
        if not parts:
            return "none"
        return f"{parts[0]}-{parts[-1]}" if len(parts) > 1 else str(parts[0])

    def health(self) -> List[Dict[str, Any]]:
        out = []
        for i, proc in enumerate(self._procs):
            entry: Dict[str, Any] = {"worker": i,
                                     "partitions": self.owned_range(i)}
            if i in self._dead or not proc.is_alive():
                self.note_unavailable(i)
                entry.update(alive=False, status="down")
                out.append(entry)
                continue
            try:
                reply = self.request(i, "health")
                entry.update(alive=True,
                             status=reply.get("status", "ok"),
                             pid=reply.get("pid"))
            except WorkerUnavailable:
                self.note_unavailable(i)
                entry.update(alive=proc.is_alive(), status="unreachable")
            out.append(entry)
        return out

    def worker_stats(self) -> List[Dict[str, Any]]:
        out = []
        for i in range(self.num_workers):
            try:
                reply = self.request(i, "stats")
                out.append({k: v for k, v in reply.items() if k != "ok"})
            except WorkerUnavailable:
                out.append({"worker": i, "alive": False})
        return out

    # ------------------------------------------------------------------
    def stop(self) -> List[Optional[int]]:
        """Drain-ordered shutdown; returns worker exit codes."""
        if self._stopped:
            return [p.exitcode for p in self._procs]
        self._stopped = True
        if self.gateway is not None:
            self.gateway.stop()
        for i, proc in enumerate(self._procs):
            if not proc.is_alive():
                continue
            try:
                self.request(i, "drain")
            except (WorkerUnavailable, IndexError):
                try:
                    os.kill(proc.pid, signal.SIGTERM)
                except (OSError, TypeError):
                    pass
        deadline = time.monotonic() + 15.0
        for proc in self._procs:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        return [p.exitcode for p in self._procs]

    def _kill_all(self) -> None:
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=5.0)

    def __enter__(self) -> "Fleet":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
