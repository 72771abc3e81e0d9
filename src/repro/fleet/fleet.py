"""The fleet orchestrator: spawn workers, hand them connections, drain.

:class:`Fleet` spawns ``fleet.workers`` processes (``multiprocessing``
spawn context), each building a private read-only engine over the shared
snapshot and reporting ``(frame port, partition boundaries, …)`` through
a ready queue, and gives each one end of an AF_UNIX ``SOCK_SEQPACKET``
socketpair. Its :class:`~repro.fleet.gateway.Gateway` passes each query
connection over those channels to the next live worker in round-robin
order (:meth:`Fleet.hand_off`): any worker answers any node id, since
each maps the whole table. A worker whose channel refuses a connection
is marked dead and skipped, so a SIGKILL'd worker costs only the
connections it held, and ``/healthz`` reads ``degraded``. Control calls
(``health``, ``stats``, ``drain``) each dial a short-lived frame
connection. ``fleet.affinity`` is accepted and ignored; ``/statz``
reports it, and the split of :func:`range_assignment`, under ``router``.

:meth:`stop` is drain-ordered: the gateway stops accepting and ends the
idle connections it holds; then each worker is asked to drain (``drain``
op, SIGTERM as fallback), answers its admitted queries, ends its idle
connections and is joined.
"""

from __future__ import annotations

import itertools
import multiprocessing
import queue
import socket
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from .gateway import Gateway, _Conn, recv_connection, send_connection
from .protocol import WorkerClient, WorkerUnavailable
from .worker import WorkerConfig, worker_main

__all__ = ["Fleet", "range_assignment"]


def range_assignment(num_partitions: int, num_workers: int) -> List[int]:
    """The contiguous split ``/statz`` reports: partition -> worker, where
    worker ``w`` has ``[floor(w*p/W), floor((w+1)*p/W))``."""
    if num_workers < 1:
        raise ValueError("num_workers must be at least 1")
    return [((part + 1) * num_workers - 1) // num_partitions
            for part in range(num_partitions)]


class Fleet:
    """N serving workers behind one HTTP host over one snapshot."""

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

        self.gateway: Optional[Gateway] = None
        self.worker_info: List[Dict[str, Any]] = []
        self.ranges: Dict[str, List[int]] = {}
        self._procs: List[multiprocessing.process.BaseProcess] = []
        self._channels: List[socket.socket] = []
        self._returns: List[threading.Thread] = []
        self._next = itertools.count()
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
            ours, theirs = socket.socketpair(socket.AF_UNIX,
                                             socket.SOCK_SEQPACKET)
            proc = ctx.Process(target=worker_main,
                               args=(cfg, ready, theirs),
                               name=f"fleet-worker-{i}")
            try:
                proc.start()
            finally:
                # The worker holds its end now; a send to a dead worker
                # must fail, not queue.
                theirs.close()
            self._procs.append(proc)
            self._channels.append(ours)
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
                except queue.Empty:
                    dead = [p.name for p in self._procs if not p.is_alive()]
                    if dead:
                        raise RuntimeError(
                            f"fleet workers died during startup: {dead}")
                    continue
                if "error" in msg:
                    raise RuntimeError(f"fleet worker {msg['worker']} "
                                       f"failed to build: {msg['error']}")
                infos[msg["worker"]] = msg
            self.worker_info = [infos[i] for i in range(self.num_workers)]
            owners = range_assignment(
                len(self.worker_info[0]["boundaries"]) - 1, self.num_workers)
            self.ranges = {str(w): [p for p, o in enumerate(owners) if o == w]
                           for w in range(self.num_workers)}
            self.gateway = Gateway(self, host=self.host,
                                   port=self.gateway_port).start()
        except Exception:
            # A failure anywhere in startup (a worker died, the gateway
            # port is taken, ...) must not leak N live child processes.
            self._kill_all()
            raise
        for i, channel in enumerate(self._channels):
            thread = threading.Thread(target=self._take_back,
                                      args=(channel,), daemon=True,
                                      name=f"fleet-return-{i}")
            thread.start()
            self._returns.append(thread)
        self._started = True
        return self

    @property
    def url(self) -> str:
        if self.gateway is None:
            raise RuntimeError("fleet is not started")
        return self.gateway.url

    # ------------------------------------------------------------------
    # The surface the gateway drives.
    def hand_off(self, conn: _Conn) -> bool:
        """Pass ``conn`` to the next live worker; false if none takes it."""
        for _ in range(self.num_workers):
            worker = next(self._next) % self.num_workers
            if worker in self._dead:
                continue
            try:
                send_connection(self._channels[worker], conn)
                return True
            except OSError:
                self._dead.add(worker)      # its end of the channel is gone
        return False

    def _take_back(self, channel: socket.socket) -> None:
        """Connections a worker passes back (control requests) go to the
        gateway until the worker closes its end."""
        try:
            while True:
                conn = recv_connection(channel)
                if conn is None:
                    break
                if not self.gateway.serve(conn):
                    conn.sock.close()
        except OSError:
            pass

    def request(self, worker: int, op: str, **fields: Any) -> Dict[str, Any]:
        """One control op on a short-lived frame connection: the reply as
        a dict (see :meth:`WorkerClient.request`)."""
        if worker in self._dead:
            raise WorkerUnavailable(f"worker {worker} is down")
        with WorkerClient(self.host, self.worker_info[worker]["port"]) as c:
            return c.request(op, **fields)

    def health(self) -> List[Dict[str, Any]]:
        out = []
        for i, proc in enumerate(self._procs):
            entry: Dict[str, Any] = {"worker": i, "alive": False,
                                     "status": "down"}
            if i in self._dead or not proc.is_alive():
                self._dead.add(i)
            else:
                try:
                    reply = self.request(i, "health")
                    entry.update(alive=True, status=reply["status"],
                                 pid=reply["pid"])
                except WorkerUnavailable:
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
                proc.terminate()                # SIGTERM: the same drain
        deadline = time.monotonic() + 15.0
        for proc in self._procs:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        self._close_channels()
        return [p.exitcode for p in self._procs]

    def _close_channels(self) -> None:
        for thread in self._returns:
            thread.join(timeout=5.0)    # a worker's exit ends its channel
        for channel in self._channels:
            channel.close()

    def _kill_all(self) -> None:
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=5.0)
        self._close_channels()

    def __enter__(self) -> "Fleet":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
