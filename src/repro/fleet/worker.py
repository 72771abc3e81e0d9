"""One fleet worker: a serving engine behind a socket server.

``worker_main`` is the ``multiprocessing`` (spawn-safe, module-level)
entry point. The worker builds its own read-only
:class:`~repro.serve.engine.ServingEngine` from the shared snapshot
(each worker maps its own copy of the table and reads it in place) and
answers length-prefixed JSON requests (:mod:`~repro.fleet.protocol`) on
an ephemeral port it reports back through the ready queue. Each reply
is rendered here, once, as the HTTP status and body the gateway
forwards unchanged. Every connection gets a handler thread, and each
query calls the engine on that thread, behind the worker's admission
gate (:class:`_Gate`): at most ``max_queue`` queries in flight, one
engine call at a time, and a wait for that turn bounded by
``timeout_ms``. The gateway holds one connection here per client
connection that has sent this worker a query, so the handler threads
follow the client connections, not the number of queries in flight.

Shutdown is drain-first, from either trigger (SIGTERM/SIGINT via
:class:`~repro.serve.lifecycle.GracefulDrain`, or the gateway's
``drain`` op): stop accepting connections, close the gate (a query that
arrives after it closes is answered ``draining``; one already admitted
finishes and its response is sent), let handler threads retire, write
the final telemetry record, exit 0. A request the worker has accepted is
never dropped without a response.

With telemetry on, each worker writes its own run log
(``<workdir>/worker-<i>/telemetry.jsonl``) through a private
:class:`~repro.obs.sinks.Recorder` — one event per protocol request,
periodic metrics with engine/storage/gate pull sources. ``repro top
<workdir>`` merges the per-worker logs.
"""

from __future__ import annotations

import json
import math
import os
import socket
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Tuple

import numpy as np

from ..serve.lifecycle import GracefulDrain
from . import protocol
from .protocol import _ERROR_STATUS, ProtocolError, recv_frame, send_reply

__all__ = ["WorkerConfig", "worker_main"]

#: Protocol ops answered by a worker.
OPS = ("embed", "score", "topk", "encode", "health", "stats", "drain")


@dataclass
class WorkerConfig:
    """Everything a spawned worker needs, in picklable form."""

    index: int
    spec: Dict[str, Any]          # resolved serve-fleet JobSpec, as a dict
    workdir: str                  # fleet workdir; the worker uses worker-<i>/
    host: str = "127.0.0.1"
    telemetry: bool = False
    flush_every: int = 25

    @property
    def worker_dir(self) -> Path:
        return Path(self.workdir) / f"worker-{self.index}"


def _error(code: str, message: str) -> Dict[str, Any]:
    return {"ok": False, "error": {"code": code, "message": message}}


def _int_list(value: Any, name: str) -> np.ndarray:
    if not isinstance(value, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in value):
        raise ValueError(f"{name!r} must be a list of integers")
    return np.asarray(value, dtype=np.int64)


class _Refused(Exception):
    """A query the gate turned away; ``code`` is its error DTO's code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class _Gate:
    """Admission for engine calls on the handler threads.

    At most ``max_queue`` queries are in flight (0 = unbounded); one past
    it is ``overloaded`` at once. One engine call runs at a time, and a
    query waits at most ``timeout_ms`` for its turn (0 = as long as it
    takes) before it is answered ``timeout`` without reaching the engine.
    After :meth:`close`, new queries are answered ``draining``.
    """

    def __init__(self, max_queue: int = 0, timeout_ms: float = 0.0) -> None:
        self.max_queue = int(max_queue)
        self.timeout_ms = float(timeout_ms)
        self.closed = False
        self.in_flight = self.requests = self.overloads = self.timeouts = 0
        self._lock = threading.Lock()       # guards the counters
        # The one engine call. The engine's own query lock serializes
        # calls too, but only a wait here can be bounded.
        self._turn = threading.Lock()

    def close(self) -> None:
        self.closed = True

    def call(self, fn, *args, **kwargs):
        with self._lock:
            if self.closed:
                raise _Refused("draining", "worker is draining")
            if self.max_queue and self.in_flight >= self.max_queue:
                self.overloads += 1
                raise _Refused("overloaded", (
                    f"worker has {self.in_flight} queries in flight "
                    f"(max_queue={self.max_queue}); back off and retry"))
            self.in_flight += 1
        try:
            if not self._turn.acquire(timeout=self.timeout_ms / 1000.0 or -1):
                with self._lock:
                    self.timeouts += 1
                raise _Refused("timeout", (
                    f"query waited {self.timeout_ms:g} ms for the engine "
                    f"without starting"))
            try:
                self.requests += 1          # only the turn's holder writes it
                return fn(*args, **kwargs)
            finally:
                self._turn.release()
        finally:
            with self._lock:
                self.in_flight -= 1

    def stats(self) -> Dict[str, Any]:
        """``/statz`` section ``batcher``: every engine call serves one
        request, so ``batches`` equals ``requests``."""
        return {"requests": self.requests, "batches": self.requests,
                "in_flight": self.in_flight, "overloads": self.overloads,
                "timeouts": self.timeouts, "max_queue": self.max_queue,
                "timeout_ms": self.timeout_ms}


class _Dispatcher:
    """Maps protocol ops onto the worker's engine, through its gate."""

    def __init__(self, cfg: WorkerConfig, engine, gate: _Gate,
                 drain: GracefulDrain, recorder=None) -> None:
        self.cfg = cfg
        self.engine = engine
        self.gate = gate
        self.drain = drain
        self.recorder = recorder

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        if op not in OPS:
            return _error("bad_request",
                          f"unknown op {op!r} (expected one of {list(OPS)})")
        if self.recorder is not None:
            self.recorder.listener("request", {"op": op,
                                               "worker": self.cfg.index})
        try:
            return getattr(self, f"_op_{op}")(request)
        except KeyError as exc:       # str() would quote the message
            return _error("bad_request", str(exc.args[0]) if exc.args else "")
        except (ValueError, TypeError) as exc:
            return _error("bad_request", str(exc))
        except _Refused as exc:
            return _error(exc.code, str(exc))
        except Exception as exc:      # answer, never kill the connection
            return _error("internal", f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    def _op_embed(self, request: Dict[str, Any]) -> Dict[str, Any]:
        ids = _int_list(request.get("ids"), "ids")
        rows = self.gate.call(self.engine.get_embeddings, ids)
        return {"ok": True, "embeddings": rows}

    def _op_score(self, request: Dict[str, Any]) -> Dict[str, Any]:
        pairs = request.get("pairs")
        if (not isinstance(pairs, list) or not pairs
                or not all(isinstance(p, list) and len(p) in (2, 3)
                           and all(isinstance(x, int) and
                                   not isinstance(x, bool) for x in p)
                           for p in pairs)):
            raise ValueError("'pairs' must be a non-empty list of "
                             "[src, dst] or [src, rel, dst] integer rows")
        width = len(pairs[0])
        if any(len(p) != width for p in pairs):
            raise ValueError("'pairs' rows must all be the same width")
        scores = self.gate.call(self.engine.score_edges,
                                np.asarray(pairs, dtype=np.int64))
        return {"ok": True, "scores": scores}

    def _op_topk(self, request: Dict[str, Any]) -> Dict[str, Any]:
        src = request.get("source")
        k = request.get("k")
        if not isinstance(src, int) or isinstance(src, bool):
            raise ValueError("'source' must be an integer node id")
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ValueError("'k' must be a positive integer")
        rel = request.get("rel", 0)
        if not isinstance(rel, int) or isinstance(rel, bool):
            raise ValueError("'rel' must be an integer relation id")
        exclude = _int_list(request.get("exclude", []), "exclude")
        ids, scores = self.gate.call(self.engine.topk_targets, src, k,
                                     rel=rel, exclude=exclude)
        return {"ok": True, "ids": ids, "scores": scores}

    def _op_encode(self, request: Dict[str, Any]) -> Dict[str, Any]:
        ids = _int_list(request.get("ids"), "ids")
        seed = request.get("seed")
        if seed is not None and (not isinstance(seed, int)
                                 or isinstance(seed, bool)):
            raise ValueError("'seed' must be an integer or null")
        rows = self.gate.call(self.engine.encode_nodes, ids, seed=seed)
        return {"ok": True, "embeddings": rows}

    def _op_health(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"ok": True,
                "status": "draining" if self.drain.triggered else "ok",
                "worker": self.cfg.index, "pid": os.getpid()}

    def _op_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"ok": True, "worker": self.cfg.index,
                "serve": self.engine.stats.as_dict(),
                "storage": self.engine.store.stats.as_dict(),
                "batcher": self.gate.stats()}

    def _op_drain(self, request: Dict[str, Any]) -> Dict[str, Any]:
        # Reply first setting only the flag: the main loop closes the gate
        # after the listener closes, so admitted queries finish.
        self.drain.request_drain()
        return {"ok": True, "draining": True}


def _float32_text(x: float) -> str:
    return "%.9g" % x if x and math.isfinite(x) else json.dumps(x)


def _float32_json(values: np.ndarray) -> str:
    """A 1-d or 2-d float32 array as JSON text, laid out as ``json.dumps``
    lays out its ``tolist()``, but each number printed with ``%.9g``.

    Nine significant digits identify every float32, so the text parses
    back (through a double) to the same float32 bits, in about two
    thirds of the bytes of the double's shortest repr. Zeros and
    non-finite values print as ``json.dumps`` prints them: ``0.0`` and
    ``-0.0`` (``%.9g`` would print ``-0``, which parses as the integer
    0), ``NaN``, ``Infinity``, ``-Infinity``.
    """
    if values.all() and np.isfinite(values).all():
        fmt = "[" + ", ".join(["%.9g"] * values.shape[-1]) + "]"
        row = fmt.__mod__
    else:
        def row(xs):
            return "[" + ", ".join([_float32_text(x) for x in xs]) + "]"
    if values.ndim == 1:
        return row(tuple(values.tolist()))
    return "[" + ", ".join([row(tuple(r)) for r in values.tolist()]) + "]"


def _json(value: Any) -> str:
    if isinstance(value, np.ndarray):
        if value.dtype == np.float32:
            return _float32_json(value)
        value = value.tolist()
    return json.dumps(value)


def _render(reply: Dict[str, Any], worker: int) -> Tuple[int, bytes]:
    """A dispatcher reply as its HTTP status and body: an answer's keys
    plus the answering ``worker`` index, or the bare error DTO. Arrays
    print as JSON lists, float32 ones through :func:`_float32_json`. An
    answer too large for one reply frame becomes a ``bad_request`` DTO,
    so the connection stays up."""
    ok = reply.pop("ok")
    if ok:
        reply["worker"] = worker
    status = 200 if ok else _ERROR_STATUS.get(reply["error"]["code"], 500)
    body = ("{" + ", ".join([f'"{key}": {_json(value)}'
                             for key, value in reply.items()])
            + "}").encode("utf-8")
    if ok and len(body) > protocol.MAX_FRAME:
        return _render(_error(
            "bad_request", f"answer of {len(body)} bytes exceeds the "
            f"{protocol.MAX_FRAME} byte frame limit; ask for fewer rows"),
            worker)
    return status, body


def _serve_connection(conn: socket.socket, dispatcher: _Dispatcher) -> None:
    """One connection's request loop: answer until EOF or drain."""
    conn.settimeout(0.5)
    try:
        while True:
            try:
                request = recv_frame(conn)
            except socket.timeout:
                if dispatcher.drain.triggered:
                    break
                continue
            except (ProtocolError, ConnectionError):
                break
            if request is None:
                break
            try:
                send_reply(conn, *_render(dispatcher.handle(request),
                                          dispatcher.cfg.index))
            except OSError:
                break
    finally:
        try:
            conn.close()
        except OSError:
            pass


def _build_engine(cfg: WorkerConfig):
    """The worker-side engine build: same path as the ``serve`` job."""
    from ..api.jobs import build_serving_engine
    from ..api.specs import JobSpec
    spec = JobSpec.from_dict(cfg.spec)
    worker_dir = cfg.worker_dir
    worker_dir.mkdir(parents=True, exist_ok=True)
    return build_serving_engine(spec, worker_dir)


def _make_recorder(cfg: WorkerConfig):
    if not cfg.telemetry:
        return None
    from ..obs.sinks import JsonlSink, Recorder
    return Recorder(JsonlSink(cfg.worker_dir / "telemetry.jsonl"),
                    flush_every=cfg.flush_every)


def worker_main(cfg: WorkerConfig, ready_queue) -> None:
    """The spawned worker process body (module-level for pickling)."""
    drain = GracefulDrain(exit_after=False)
    try:
        snap, kind, engine = _build_engine(cfg)
    except Exception as exc:
        ready_queue.put({"worker": cfg.index,
                         "error": f"{type(exc).__name__}: {exc}"})
        return
    fleet = cfg.spec.get("fleet", {})
    gate = _Gate(max_queue=int(fleet.get("max_queue", 0)),
                 timeout_ms=float(fleet.get("timeout_ms", 0.0)))
    recorder = _make_recorder(cfg)
    if recorder is not None:
        recorder.add_source("serve", engine.stats.as_dict)
        recorder.add_source("storage", engine.store.stats.as_dict)
        recorder.add_source("batcher", gate.stats)
    dispatcher = _Dispatcher(cfg, engine, gate, drain, recorder)

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((cfg.host, 0))
    listener.listen(128)
    listener.settimeout(0.2)
    port = listener.getsockname()[1]

    threads = []
    with drain:
        ready_queue.put({"worker": cfg.index, "port": port,
                         "pid": os.getpid(),
                         "num_nodes": int(engine.store.num_nodes),
                         "num_partitions": int(engine.scheme.num_partitions),
                         "dim": int(engine.store.dim),
                         "boundaries": [int(b) for b in
                                        engine.scheme.boundaries],
                         "kind": kind})
        parent = os.getppid()
        while not drain.triggered:
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                if os.getppid() != parent:
                    # Orphaned: the fleet parent died without draining us
                    # (crash, SIGKILL). Serving with no gateway is useless
                    # — drain and exit instead of leaking forever.
                    drain.request_drain()
                    break
                continue
            except OSError:
                break
            t = threading.Thread(target=_serve_connection,
                                 args=(conn, dispatcher),
                                 name=f"fleet-worker-{cfg.index}-conn")
            t.start()
            threads = [t] + [x for x in threads if x.is_alive()]
        listener.close()
        # Admitted queries finish on their handler threads; later ones are
        # answered ``draining``, and each handler retires on its next
        # receive timeout once it sees the drain flag.
        gate.close()
    for t in threads:
        t.join(timeout=5.0)
    if recorder is not None:
        recorder.close()
