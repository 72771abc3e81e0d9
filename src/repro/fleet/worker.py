"""One fleet worker: a serving engine that answers HTTP itself.

``worker_main`` is the ``multiprocessing`` (spawn-safe) entry point. The
worker builds its own read-only :class:`~repro.serve.engine.
ServingEngine` over the shared snapshot. Client connections come from
the host over the worker's AF_UNIX channel, still unread, and each gets
a thread running :func:`_serve_http`: parse a request, call
:meth:`_Dispatcher.handle`, render the reply once (:func:`_render`),
send it in one ``sendall``; a control request passes the connection
back to the host. Each query calls the engine through the admission
gate (:class:`_Gate`). The worker also answers frames
(:mod:`~repro.fleet.protocol`) on a TCP port it reports through the
ready queue: the host's ``health``, ``stats`` and ``drain``, and direct
queries.

Shutdown is drain-first, from any trigger (SIGTERM/SIGINT, the ``drain``
op, or the host closing the channel): stop accepting, close the gate (a
later query is answered ``draining``; an admitted one is answered), shut
the read side of every connection so idle ones end, join the handler
threads, write the final telemetry record
(``<workdir>/worker-<i>/telemetry.jsonl``, merged by ``repro top``).
"""

from __future__ import annotations

import json
import math
import os
import select
import socket
import threading
from dataclasses import dataclass
from pathlib import Path
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from ..serve.lifecycle import GracefulDrain
from . import gateway, protocol
from .gateway import _OPS, Counters, Handlers, _Conn
from .protocol import _ERROR_STATUS, ProtocolError, recv_frame

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


def _int_list(value: Any, name: str, nonempty: bool = False) -> np.ndarray:
    if not isinstance(value, list) or (nonempty and not value) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in value):
        raise ValueError(f"{name!r} must be a {'non-empty ' * nonempty}"
                         f"list of integers")
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
    """Maps protocol ops onto the worker's engine, through its gate;
    ``http`` counts the HTTP replies the worker sent."""

    def __init__(self, cfg: WorkerConfig, engine, gate: _Gate,
                 drain: GracefulDrain, recorder=None) -> None:
        self.cfg = cfg
        self.engine = engine
        self.gate = gate
        self.drain = drain
        self.recorder = recorder
        self.http = Counters()

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
        ids = _int_list(request.get("ids"), "ids", nonempty=True)
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
        ids = _int_list(request.get("ids"), "ids", nonempty=True)
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
                "batcher": self.gate.stats(), "http": dict(self.http)}

    def _op_drain(self, request: Dict[str, Any]) -> Dict[str, Any]:
        # Reply first setting only the flag: the main loop closes the gate
        # after it stops accepting, so admitted queries finish.
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
    """One frame connection's request loop: answer until EOF."""
    try:
        while True:
            request = recv_frame(conn)
            if request is None:
                break
            protocol.send_reply(conn, *_render(dispatcher.handle(request),
                                               dispatcher.cfg.index))
    except (ProtocolError, OSError):
        pass
    conn.close()


def _answer(dispatcher: _Dispatcher, conn: _Conn, head: gateway._Head
            ) -> Optional[Tuple[int, bytes, bool]]:
    """One HTTP query through the dispatcher, rendered."""
    method, path, keep, length, expect = head
    if method != b"POST" or path not in _OPS:   # any body stays unread
        if path in gateway._ROUTES:
            verb = method.decode("latin-1")
            return (*gateway._error("bad_request", f"{verb} not allowed on "
                                    f"{path}", 405), False)
        return (*gateway._error("not_found", f"no route for {path}"), False)
    raw = gateway.read_body(conn, length, expect)
    if raw is None:
        return None                             # closed mid-body
    try:
        body = json.loads(raw)
    except ValueError as exc:                   # not UTF-8, or not JSON
        return (*gateway._error("bad_request", f"request body is not "
                                f"valid JSON: {exc}"), keep)
    if not isinstance(body, dict):
        return (*gateway._error("bad_request", "request body must be a "
                                "JSON object"), keep)
    return (*_render(dispatcher.handle({**body, "op": _OPS[path]}),
                     dispatcher.cfg.index), keep)


def _serve_http(conn: _Conn, dispatcher: _Dispatcher,
                hand_back: Callable[[_Conn], bool]) -> None:
    """A connection the host passed: answer its queries; ``hand_back``
    passes it to the host at a control request."""
    gateway.serve_http(conn, False, partial(_answer, dispatcher),
                       dispatcher.http, hand_back)


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


def worker_main(cfg: WorkerConfig, ready_queue,
                channel: socket.socket) -> None:
    """The spawned worker process body (module-level for pickling);
    ``channel`` is its end of the host's AF_UNIX connection channel."""
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

    def hand_back(conn: _Conn) -> bool:
        try:
            gateway.send_connection(channel, conn)
            return True
        except OSError:
            return False            # the host has stopped

    name = f"fleet-worker-{cfg.index}"
    http = Handlers(lambda conn: _serve_http(conn, dispatcher, hand_back),
                    f"{name}-http")
    frames = Handlers(lambda conn: _serve_connection(conn.sock, dispatcher),
                      f"{name}-frames")
    listener = socket.create_server((cfg.host, 0), backlog=128)

    with drain:
        ready_queue.put({"worker": cfg.index,
                         "port": listener.getsockname()[1],
                         "pid": os.getpid(),
                         "num_nodes": int(engine.store.num_nodes),
                         "num_partitions": int(engine.scheme.num_partitions),
                         "dim": int(engine.store.dim),
                         "boundaries": [int(b) for b in
                                        engine.scheme.boundaries],
                         "kind": kind})
        while not drain.triggered:
            ready, _, _ = select.select([listener, channel], [], [], 0.2)
            if listener in ready:
                try:
                    frames.start(_Conn(listener.accept()[0]))
                except OSError:
                    pass            # the peer gave up before the accept
            if channel in ready:
                conn = gateway.recv_connection(channel)
                if conn is None:
                    # The host is gone (stopped, crashed or killed):
                    # serving with no front door is useless.
                    drain.request_drain()
                else:
                    http.start(conn)
        listener.close()
        # Admitted queries finish on their handler threads; later ones are
        # answered ``draining``. Shutting the read side of each connection
        # ends the idle ones.
        gate.close()
    http.stop()
    frames.stop()
    channel.close()
    if recorder is not None:
        recorder.close()
