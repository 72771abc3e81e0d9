"""Micro-batching request queue in front of the serving engine.

Individual queries are tiny; per-call overhead (locking, dispatch, one
gather or one partition sweep) is not. The batcher amortizes it by
coalescing concurrent requests into one engine call: the worker
dispatches as soon as it is idle, taking up to ``max_batch`` queued
requests at once, so whatever queued while the previous engine call ran
forms the next batch. It never waits on a timer for company: a lone
request is dispatched at once. Same-kind payloads are concatenated into
one gather, and top-k sources share one sweep. Each request records its
own end-to-end latency (enqueue to result), so the tail cost of a slow
batch is visible per request, not averaged away per batch.

The queue is **bounded** in both dimensions an always-on service needs:
``max_queue`` caps outstanding requests (a submit past it raises the
typed :class:`Overloaded` — backpressure surfaces at the caller instead
of an unbounded queue absorbing it), and ``timeout_ms`` puts a deadline
on each request (a :class:`RequestTimeout` is delivered instead of
blocking the caller forever behind a stuck engine). Both are counted in
the batcher's stats.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional

import numpy as np

from ..obs.registry import Gauge, Histogram
from .engine import ServingEngine

EMBED = "embed"
SCORE = "score"
TOPK = "topk"
ENCODE = "encode"


class Overloaded(RuntimeError):
    """The batcher's queue is full; the caller should back off and retry."""


class RequestTimeout(TimeoutError):
    """The request's deadline passed before a result was produced."""


class BatcherStopped(RuntimeError):
    """The batcher is stopping (draining) or stopped; it takes no new
    requests."""


class ServeRequest:
    """One queued query with its own completion event and latency clock."""

    __slots__ = ("kind", "payload", "result", "error", "t_enqueue", "t_done",
                 "_event", "deadline", "_timed_out", "_on_timeout")

    def __init__(self, kind: str, payload: np.ndarray,
                 deadline: Optional[float] = None) -> None:
        self.kind = kind
        self.payload = payload
        self.result: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None
        self.t_enqueue = time.perf_counter()
        self.t_done: Optional[float] = None
        self._event = threading.Event()
        self.deadline = deadline         # absolute perf_counter time
        self._timed_out = threading.Event()
        self._on_timeout = None          # batcher stats callback

    def mark_timeout(self) -> bool:
        """Record the deadline miss exactly once (caller and worker can
        both observe it); returns True for the first observer."""
        first = not self._timed_out.is_set()
        self._timed_out.set()
        if first and self._on_timeout is not None:
            self._on_timeout()
        return first

    def wait(self) -> np.ndarray:
        if self.deadline is None:
            self._event.wait()
        else:
            remaining = self.deadline - time.perf_counter()
            if not self._event.wait(timeout=max(0.0, remaining)):
                self.mark_timeout()
                raise RequestTimeout(
                    f"{self.kind} request missed its deadline "
                    f"({1000.0 * (time.perf_counter() - self.t_enqueue):.1f}"
                    f"ms since enqueue)")
        if self.error is not None:
            raise self.error
        return self.result

    def finish(self, result=None, error: Optional[BaseException] = None) -> None:
        self.result = result
        self.error = error
        self.t_done = time.perf_counter()
        self._event.set()

    @property
    def latency_ms(self) -> float:
        if self.t_done is None:
            return 0.0
        return 1000.0 * (self.t_done - self.t_enqueue)


class RequestBatcher:
    """Coalesces embedding/scoring requests into batched engine calls.

    The worker thread dispatches when idle: it takes every queued request
    (up to ``max_batch``) as soon as it is free, and never holds a partial
    batch back.

    Parameters
    ----------
    engine:
        The serving engine; all execution happens on the batcher's single
        worker thread, so the (thread-unsafe) engine is never entered
        concurrently.
    max_batch:
        Most requests one batch takes from the queue.
    max_wait_ms:
        Accepted and ignored: the batcher never waits for requests to
        join a batch. Kept so existing ``FleetSpec`` documents and
        callers stay valid.
    max_queue:
        Outstanding-request cap; a submit at the cap raises
        :class:`Overloaded`. ``None`` (default) keeps the queue unbounded.
    timeout_ms:
        Default per-request deadline, measured from enqueue; a miss
        delivers :class:`RequestTimeout` to the waiting caller (and the
        worker discards the expired request instead of executing it).
        ``None`` disables deadlines; :meth:`submit` takes a per-request
        override.
    """

    def __init__(self, engine: ServingEngine, max_batch: int = 256,
                 max_wait_ms: float = 2.0, max_queue: Optional[int] = None,
                 timeout_ms: Optional[float] = None) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be at least 1 (or None)")
        self.engine = engine
        self.max_batch = int(max_batch)
        self.max_queue = int(max_queue) if max_queue is not None else None
        self.timeout_ms = float(timeout_ms) if timeout_ms is not None else None
        self._queue: Deque[ServeRequest] = deque()
        self._cond = threading.Condition()
        self._stopping = False
        self._worker: Optional[threading.Thread] = None
        # Standalone (not registry-global) so each batcher instance keeps
        # its own counts; bounded sketches, never per-request lists.
        self.latency_hist = Histogram("serve.batch.latency_ms")
        self.batch_hist = Histogram("serve.batch.size")
        self.queue_depth = Gauge("serve.batch.queue_depth")
        self.overloads = 0
        self.timeouts = 0

    # ------------------------------------------------------------------
    def start(self) -> "RequestBatcher":
        if self._worker is not None:
            raise RuntimeError("batcher already started")
        self._stopping = False
        self._worker = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve-batcher")
        self._worker.start()
        return self

    def stop(self) -> None:
        """Drain outstanding requests, then stop the worker."""
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        if self._worker is not None:
            self._worker.join()
            self._worker = None

    def __enter__(self) -> "RequestBatcher":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _note_timeout(self) -> None:
        with self._cond:
            self.timeouts += 1

    def submit(self, kind: str, payload: np.ndarray,
               timeout_ms: Optional[float] = None) -> ServeRequest:
        if self._worker is None and not self._stopping:
            raise RuntimeError("batcher is not running (use start() or a "
                               "with-block)")
        payload = np.asarray(payload, dtype=np.int64)
        if kind == EMBED:
            # Normalize here, not in the worker: per-request result slicing
            # counts payload entries, so a 2-d id array must become 1-d
            # before it is measured against the merged result.
            payload = payload.ravel()
        if timeout_ms is None:
            timeout_ms = self.timeout_ms
        deadline = (time.perf_counter() + float(timeout_ms) / 1000.0
                    if timeout_ms is not None else None)
        request = ServeRequest(kind, payload, deadline=deadline)
        request._on_timeout = self._note_timeout
        with self._cond:
            if self._stopping:
                raise BatcherStopped("batcher is stopping; not running new "
                                     "requests")
            if (self.max_queue is not None
                    and len(self._queue) >= self.max_queue):
                self.overloads += 1
                raise Overloaded(
                    f"serve queue is full ({len(self._queue)} waiting, "
                    f"max_queue={self.max_queue}); back off and retry")
            self._queue.append(request)
            self.queue_depth.set(len(self._queue))
            self._cond.notify_all()
        return request

    def get_embeddings(self, node_ids) -> np.ndarray:
        """Blocking embedding lookup through the micro-batching queue."""
        ids = np.asarray(node_ids, dtype=np.int64).ravel()
        return self.submit(EMBED, ids).wait()

    def score_edges(self, pairs) -> np.ndarray:
        """Blocking edge scoring through the micro-batching queue."""
        return self.submit(SCORE, np.asarray(pairs, dtype=np.int64)).wait()

    def topk_targets(self, src: int, k: int, rel: int = 0, exclude=()):
        """Blocking top-k query through the micro-batching queue.

        Concurrent top-k requests with the same ``(k, exclude)`` are
        coalesced into one :meth:`ServingEngine.topk_targets_batch` call,
        so n waiting queries share a single partition sweep instead of
        paying n sweeps. The payload is ``[src, rel, k, *exclude]``.
        ``exclude`` is the
        engine's shared candidate blacklist (excluded ids are removed,
        never returned); requests with different blacklists simply land
        in different groups. Returns ``(ids, scores)`` for this source,
        best first.
        """
        excl = np.asarray(sorted(set(int(x) for x in exclude)),
                          dtype=np.int64)
        payload = np.concatenate([
            np.array([int(src), int(rel), int(k)], dtype=np.int64), excl])
        return self.submit(TOPK, payload).wait()

    def encode_nodes(self, node_ids, seed=None) -> np.ndarray:
        """Blocking encode-on-read through the micro-batching queue.

        Requests with the same ``seed`` coalesce into one
        :meth:`ServingEngine.encode_nodes` call (the seeded path is a
        pure function of (snapshot, query, seed), so merging queries
        preserves every caller's result rows). The two payload header
        slots carry ``[has_seed, seed]`` ahead of the ids.
        """
        ids = np.asarray(node_ids, dtype=np.int64).ravel()
        header = np.array([0 if seed is None else 1,
                           0 if seed is None else int(seed)], dtype=np.int64)
        return self.submit(ENCODE, np.concatenate([header, ids])).wait()

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p99/mean/max of per-request end-to-end latency, from the
        bounded histogram (same keys :func:`~repro.serve.stats.latency_summary`
        produced from the old per-request list)."""
        h = self.latency_hist
        if h.count == 0:
            return {"n": 0, "p50_ms": 0.0, "p99_ms": 0.0, "mean_ms": 0.0,
                    "max_ms": 0.0}
        return {"n": int(h.count),
                "p50_ms": float(h.quantile(0.5)),
                "p99_ms": float(h.quantile(0.99)),
                "mean_ms": float(h.sum / h.count),
                "max_ms": float(h.max)}

    def stats(self) -> Dict[str, float]:
        """Operational counters: completed request latencies plus the two
        bounded-queue outcomes (rejected submits, missed deadlines)."""
        batches = self.batch_hist.count
        return {"requests": int(self.latency_hist.count),
                "batches": int(batches),
                "mean_batch": (float(self.batch_hist.sum / batches)
                               if batches else 0.0),
                "overloads": self.overloads,
                "timeouts": self.timeouts,
                "queue_depth": int(self.queue_depth.value),
                "max_queue": self.max_queue or 0,
                "timeout_ms": self.timeout_ms or 0.0}

    # ------------------------------------------------------------------
    def _collect(self) -> List[ServeRequest]:
        """Wait for work, then take up to max_batch queued requests at
        once: a guess that more requests are coming is never worth a timer
        on an idle worker."""
        with self._cond:
            while not self._queue and not self._stopping:
                self._cond.wait()
            batch = []
            while self._queue and len(batch) < self.max_batch:
                batch.append(self._queue.popleft())
            self.queue_depth.set(len(self._queue))
            return batch

    def _run(self) -> None:
        while True:
            batch = self._collect()
            if not batch:
                return
            self.batch_hist.observe(len(batch))
            self._execute(batch)

    def _execute(self, batch: List[ServeRequest]) -> None:
        # Deadline-expired requests are discarded up front: the caller is
        # (or will be) gone, and executing them would tax the batch that
        # made it in time.
        now = time.perf_counter()
        live: List[ServeRequest] = []
        for request in batch:
            if request.deadline is not None and now > request.deadline:
                request.mark_timeout()
                request.finish(error=RequestTimeout(
                    f"{request.kind} request expired in queue"))
                self.latency_hist.observe(request.latency_ms)
            else:
                live.append(request)
        batch = live
        groups: Dict[tuple, List[ServeRequest]] = {}
        for request in batch:
            if request.kind == TOPK:
                # Top-k requests coalesce per (k, exclude): one
                # multi-source partition sweep answers the whole group,
                # row i per request i. Entries past the third are the
                # shared candidate blacklist.
                exclude = tuple(int(x) for x in request.payload[3:])
                key = (TOPK, (int(request.payload[2]), exclude))
            elif request.kind == ENCODE:
                # Encode requests coalesce per seed (the [has_seed, seed]
                # payload header); one engine call encodes the merged ids.
                # Only decoder-only engines merge: with a sampler, the
                # neighborhood draw is a function of the whole target set,
                # so merging would change every caller's result.
                seed = (int(request.payload[1]) if request.payload[0]
                        else None)
                if getattr(self.engine, "sampler", None) is not None:
                    key = (ENCODE, (seed, id(request)))
                else:
                    key = (ENCODE, seed)
            else:
                width = (request.payload.shape[1]
                         if request.payload.ndim == 2 else 0)
                key = (request.kind, width)
            groups.setdefault(key, []).append(request)
        for (kind, extra), requests in groups.items():
            try:
                payloads = [r.payload for r in requests]
                if kind == EMBED:
                    merged = np.concatenate(payloads)
                    result = self.engine.get_embeddings(merged)
                elif kind == SCORE:
                    merged = np.concatenate(payloads, axis=0)
                    result = self.engine.score_edges(merged)
                elif kind == TOPK:
                    srcs = np.array([p[0] for p in payloads], dtype=np.int64)
                    rels = np.array([p[1] for p in payloads], dtype=np.int64)
                    group_k, group_exclude = extra
                    ids, scores = self.engine.topk_targets_batch(
                        srcs, group_k, rel=rels, exclude=group_exclude)
                    for row, request in enumerate(requests):
                        request.finish(result=(ids[row], scores[row]))
                    result = None
                elif kind == ENCODE:
                    seed = extra[0] if isinstance(extra, tuple) else extra
                    merged = np.concatenate([p[2:] for p in payloads])
                    result = self.engine.encode_nodes(merged, seed=seed)
                    offset = 0
                    for request in requests:
                        n = len(request.payload) - 2
                        request.finish(result=result[offset : offset + n])
                        offset += n
                    result = None
                else:
                    raise ValueError(f"unknown request kind {kind!r}")
                if result is not None:
                    offset = 0
                    for request in requests:
                        n = len(request.payload)
                        request.finish(result=result[offset : offset + n])
                        offset += n
            except Exception as exc:   # deliver, don't kill the worker
                for request in requests:
                    if not request._event.is_set():
                        request.finish(error=exc)
            for request in requests:
                self.latency_hist.observe(request.latency_ms)
