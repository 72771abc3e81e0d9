"""Compaction: merge the delta log into the base partitioned stores.

The compactor folds every live event into the base
:class:`~repro.storage.edge_store.EdgeBucketStore`: each bucket's new base
content is exactly the composed view :meth:`LiveGraph.bucket_edges` already
serves (base survivors in base order, then surviving insertions in arrival
order), so compaction is **behaviour-preserving by construction** — a
query, sample, or training step sees bit-identical data before and after.
The node table needs no merge (streamed nodes grow it at ingest time); it
is flushed so the whole post-compaction state is durable.

The rewrite reuses the snapshot subsystem's atomicity discipline
(write-temp + fsync + rename, via
:meth:`EdgeBucketStore.rewrite_buckets`): a crash mid-compaction leaves
either the old bucket file or the new one, never a torn mix. The
compaction *horizon* travels with the rewrite — it is recorded in the
staged layout sidecar that commits atomically with the bucket-file
rename — so recovery never replays journal events a durable compaction
already merged. After the rename the log forgets everything below the
horizon (:meth:`GraphDeltaLog.mark_compacted` — bounded history) and
store fingerprints now reflect the new layout. Nothing re-syncs: the
composed view is unchanged and node rows are untouched, so in-memory
state built from them (adjacency indexes, partition buffers) is still
exact.

:class:`BackgroundCompactor` runs the same merge on a worker thread with
a staleness trigger, retry with exponential backoff + jitter on failure,
and graceful degradation: a failing compaction never takes the service
down — the overlay keeps serving, the failure is logged and surfaced
through ``LiveGraph.health()``, and the next attempt waits out the
backoff.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from .live import LiveGraph

logger = logging.getLogger(__name__)

CompactionListener = Callable[[str, dict], None]


@dataclass
class CompactionReport:
    """What one compaction did (telemetry for the CLI and benchmark)."""

    merged_events: int
    num_edges: int          # base edges after the merge
    seconds: float
    fingerprints: Dict[str, str]


class Compactor:
    """Merges a :class:`LiveGraph`'s delta log into its base stores."""

    def __init__(self, live: LiveGraph) -> None:
        self.live = live
        self.compactions = 0
        self.total_merged_events = 0

    def compact(self) -> CompactionReport:
        """Fold all pending events into the base edge buckets, atomically.

        Safe to call with resident partition buffers and live adjacency
        indexes attached: their in-memory composed state already equals the
        post-compaction base, so nothing is re-read.

        Runs under the structural mutex *and* the exclusive side of the
        shared/exclusive lock: ingest and queries drain before the base
        swap and resume against the new base immediately after.
        """
        live = self.live
        t0 = time.perf_counter()
        with live.lock, live.rw.exclusive():
            upto = live.log.seq
            merged = upto - live.log.compacted_seq
            p = live.num_partitions
            buckets = (live.bucket_edges(i, j, upto_seq=upto, record_io=False)
                       for i in range(p) for j in range(p))
            live.edge_store.rewrite_buckets(buckets, scheme=live.scheme,
                                            compacted_seq=upto)
            live.node_store.flush()
            live.log.mark_compacted(upto)
        self.compactions += 1
        self.total_merged_events += merged
        return CompactionReport(
            merged_events=merged,
            num_edges=live.edge_store.num_edges,
            seconds=time.perf_counter() - t0,
            fingerprints={"node": live.node_store.fingerprint(),
                          "edge": live.edge_store.fingerprint()})


class BackgroundCompactor:
    """Runs compaction on a worker thread so ingest and serving never wait.

    Parameters
    ----------
    compactor:
        The synchronous :class:`Compactor` to drive.
    staleness_threshold:
        Pending-event count that triggers a merge.
    poll_interval:
        Seconds between staleness checks while idle.
    max_backoff:
        Ceiling of the exponential retry backoff after failures.
    seed:
        Seeds the backoff jitter (deterministic in tests).

    Failure semantics — *graceful degradation*: a compaction error is
    caught, logged, counted, and surfaced via :meth:`health` and the
    ``compaction-failed`` listener event; the live graph keeps serving
    from the overlay (which is exactly what it does between compactions
    anyway), and the next attempt waits ``backoff * (1 + jitter)``
    seconds, doubling per consecutive failure up to ``max_backoff``. A
    success resets the backoff and emits ``compaction-done``.
    """

    def __init__(self, compactor: Compactor, staleness_threshold: int = 1024,
                 poll_interval: float = 0.05, max_backoff: float = 30.0,
                 seed: int = 0) -> None:
        self.compactor = compactor
        self.staleness_threshold = int(staleness_threshold)
        self.poll_interval = float(poll_interval)
        self.max_backoff = float(max_backoff)
        self._rng = np.random.default_rng(seed)
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._mutex = threading.Lock()
        self._listeners: List[CompactionListener] = []
        self._state = "idle"
        self._consecutive_failures = 0
        self._last_error: Optional[str] = None
        self._last_report: Optional[CompactionReport] = None
        self._next_attempt_at = 0.0
        self.runs = 0
        self.failures = 0
        self.compactor.live.register_health("compaction", self.health)

    # ------------------------------------------------------------------
    def add_listener(self, fn: CompactionListener) -> None:
        """``fn(event, info)`` with ``event`` one of ``compaction-done`` /
        ``compaction-failed``."""
        self._listeners.append(fn)

    def _emit(self, event: str, info: dict) -> None:
        for fn in self._listeners:
            try:
                fn(event, info)
            except Exception:       # listeners must not kill the worker
                logger.exception("compaction listener failed")

    # ------------------------------------------------------------------
    def start(self) -> "BackgroundCompactor":
        if self._thread is not None:
            raise RuntimeError("background compactor already started")
        self._thread = threading.Thread(target=self._run,
                                        name="bg-compactor", daemon=True)
        self._thread.start()
        return self

    def stop(self, final_compact: bool = False) -> None:
        """Graceful shutdown; with ``final_compact`` a last synchronous
        merge drains whatever the worker had not gotten to."""
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if final_compact and self.compactor.live.staleness() > 0:
            self.compactor.compact()

    def kick(self) -> None:
        """Request an immediate staleness check (e.g. after a burst)."""
        self._wake.set()

    def __enter__(self) -> "BackgroundCompactor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(self.poll_interval)
            self._wake.clear()
            if self._stop.is_set():
                break
            now = time.monotonic()
            if now < self._next_attempt_at:
                continue
            if (self.compactor.live.staleness()
                    < max(self.staleness_threshold, 1)):
                continue
            self._attempt()

    def _attempt(self) -> None:
        with self._mutex:
            self._state = "compacting"
        try:
            report = self.compactor.compact()
        except Exception as exc:
            self.failures += 1
            with self._mutex:
                self._consecutive_failures += 1
                self._last_error = f"{type(exc).__name__}: {exc}"
                backoff = min(self.max_backoff,
                              0.05 * (2 ** (self._consecutive_failures - 1)))
                backoff *= 1.0 + 0.25 * float(self._rng.random())
                self._next_attempt_at = time.monotonic() + backoff
                self._state = "degraded"
            logger.warning(
                "background compaction failed (%d consecutive): %s — "
                "serving continues from the overlay; retrying in %.2fs",
                self._consecutive_failures, self._last_error, backoff)
            self._emit("compaction-failed",
                       {"error": self._last_error,
                        "consecutive_failures": self._consecutive_failures,
                        "retry_in": backoff})
        else:
            self.runs += 1
            with self._mutex:
                self._consecutive_failures = 0
                self._last_error = None
                self._last_report = report
                self._next_attempt_at = 0.0
                self._state = "idle"
            self._emit("compaction-done",
                       {"merged_events": report.merged_events,
                        "num_edges": report.num_edges,
                        "seconds": report.seconds})

    # ------------------------------------------------------------------
    def health(self) -> dict:
        with self._mutex:
            out = {"ts": time.time(),
                   "state": self._state,
                   "runs": self.runs,
                   "failures": self.failures,
                   "consecutive_failures": self._consecutive_failures,
                   "last_error": self._last_error,
                   "staleness_threshold": self.staleness_threshold,
                   "retry_in": max(0.0, self._next_attempt_at
                                   - time.monotonic())
                   if self._next_attempt_at else 0.0}
            if self._last_report is not None:
                out["last_merged_events"] = self._last_report.merged_events
                out["last_seconds"] = self._last_report.seconds
        return out
