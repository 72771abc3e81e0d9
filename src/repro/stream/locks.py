"""Locking primitives for concurrent ingest + serve over a live graph.

:class:`~repro.stream.live.LiveGraph` follows one rule:

* **Writers** hold the writer mutex ``LiveGraph.lock``: ingest, node
  growth, compaction, WAL replay and a refresh's write-back windows. So
  one writer runs at a time, and every listener it fires (index
  refreshes, buffer re-syncs) runs with no other writer beside it.
* **Exclusive writers** — every write a serving query could observe:
  growth, compaction and replay (they swap partition schemes, rename
  bucket files, resize slab maps) and a refresh's node-table row
  write-backs — also take the exclusive side of the
  :class:`SharedExclusiveLock` ``LiveGraph.rw``, as
  ``with live.lock, live.rw.exclusive():``. The exclusive side waits for
  the queries already inside the shared side to finish.
* **Serving queries** take its shared side, so they run concurrently
  with each other and with ingest (which appends to the delta log but
  rewrites no node-table row), and never see an exclusive writer's
  half-done work.

Lock order (outermost first), the same everywhere so it stays
deadlock-free: ``LiveGraph.lock`` → ``LiveGraph.rw`` → engine-local lock
→ delta-log mutex.
"""

from __future__ import annotations

import threading

__all__ = ["SharedExclusiveLock"]


class SharedExclusiveLock:
    """A reentrant readers/writer lock.

    Many threads may hold the shared side at once; the exclusive side is
    single-holder and excludes all sharers. Both sides are reentrant
    within a thread, and the exclusive holder may freely acquire the
    shared side (a compaction composes bucket reads while holding the
    exclusive lock). Writer-preference: a waiting writer blocks *new*
    readers, so a steady query stream cannot starve compaction or a
    refresh write-back.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0                      # active shared holds
        self._writer: int | None = None        # thread id of the writer
        self._writer_depth = 0
        self._writers_waiting = 0
        self._local = threading.local()        # per-thread shared depth

    def _depth(self) -> int:
        return getattr(self._local, "depth", 0)

    # -- shared side ---------------------------------------------------
    def acquire_shared(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me or self._depth() > 0:
                # Reentrant (or writer downgrading for a nested read):
                # no new global reader slot needed beyond bookkeeping.
                self._local.depth = self._depth() + 1
                if self._writer != me:
                    self._readers += 1
                return
            while self._writer is not None or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
            self._local.depth = 1

    def release_shared(self) -> None:
        me = threading.get_ident()
        with self._cond:
            depth = self._depth()
            if depth <= 0:
                raise RuntimeError("release_shared without acquire_shared")
            self._local.depth = depth - 1
            if self._writer != me:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    # -- exclusive side ------------------------------------------------
    def acquire_exclusive(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                return
            if self._depth() > 0:
                raise RuntimeError(
                    "cannot upgrade a shared hold to exclusive (deadlock)")
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
                self._writer = me
                self._writer_depth = 1
            finally:
                self._writers_waiting -= 1

    def release_exclusive(self) -> None:
        with self._cond:
            if self._writer != threading.get_ident():
                raise RuntimeError("release_exclusive by a non-holder")
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = None
                self._cond.notify_all()

    # -- context managers ----------------------------------------------
    class _Guard:
        __slots__ = ("_acquire", "_release")

        def __init__(self, acquire, release) -> None:
            self._acquire, self._release = acquire, release

        def __enter__(self):
            self._acquire()
            return self

        def __exit__(self, *exc):
            self._release()

    def shared(self) -> "_Guard":
        return self._Guard(self.acquire_shared, self.release_shared)

    def exclusive(self) -> "_Guard":
        return self._Guard(self.acquire_exclusive, self.release_exclusive)

