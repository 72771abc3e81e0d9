"""Signal-aware shutdown for serving processes.

A ``serve`` job (and every fleet worker) answers queries until it is told
to stop — and "told to stop" in any deployment is a signal, not a method
call. :class:`GracefulDrain` turns SIGINT/SIGTERM into an orderly stop:
the moment the signal lands, a shutdown event is set for loops that poll
instead of block (a fleet worker stops accepting, closes its admission
gate and lets admitted queries finish), or, in the ``serve`` job's mode,
the query loop unwinds with the conventional exit code. A second signal
during the drain is absorbed: the drain is already running.
"""

from __future__ import annotations

import signal
import threading
from typing import Iterable, Optional

__all__ = ["GracefulDrain"]

_DEFAULT_SIGNALS = (signal.SIGINT, signal.SIGTERM)


class GracefulDrain:
    """Context manager: install drain-on-signal handlers, restore on exit.

    Parameters
    ----------
    signals:
        Which signals trigger the drain (default SIGINT + SIGTERM).
    exit_after:
        When true (the ``serve`` job mode), the handler raises
        ``SystemExit(128 + signum)`` — the conventional
        "killed by signal N" exit code — so a blocking query loop
        unwinds. When false (the fleet-worker mode), the handler only
        sets :attr:`triggered` and the serving loop is expected to poll
        it (or :meth:`wait`) and shut itself down.

    Installing handlers is only legal on the main thread; elsewhere (e.g.
    a pytest worker thread) the context manager degrades to a no-op shell
    whose :meth:`request_drain` can still be called programmatically.
    """

    def __init__(self, signals: Iterable[int] = _DEFAULT_SIGNALS,
                 exit_after: bool = True) -> None:
        self._signals = tuple(signals)
        self._exit_after = bool(exit_after)
        self._event = threading.Event()
        self._old = {}
        self.signum: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a signal (or :meth:`request_drain`) started the drain."""
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the drain is requested (or ``timeout`` elapses)."""
        return self._event.wait(timeout)

    def request_drain(self, signum: int = 0) -> None:
        """Programmatic trigger: exactly the handler minus the exit."""
        self.signum = signum or self.signum
        self._event.set()

    def _handle(self, signum, frame) -> None:
        already = self.triggered
        self.request_drain(signum)
        if self._exit_after and not already:
            raise SystemExit(128 + signum)

    # ------------------------------------------------------------------
    def __enter__(self) -> "GracefulDrain":
        for sig in self._signals:
            try:
                self._old[sig] = signal.signal(sig, self._handle)
            except ValueError:      # not the main thread: poll-only mode
                break
        return self

    def __exit__(self, *exc) -> None:
        for sig, old in self._old.items():
            try:
                signal.signal(sig, old)
            except ValueError:
                pass
        self._old.clear()
