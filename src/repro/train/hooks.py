"""Shared progress/checkpoint listener hook for every trainer kind.

The unified job API (:mod:`repro.api`) observes training through one
callback shape instead of each trainer growing bespoke loop plumbing:
``listener(event, payload)`` where ``event`` is a short string and
``payload`` a JSON-able dict. Every trainer emits at least:

* ``"epoch"`` — after each completed epoch (``epoch``, ``loss``,
  ``seconds``, ``metric``, ``io_bytes``);
* ``"snapshot"`` — after each atomic snapshot lands (``path`` plus the
  kind's cursor fields);

and the streaming :class:`~repro.stream.refresh.ContinualTrainer` adds
``"refresh"`` per fine-tuning pass. Listeners run synchronously on the
training thread between units of work — they must be cheap and must not
mutate trainer state.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

ProgressListener = Callable[[str, Dict[str, Any]], None]


class ListenerHooks:
    """Mixin giving a trainer a listener registry and an ``_emit`` helper."""

    listeners: List[ProgressListener]

    def _init_hooks(self,
                    listeners: Optional[Iterable[ProgressListener]] = None
                    ) -> None:
        self.listeners = list(listeners or [])

    def add_listener(self, fn: ProgressListener) -> None:
        """Register ``fn(event, payload)`` for progress/snapshot events."""
        self.listeners.append(fn)

    def _emit(self, event: str, **payload: Any) -> None:
        for fn in list(self.listeners):
            fn(event, dict(payload))
