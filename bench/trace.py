"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from *outside* the program: :meth:`Tracer.wrap`
returns a timing wrapper around one public function of a layer, and
:class:`Patches` installs such wrappers as instance attributes on the
built job's collaborators (and restores them afterwards). Nothing in
``src/`` knows about this module.

A span is ``(name, start, end, parent, run)``. Each thread keeps its own
span list and open-span stack, so a span's parent is always the span that
was open on the same thread when it began. ``run`` is whatever
:attr:`Tracer.run` held at that moment — the epoch number for training,
so one epoch's spans share an identifier. A span's *self time* is its
duration minus its children's durations (children of one parent never
overlap: they sit on one thread's stack).
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    """Records spans on per-thread stacks; everything stays in memory
    until :meth:`dump`."""

    def __init__(self) -> None:
        self.enabled = True
        self.run: Any = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[Tuple[str, list]] = []   # (thread name, spans)

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack, local.muted = [], [], 0
            with self._lock:
                self._threads.append((threading.current_thread().name,
                                      local.spans))
        return local

    # ------------------------------------------------------------------
    def begin(self, name: str) -> Optional[int]:
        """Open a span on this thread; returns its handle for :meth:`end`
        (``None`` while the tracer is off or a muting span is open)."""
        local = self._state()
        if not self.enabled or local.muted:
            return None
        spans, stack = local.spans, local.stack
        index = len(spans)
        spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.run])
        stack.append(index)
        spans[index][START] = time.perf_counter()
        return index

    def end(self, index: Optional[int]) -> None:
        now = time.perf_counter()
        if index is None:
            return
        local = self._local
        local.spans[index][END] = now
        # Normally the top of the stack; an exception that skipped an
        # inner end() leaves deeper entries, which are dropped with it.
        while local.stack and local.stack.pop() != index:
            pass

    def wrap(self, fn: Callable, name: str, mute_children: bool = False,
             on_result: Optional[Callable[[Any], None]] = None) -> Callable:
        """``fn`` timed as span ``name``. ``mute_children`` records no spans
        beneath it (its time is reported whole); ``on_result`` sees each
        return value, for counts taken where the work happens."""
        begin, end, state = self.begin, self.end, self._state

        def traced(*args, **kwargs):
            index = begin(name)
            if index is None:
                return fn(*args, **kwargs)
            if mute_children:
                state().muted += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                if mute_children:
                    state().muted -= 1
                end(index)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    def threads(self) -> List[Tuple[str, list]]:
        with self._lock:
            return list(self._threads)

    def self_times(self) -> Dict[Any, Dict[str, float]]:
        """``run -> span name -> summed self seconds`` over closed spans."""
        out: Dict[Any, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for _, spans in self.threads():
            child_time = [0.0] * len(spans)
            for span in spans:
                if span[END] and span[PARENT] >= 0:
                    child_time[span[PARENT]] += span[END] - span[START]
            for span, covered in zip(spans, child_time):
                if span[END]:
                    out[span[RUN]][span[NAME]] += (span[END] - span[START]
                                                   - covered)
        return {run: dict(names) for run, names in out.items()}

    def durations(self, name: str) -> Dict[Any, List[float]]:
        """``run -> [duration of each closed span called name]``."""
        out: Dict[Any, List[float]] = defaultdict(list)
        for _, spans in self.threads():
            for span in spans:
                if span[NAME] == name and span[END]:
                    out[span[RUN]].append(span[END] - span[START])
        return dict(out)

    def dump(self, path: Path, meta: Optional[dict] = None) -> Path:
        """Write every span as JSON (one list per thread)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"meta": meta or {},
                   "fields": ["name", "start", "end", "parent", "run"],
                   "threads": [{"thread": name, "spans": spans}
                               for name, spans in self.threads()]}
        path.write_text(json.dumps(payload))
        return path


class Patches:
    """Attribute replacements that can be undone.

    ``set`` on an *instance* shadows the class's method with an instance
    attribute, and undoing deletes it again; ``set`` on a *class* (used
    for ``Tensor.backward``) swaps the class attribute and undoing puts
    the original function back.
    """

    _MISSING = object()

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        previous = vars(owner).get(attr, self._MISSING)
        self._undo.append((owner, attr, previous))
        setattr(owner, attr, value)

    def wrap(self, tracer: Tracer, owner: Any, attr: str, name: str,
             **kwargs) -> None:
        """Replace ``owner.attr`` by its traced wrapper."""
        self.set(owner, attr, tracer.wrap(getattr(owner, attr), name,
                                          **kwargs))

    def restore(self) -> None:
        while self._undo:
            owner, attr, previous = self._undo.pop()
            if previous is self._MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
