"""In-memory spans recorded around the calls into each polagram layer.

A span is ``[id, parent, name, start, end, attrs]``: ``parent`` is the id of
the span that was open when this one started (``None`` at the root), times
are ``time.perf_counter`` seconds and ``attrs`` holds counts recorded at the
same boundary.  Spans stay in a list until the run ends and are written out
then.

Layers are traced from the outside: ``Tracer.wrap`` replaces a function at
the module attribute its caller looks up (``polagram.parser.prove`` and so
on), so the library's own code runs unedited.  A ``gc.callbacks`` hook adds
one ``gc`` span per collection under whichever span was open when the
collector started.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

ID, PARENT, NAME, START, END, ATTRS = range(6)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self._stack: List[list] = []
        self._patched: List[Tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1][ID] if self._stack else None
        span = [len(self.spans), parent, name, self.clock(), None, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = self.clock()
        popped = self._stack.pop()
        assert popped is span, "spans must close in reverse order"

    @contextmanager
    def span(self, name: str) -> Iterator[list]:
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, module: object, attr: str, name: str,
             on_result: Optional[Callable[[list, tuple, object], None]] = None
             ) -> None:
        """Replace ``module.attr`` by a spanned call; ``on_result(span,
        args, result)`` may record counts after the span has closed."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if on_result is not None:
                on_result(span, args, result)
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._open("gc")[ATTRS] = {"generation": info["generation"]}
        elif self._stack and self._stack[-1][NAME] == "gc":
            self._close(self._stack[-1])

    def install(self) -> None:
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Remove the gc hook and every wrapper, newest first."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def covered(interval: Tuple[float, float],
            parts: Iterable[Tuple[float, float]]) -> float:
    """Length of the part of ``interval`` that the union of ``parts``
    covers; overlapping parts count once."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(parts):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Iterable[list]) -> Dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    return {s[ID]: (s[END] - s[START])
            - covered((s[START], s[END]), children.get(s[ID], ()))
            for s in spans}
