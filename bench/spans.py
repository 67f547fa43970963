"""In-memory span tracing of equinn's public layer functions.

:class:`Tracer` replaces functions at their module (or class) attributes
with wrappers that record one span per call: name, start, end, parent span
and run id.  Spans stay in memory until the benchmark writes them out.
Everything runs in one thread, so a stack gives each span its parent and a
layer never waits in a queue: waiting time is zero by construction.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    run_id: str
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for wrapped callables while installed.

    ``run_id`` labels the spans of one benchmark cycle (one solve or one
    post-processing cycle); the benchmark sets it at the start of a cycle.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.run_id, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def call(self, name: str, fn: Callable, *args, **kwargs):
        span = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    # -- installation ------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_return: Optional[Callable] = None,
             before: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``before(args)`` runs ahead of the span (its cost is not charged to
        the layer); ``on_return(span, result, args)`` may attach counts to
        the span once the call has returned.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            span = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(span)
            if on_return is not None:
                on_return(span, result, args)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part covered by its direct children."""
        child = {}
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] = child.get(s.parent, 0.0) + s.duration
        return {s.id: s.duration - child.get(s.id, 0.0) for s in self.spans}

    def parent_name(self, span: Span) -> Optional[str]:
        return None if span.parent is None else self.spans[span.parent].name

    def records(self) -> list[dict]:
        return [
            {
                "id": s.id, "name": s.name, "parent": s.parent, "run_id": s.run_id,
                "start": s.start, "end": s.end, **({"info": s.info} if s.info else {}),
            }
            for s in self.spans
        ]
