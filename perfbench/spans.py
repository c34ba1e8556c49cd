"""In-memory spans: name, start, end, parent and request id per span.

A :class:`SpanRecorder` keeps one open-span stack per thread (the
daemon runs request handlers on a thread pool), appends every finished
span to one list, and writes nothing until :meth:`SpanRecorder.dump`
is called at the end of a run.  Spans also carry a small ``attrs`` dict
for the counts measured at the same boundary (steps, groups replayed,
cache hits, ...).

:func:`self_times` turns a span list into per-span self time: the
span's duration minus the part of its interval that its child spans
cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float | None = None
    parent: int | None = None
    request: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        assert self.end is not None, f"span {self.name} is still open"
        return (self.end - self.start) * 1000.0

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            "attrs": self.attrs,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Span":
        return cls(**payload)


class SpanRecorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._requests = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def new_request(self) -> int:
        with self._lock:
            return next(self._requests)

    def open(self, name: str, request: int | None = None) -> Span:
        parent = self.current()
        if request is None and parent is not None:
            request = parent.request
        with self._lock:
            span_id = next(self._ids)
        span = Span(
            id=span_id,
            name=name,
            start=time.perf_counter(),
            parent=parent.id if parent is not None else None,
            request=request,
        )
        self._stack().append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        # Spans close in LIFO order on one thread; pop defensively so an
        # exception inside a wrapped call cannot leave the stack skewed.
        while stack:
            if stack.pop() is span:
                break
        with self._lock:
            self.spans.append(span)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json()) + "\n")


def load_spans(path) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span.from_json(json.loads(line)) for line in handle if line.strip()]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time in ms per span id: duration minus child-covered time."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        covered = _covered(children.get(span.id, []), span.start, span.end)
        out[span.id] = (span.end - span.start - covered) * 1000.0
    return out
