"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name, a start, an end, the index of the span that was open
when it began (its parent, -1 for none) and the id of the cell it belongs
to.  Spans stay in memory until the run ends; a layer's self time is its
spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


class NullTracer:
    """The untraced path: each layer call is a plain call."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, value: float = 1) -> None:
        pass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    cell: str


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._cell = ""

    @contextmanager
    def span(self, name: str, cell: str | None = None):
        if cell is not None:
            self._cell = cell
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        record = Span(name, time.perf_counter(), 0.0, parent, self._cell)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, seconds of self time)."""
        covered = defaultdict(float)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.end - s.start
        calls: Counter = Counter()
        busy: defaultdict = defaultdict(float)
        for index, s in enumerate(self.spans):
            calls[s.name] += 1
            busy[s.name] += s.end - s.start - covered[index]
        return {name: (calls[name], busy[name]) for name in calls}

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]))
