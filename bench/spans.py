"""In-memory spans around calls into the engine's layers.

A :class:`Tracer` replaces chosen attributes (module functions, methods,
static methods) with wrappers that record one span per call: name, start,
end, parent span and the id of the stimulus being judged.  Nothing inside
the engine changes; the wrappers sit at the layer boundaries and are removed
again when the tracer closes.  Self time is a span's duration minus the
durations of its direct children.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

ROOT = -1  # parent of a span opened outside any other span


class Span(NamedTuple):
    sid: int
    name: str
    start_ns: int
    end_ns: int
    parent: int
    stimulus: int  # 0 outside any stimulus

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class LayerStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0

    def mean_us(self) -> float:
        return self.total_ns / self.calls / 1000.0 if self.calls else 0.0

    def self_mean_us(self) -> float:
        return self.self_ns / self.calls / 1000.0 if self.calls else 0.0


def self_times(spans) -> dict:
    """Per span id: duration minus the summed durations of direct children."""
    own = {s.sid: s.duration_ns for s in spans}
    for s in spans:
        if s.parent != ROOT:
            own[s.parent] -= s.duration_ns
    return own


def aggregate(spans) -> dict:
    """Per span name: call count, inclusive time and self time."""
    own = self_times(spans)
    stats: dict = defaultdict(LayerStats)
    for s in spans:
        entry = stats[s.name]
        entry.calls += 1
        entry.total_ns += s.duration_ns
        entry.self_ns += own[s.sid]
    return dict(stats)


class Tracer:
    """Collects spans from wrapped callables; use as a context manager."""

    def __init__(self, stimulus_span: str = ""):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self._next_id = 0
        self._stimulus = 0
        self._stimulus_span = stimulus_span
        self._restore: list = []

    # wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            self._replace(owner, attr, staticmethod(self.traced(raw.__func__, name)), raw)
        else:
            self._replace(owner, attr, self.traced(getattr(owner, attr), name), raw)

    def traced(self, func, name: str):
        """``func`` wrapped to record a span named ``name`` per call."""
        opens_stimulus = name == self._stimulus_span

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent, stimulus = self._stack[-1] if self._stack else (ROOT, 0)
            if opens_stimulus:
                self._stimulus += 1
                stimulus = self._stimulus
            self._stack.append((sid, stimulus))
            start = time.perf_counter_ns()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, stimulus))

        return traced

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` under ``name`` without a span."""
        func = getattr(owner, attr)

        @functools.wraps(func)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return func(*args, **kwargs)

        self._replace(owner, attr, counted, inspect.getattr_static(owner, attr))

    def _replace(self, owner, attr: str, new, raw) -> None:
        self._restore.append((owner, attr, raw, attr in vars(owner)))
        setattr(owner, attr, new)

    def close(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            owner, attr, raw, own = self._restore.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # results ---------------------------------------------------------------

    def stats(self) -> dict:
        return aggregate(self.spans)

    def write(self, path) -> None:
        """Spans as gzipped tab-separated lines: id, name, start, end,
        parent, stimulus (nanoseconds from an arbitrary origin)."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("sid\tname\tstart_ns\tend_ns\tparent\tstimulus\n")
            for s in sorted(self.spans, key=lambda s: s.sid):
                fh.write("%d\t%s\t%d\t%d\t%d\t%d\n"
                         % (s.sid, s.name, s.start_ns, s.end_ns, s.parent, s.stimulus))
