"""In-memory spans recorded around the benchmark's calls into the library.

A span is ``(name, start, end, parent, item)``: ``parent`` is the index
of the enclosing span (-1 for a root) and ``item`` identifies the input
the span worked on.  Spans stay in memory until :meth:`Tracer.write`.
``NO_TRACE`` has the same ``call`` interface and records nothing, so
untraced runs pay one extra function call per stage and no more.  The
summaries of a run (percentiles and output digests) live here too.

The benchmark times work with the process CPU clock: on a shared host,
wall time also counts the time other processes held the core, and that
varied more between runs than the program did.
"""

from __future__ import annotations

import hashlib
import json
from time import process_time


class Tracer:
    def __init__(self, clock=process_time) -> None:
        self.clock = clock
        self.spans: list[tuple] = []
        self._open: list[int] = []

    def call(self, name: str, item, fn, *args):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = self.clock()
        try:
            return fn(*args)
        finally:
            end = self.clock()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, item)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def by_name(self) -> dict[str, list[tuple]]:
        """``name -> [(item, self seconds), ...]`` in recording order."""
        out: dict[str, list[tuple]] = {}
        for span, own in zip(self.spans, self.self_times()):
            out.setdefault(span[0], []).append((span[4], own))
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")


class _NoTrace:
    @staticmethod
    def call(name, item, fn, *args):
        return fn(*args)


NO_TRACE = _NoTrace()


def span_cost_s(clock=process_time, rounds: int = 5, reps: int = 20000) -> float:
    """CPU seconds one ``Tracer.call`` costs beyond a ``NO_TRACE.call``.

    Measured in the calling process on a call that does nothing,
    alternating the two in each round; the median round is returned.
    Multiplied by a run's span count it gives the time tracing added.
    """
    def nothing():
        return None

    extra = []
    for _ in range(rounds):
        tracer = Tracer(clock)
        start = process_time()
        for i in range(reps):
            tracer.call("probe", i, nothing)
        traced = process_time() - start
        start = process_time()
        for i in range(reps):
            NO_TRACE.call("probe", i, nothing)
        extra.append((traced - (process_time() - start)) / reps)
    return percentile(extra, 0.5)


def percentile(values, share: float) -> float:
    """Inclusive linear-interpolation percentile; 0 for no samples."""
    values = sorted(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    pos = share * (len(values) - 1)
    low = int(pos)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (pos - low)


def digest(records) -> str:
    """Short hash of JSON-able outputs, for diffing two commits' results."""
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
