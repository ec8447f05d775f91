"""In-memory span tracer for the benchmark's traced pass.

The tracer wraps a function where its caller looks it up (a module or
class attribute), so the program itself is not modified. Every call of a
wrapped function records one span: a name, a start and an end in
nanoseconds, and the index of the enclosing span (-1 for a root). Spans
live in flat integer arrays until the run ends, which keeps memory at
32 bytes per span even for the ~10^6 calls a threshold-grid pass makes.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np


class Tracer:
    """Records spans for every installed wrapper until uninstalled."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, dict[str, int]] = {}
        self._stack = [-1]
        self._patches: list[tuple] = []

    def wrap(self, owner, attr: str, span: str, count=None) -> None:
        """Replace owner.attr by a recording wrapper.

        ``count(args, result)`` may yield (key, value) pairs that are
        summed per span name, so ratios are measured where the work is.
        Counting runs after the span closes and is charged to the parent.
        """
        original = getattr(owner, attr)
        nid = self._ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        totals = self.counts.setdefault(span, {})
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                for key, value in count(args, result):
                    totals[key] = totals.get(key, 0) + value
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self nanoseconds, counters.

        Self time is a span's duration minus the durations of its direct
        children, i.e. the time not covered by another traced call.
        """
        name_id = np.frombuffer(self.name_id, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(float)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        own = np.bincount(name_id, weights=dur - child, minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "total_ns": float(total[i]),
                         "self_ns": float(own[i]), **self.counts[name]}
        return out
