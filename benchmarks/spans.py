"""Spans around calls into paritrace's public functions.

A span records its name, start, end (``perf_counter_ns``), the index of its
parent span (-1 at top level) and the op id.  Spans stay in memory until
the run ends.  A span's *self time* is its duration minus the durations of
its direct children; calls in one process never overlap, so the children
of a span cover disjoint parts of it.
"""

from __future__ import annotations

import json
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.op = None

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.op)

    def self_times(self) -> list[int]:
        out = [end - start for (_, start, end, _, _) in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def totals(self, start: int = 0) -> dict[str, tuple[int, int]]:
        """name -> (calls, summed self time in ns) over ``spans[start:]``."""
        acc: dict[str, list[int]] = {}
        for span, self_ns in zip(self.spans[start:], self.self_times()[start:]):
            entry = acc.setdefault(span[0], [0, 0])
            entry[0] += 1
            entry[1] += self_ns
        return {k: (v[0], v[1]) for k, v in acc.items()}

    def write(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for (name, start, end, parent, op), self_ns in zip(self.spans, selfs):
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end, "parent": parent,
                         "op": op, "self_ns": self_ns}
                    )
                    + "\n"
                )

