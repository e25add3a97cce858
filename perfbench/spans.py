"""In-memory spans around the benchmark's calls into each bosecycles layer.

A span is (name, start, end, parent, op id).  Spans are kept in a list
while the workload runs and written out once at the end; a layer's self
time is its span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Records spans when enabled; ``span`` is a cheap no-op otherwise."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, float] = defaultdict(float)  # summed at the span boundaries
        self.peaks: dict[str, float] = defaultdict(float)  # largest value seen

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, key: str, value: float) -> None:
        self.counts[key] += value

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks[key], value)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, summed self time in seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name][0] += 1
            out[name][1] += (end - start) - child_time[i]
        return {name: (calls, busy) for name, (calls, busy) in out.items()}

    def write(self, path) -> None:
        with open(path, "w") as fp:
            for name, start, end, parent, op_id in self.spans:
                fp.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")
