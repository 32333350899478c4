"""In-memory span recorder for the traced benchmark run.

A span is one call the benchmark makes into a layer's public function, or
one piece of the benchmark's own work (`harness.op`, `harness.check`, ...):
id, name, layer, start, end (perf_counter seconds), parent span id and op id.
Spans nest strictly, since the run is single-threaded, so a span's self time
is its duration minus the durations of its direct children.  Nothing is
written until `write` is called at the end of the run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

ID, NAME, LAYER, START, END, PARENT, OP = range(7)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.op_tags: dict[int, str] = {}
        self._stack: list[int] = []
        self._op = 0

    def open(self, layer: str, name: str, *, new_op: bool = False, tag: str | None = None) -> list:
        if new_op:
            self._op += 1
            if tag is not None:
                self.op_tags[self._op] = tag
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), f"{layer}.{name}", layer, 0.0, 0.0, parent, self._op]
        self.spans.append(span)
        self._stack.append(span[ID])
        span[START] = perf_counter()
        return span

    def close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    def wrap(self, layer: str, name: str, fn):
        def traced(*args, **kwargs):
            span = self.open(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        traced.__name__ = name
        return traced

    def self_times(self) -> list[float]:
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def layer_totals(self) -> tuple[dict[str, int], dict[str, float]]:
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            calls[s[LAYER]] += 1
            self_s[s[LAYER]] += own
        return calls, self_s

    def uncovered(self, wall: float) -> float:
        """Part of the traced wall time that no span covers."""
        return wall - sum(s[END] - s[START] for s in self.spans if s[PARENT] is None)

    def write(self, path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "fields": ["id", "name", "layer", "start", "end", "parent", "op"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
