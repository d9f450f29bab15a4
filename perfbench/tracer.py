"""In-memory spans around the benchmark's calls into each layer.

A span is (id, name, start, end, parent). Spans stay in memory and are
written once, at exit, with a per-name table of count, total time and
self time (duration minus the part covered by child spans). A disabled
tracer hands out one shared no-op context, so untraced runs pay a method
call per layer call and nothing else.
"""

from __future__ import annotations

import contextlib
import json
import time

SPAN_PROBES = 20_000  # spans recorded to measure the cost of one


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [id, name, start, end, parent]
        self._stack: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else contextlib.nullcontext()

    @contextlib.contextmanager
    def _span(self, name: str):
        sid = len(self.spans)
        rec = [sid, name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec[3] = time.perf_counter()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (e.g. in a child process),
        as a child of the current span."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else None
            self.spans.append([len(self.spans), name, start, end, parent])

    def table(self) -> dict[str, dict]:
        """name -> {count, total_s, self_s}."""
        child_s = [0.0] * len(self.spans)
        for _, _, s, e, parent in self.spans:
            if parent is not None and e is not None:
                child_s[parent] += e - s
        out: dict[str, dict] = {}
        for sid, name, s, e, _ in self.spans:
            if e is None:
                continue
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += e - s
            row["self_s"] += max(0.0, e - s - child_s[sid])
        return out

    def span_cost_s(self) -> float:
        """Measured cost of recording one span in this process."""
        probe = Tracer(True)
        t0 = time.perf_counter()
        for _ in range(SPAN_PROBES):
            with probe.span("probe"):
                pass
        return (time.perf_counter() - t0) / SPAN_PROBES

    def write(self, path: str, meta: dict) -> None:
        names = ["id", "name", "start_s", "end_s", "parent"]
        with open(path, "w") as f:
            json.dump(
                {
                    "meta": meta,
                    "layers": self.table(),
                    "spans": [dict(zip(names, s)) for s in self.spans],
                },
                f,
            )
