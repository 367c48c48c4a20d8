"""In-memory spans recorded by the benchmark around its calls into cavlight.

A span is (name, start, end, parent, run id).  Spans are kept in a list
and written once, as JSON lines, when the run ends.  A disabled tracer
records nothing, so the untraced runs pay only for an empty context
manager per call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record = {
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds per span name.

        Self time is a span's duration minus the time its child spans cover.
        """
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
        out: dict[str, dict[str, float]] = {}
        for s, covered in zip(self.spans, child_ns):
            total = s["end_ns"] - s["start_ns"]
            row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += total * 1e-9
            row["self_s"] += (total - covered) * 1e-9
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s}) + "\n")
