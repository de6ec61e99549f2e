"""In-memory span recorder for the traced benchmark run.

A span is (name, tag, start, end, parent, op_id): ``name`` is the public
function the benchmark called (``module.function``) or a ``bench.*``
group around several calls, ``parent`` indexes the enclosing span (-1 at
top level) and ``op_id`` is the operation the span belongs to (-1 during
set-up). Spans stay in memory until ``write`` at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

NAME, TAG, START, END, PARENT, OP = range(6)


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.op_id = -1
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, tag: str = ""):
        if not self.enabled:
            yield
            return
        rec = [name, tag, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
               self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str, tag: str | None = None) -> list[float]:
        """Wall seconds of every span with this name (and tag, if given)."""
        return [s[END] - s[START] for s in self.spans
                if s[NAME] == name and (tag is None or s[TAG] == tag)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def self_ms_by_module(self) -> dict[str, float]:
        """Total self time per module (the part of a span name before the dot), ms."""
        totals: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            totals[s[NAME].split(".", 1)[0]] += own * 1e3
        return dict(sorted(totals.items()))

    def write(self, path: Path, header: dict) -> None:
        own = self.self_times()
        doc = {
            **header,
            "self_ms_by_module": self.self_ms_by_module(),
            "spans": [
                {"name": s[NAME], "tag": s[TAG], "start": s[START], "end": s[END],
                 "parent": s[PARENT], "op_id": s[OP], "self_s": o}
                for s, o in zip(self.spans, own)
            ],
        }
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
