"""In-memory span recorder for the traced benchmark run.

A span has a name, a start, an end and the span that caused it; its self time
is its duration minus the time its child spans cover.  Spans the benchmark
opens itself (set-up steps and the per-query calls into the engine) are kept
one by one.  Calls to the library functions it wraps run up to millions of
times per pass, so those are summed per enclosing kept span instead of being
kept singly.  `write` puts everything in a JSONL file at the end of the run.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self):
        # open frames, innermost last: [name, start, seconds in child frames]
        self._stack: list[list] = []
        self._owners: list[dict] = []  # open kept spans, innermost last
        self.spans: list[dict] = []
        self.totals: dict[str, list] = {}  # name -> [calls, self seconds]
        self._patched: list[tuple] = []

    def _close(self, frame: list, end: float) -> float:
        """Charge a finished frame to its parent; returns its self time."""
        name, start, child = frame
        duration = end - start
        own = duration - child
        if self._stack:
            self._stack[-1][2] += duration
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0]
        total[0] += 1
        total[1] += own
        return own

    @contextmanager
    def span(self, name: str):
        """A kept span around a block."""
        parent = self._owners[-1]["id"] if self._owners else None
        record = {"id": len(self.spans), "parent": parent, "name": name, "children": {}}
        self.spans.append(record)
        self._owners.append(record)
        frame = [name, perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self._owners.pop()
            record["start"] = frame[1]
            record["end"] = end
            record["self_s"] = self._close(frame, end)

    def _wrap(self, name: str, fn):
        stack, owners = self._stack, self._owners

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                own = self._close(frame, end)
                if owners:
                    agg = owners[-1]["children"].setdefault(name, [0, 0.0])
                    agg[0] += 1
                    agg[1] += own

        return traced

    def patch(self, owner, attr: str, name: str):
        """Replace `owner.attr` by a traced wrapper until `unpatch`."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def unpatch(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0])[0]

    def self_seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0])[1]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null
