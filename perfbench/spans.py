"""In-memory span recorder for the traced run.

A span is (name, start, end, parent, pass).  Spans are opened and closed
from the benchmark's own files around calls into sgtree, kept in a list
and written out once, when the run ends.  Self time is a span's duration
minus the time its direct children cover; the recorder is single-threaded,
so children never overlap and that is the sum of their durations.

`NullTracer` has the same interface and records nothing: `wrap` hands
back the function itself, so the untraced run calls sgtree directly.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

_now = time.perf_counter


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, pass]
        self.counts: dict[str, float] = defaultdict(float)
        self.pass_index = 0
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0.0, parent, self.pass_index])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = _now()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    # -- summaries ----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def self_by_name(self, passes: Optional[set] = None) -> dict[str, list[float]]:
        """Self time of every span (or of those in `passes`), grouped by
        name, in recording order."""
        out: dict[str, list[float]] = defaultdict(list)
        for s, own in zip(self.spans, self.self_times()):
            if passes is None or s[4] in passes:
                out[s[0]].append(own)
        return out

    def self_per_pass(self, name: str) -> list[float]:
        """Summed self time of one span name in each pass that has it."""
        totals: dict[int, float] = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            if s[0] == name:
                totals[s[4]] += own
        return [totals[k] for k in sorted(totals)]

    def write(self, path: str) -> None:
        """One JSON object per span, then one with the counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (s, own) in enumerate(zip(self.spans, self.self_times())):
                fh.write(
                    json.dumps(
                        {"id": i, "name": s[0], "start": s[1], "end": s[2],
                         "parent": s[3], "pass": s[4], "self": own}
                    )
                    + "\n"
                )
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


class NullTracer:
    enabled = False
    pass_index = 0

    def begin(self, name: str) -> int:
        return -1

    def end(self, idx: int) -> None:
        pass

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    def wrap(self, name: str, fn: Callable) -> Callable:
        return fn

    def count(self, name: str, value: float = 1.0) -> None:
        pass


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of recording one span (begin plus end) on this host."""
    tr = Tracer()
    t0 = _now()
    for _ in range(samples):
        tr.end(tr.begin("calibrate"))
    return (_now() - t0) / samples
