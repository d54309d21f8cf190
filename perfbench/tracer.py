"""Outside-in span tracer for the benchmark.

The tracer replaces public names in condfix modules with wrappers that
record one span per call: name, start, end, parent span and op id, plus a
few counters read from the call's arguments and result. Spans are kept in
memory and written out when the run ends. Nothing inside ``src/`` changes;
the wrappers sit on the module attributes the callers look up at call
time, so a layer is seen exactly where another module (or the benchmark)
calls into it.

Spans are recorded only while an op is open, so the benchmark's own
correctness checks, which call the same functions, do not count as work.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into Tracer.spans
    op: Optional[int]
    counts: Dict[str, float] = field(default_factory=dict)


# A counter hook receives the closed span, the call's positional and keyword
# arguments and its result; it may add counts or rename the span.
CountHook = Callable[[Span, tuple, dict, object], None]


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self._saved: List[Tuple[object, str, object]] = []

    # -- ops -----------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._stack = [self._open("op")]

    def end_op(self) -> None:
        self._close(self._stack.pop())
        self._op = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op))
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()

    # -- patching ------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, count: Optional[CountHook] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = self._open(name)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self._close(index)
            if count is not None:
                count(self.spans[index], args, kwargs, result)
            return result

        return traced

    def patch(self, module, attr: str, name: str, count: Optional[CountHook] = None) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, count))

    def unpatch(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - covered(span.start, span.end, children[i])
        for i, span in enumerate(spans)
    ]


def layer_totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total and self seconds, and summed counters."""
    totals: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, self_s in zip(spans, self_times(spans)):
        entry = totals[span.name]
        entry["calls"] += 1
        entry["total_s"] += span.end - span.start
        entry["self_s"] += self_s
        for key, value in span.counts.items():
            entry[key] += value
    return totals
