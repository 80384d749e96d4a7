"""In-memory span tracing by wrapping library functions where callers look
them up.

A wrapped call opens a span (name, start, end, parent span, request id),
runs the original function, closes the span, and then adds the counters a
per-span callback derives from the arguments and the result. Counters are
computed after the span has closed, so their cost lands in the caller's
self time or the untraced remainder, never in the layer being measured.

Self time of a span is its duration minus the durations of its direct child
spans. That holds only if every child lies inside its parent and siblings do
not overlap; `accounting_problems` checks both, and checks that the spans
cover the clock-measured wall time of the traced operations.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan  # nan until the span closes
    parent: Optional[int] = None
    request: Optional[str] = None
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.request: Optional[str] = None
        self._open: List[int] = []
        self._patched: List[tuple] = []

    # -- recording -------------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), parent=parent, request=self.request))
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        if not self._open or self._open[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")
        self._open.pop()
        self.spans[idx].end = self.clock()

    def wrap(self, owner, attr: str, name: str, count: Optional[Callable] = None) -> None:
        """Replace `owner.attr` (a module function or a class method) with a
        traced version until `restore()`. `count(args, kwargs, result)`
        returns the counters to add to the span."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                out = original(*args, **kwargs)
            finally:
                tracer.end(idx)
            if count is not None:
                tracer.spans[idx].counters.update(count(args, kwargs, out))
            return out

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- analysis --------------------------------------------------------------------

    def self_times(self) -> List[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def accounting_problems(self, wall: float, root: str, rel_tol: float = 1e-3) -> List[str]:
        """Why the spans fail to account for `wall`, the clock-measured time of
        operations that each ran inside one span named `root`; empty if they
        do. The layer spans' self times plus the remainder (the `root` spans'
        own self time) must match `wall`; every span must be closed, lie
        inside its parent, not overlap its siblings and have a non-negative
        self time; and every top-level span must be a `root` span."""
        bad = []
        own = self.self_times()
        sibling_end: Dict[Optional[int], float] = {}  # spans are kept in start order
        for i, s in enumerate(self.spans):
            where = f"span {i} {s.name!r}"
            if s.start < sibling_end.get(s.parent, -math.inf):
                bad.append(f"{where} overlaps an earlier sibling")
            sibling_end[s.parent] = s.end
            if not s.end >= s.start:
                bad.append(f"{where} was never closed")
            elif s.parent is None and s.name != root:
                bad.append(f"{where} lies outside every {root!r} span")
            elif s.parent is not None:
                p = self.spans[s.parent]
                if s.start < p.start or s.end > p.end:
                    bad.append(f"{where} is not inside its parent {p.name!r}")
            if own[i] < 0:
                bad.append(f"{where} has negative self time {own[i]:.6g} s")
        agg = self.aggregate()
        remainder = agg.get(root, {}).get("self_s", 0.0)
        layer_self = sum(a["self_s"] for name, a in agg.items() if name != root)
        if not abs(layer_self + remainder - wall) <= rel_tol * wall:
            bad.append(
                f"layer self times {layer_self:.6f} s + remainder {remainder:.6f} s "
                f"!= traced wall {wall:.6f} s"
            )
        return bad

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, busy_s (summed durations), self_s, and every
        counter summed over the calls."""
        out: Dict[str, Dict[str, float]] = {}
        for s, own in zip(self.spans, self.self_times()):
            agg = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["busy_s"] += s.duration
            agg["self_s"] += own
            for k, v in s.counters.items():
                agg[k] = agg.get(k, 0) + v
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "request": s.request,
                            "counters": s.counters,
                        }
                    )
                    + "\n"
                )
