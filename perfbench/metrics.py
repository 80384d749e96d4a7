"""Summary statistics for the benchmark: nearest-rank percentiles that refuse
a tail too thin to trust, failure tallies, and the machine-readable result
line."""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL = 10


def rank(n: int, q: int) -> int:
    """1-based nearest rank of the q-th percentile (q an integer in 1..100)."""
    if n < 1:
        raise ValueError("percentile of an empty sample")
    if not 1 <= q <= 100:
        raise ValueError(f"percentile must be in 1..100, got {q}")
    return max(1, (q * n + 99) // 100)


def samples_beyond(n: int, q: int) -> int:
    """How many of n samples lie strictly above the q-th percentile's rank."""
    return n - rank(n, q)


def min_samples(q: int, min_tail: int = MIN_TAIL) -> int:
    """Smallest sample count whose q-th percentile has `min_tail` samples beyond."""
    if not 1 <= q < 100:
        raise ValueError(f"no sample count leaves samples beyond p{q}")
    n = 1
    while samples_beyond(n, q) < min_tail:
        n += 1
    return n


def percentile(samples: Sequence[float], q: int, min_tail: int = MIN_TAIL) -> float:
    """Nearest-rank percentile; raises when fewer than `min_tail` samples
    lie beyond it, since such a tail is a handful of outliers."""
    n = len(samples)
    beyond = samples_beyond(n, q)
    if beyond < min_tail:
        raise ValueError(
            f"p{q} of {n} samples has {beyond} beyond it; need {min_tail} "
            f"(at least {min_samples(q, min_tail)} samples)"
        )
    return sorted(samples)[rank(n, q) - 1]


def spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR as a share of the median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


@dataclass
class Tally:
    """Attempted and failed operations. An operation fails when any
    correctness check on its output does not hold. An operation that raises
    ends the run, which then prints no result line."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def record(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(what)
        return ok

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


@dataclass
class Metric:
    value: float
    unit: str
    samples: int = 1


def result_line(correct: bool, tally: Tally, metrics: Dict[str, Metric]) -> str:
    """The last stdout line: one JSON object the comparison tooling parses."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(tally.attempted),
            "failed": int(tally.failed),
            "metrics": {
                name: {"value": float(m.value), "unit": m.unit} for name, m in metrics.items()
            },
        }
    )


def table(metrics: Dict[str, Metric]) -> str:
    """Human-readable metric table: name, value, unit and sample count."""
    width = max(len(n) for n in metrics)
    rows = [f"{'metric'.ljust(width)}  {'value':>14}  {'unit':<9} samples"]
    for name, m in metrics.items():
        rows.append(f"{name.ljust(width)}  {m.value:14.6g}  {m.unit:<9} {m.samples}")
    return "\n".join(rows)
