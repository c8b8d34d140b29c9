"""Latency percentiles and failure bookkeeping for closed-loop runs."""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass, field

TAIL_BEYOND = 10


def tail_rank(n: int, beyond: int = TAIL_BEYOND) -> int | None:
    """Index into n sorted samples of the highest percentile with ``beyond``
    samples strictly above it, or None when there are too few samples."""
    if n < beyond + 1:
        return None
    return n - beyond - 1


def latency_summary(samples_ms: list[float]) -> dict:
    """Median and tail latency with the percentile and sample counts used."""
    ordered = sorted(samples_ms)
    n = len(ordered)
    out = {"n": n, "p50_ms": statistics.median(ordered) if n else None,
           "tail_ms": None, "tail_pct": None, "tail_beyond": None}
    k = tail_rank(n)
    if k is not None:
        out.update(tail_ms=ordered[k], tail_pct=100.0 * (k + 1) / n,
                   tail_beyond=n - k - 1)
    return out


@dataclass
class Tally:
    """Per-op outcomes.  Failed ops are counted by cause and kept out of the
    latency samples and the work total; their time still counts as busy."""

    latencies_ms: list[float] = field(default_factory=list)
    work: float = 0.0
    busy_s: float = 0.0
    attempted: int = 0
    causes: Counter = field(default_factory=Counter)

    def record(self, seconds: float, cause: str | None, work: float) -> None:
        self.attempted += 1
        self.busy_s += seconds
        if cause is not None:
            self.causes[cause] += 1
            return
        self.latencies_ms.append(1e3 * seconds)
        self.work += work

    @property
    def failed(self) -> int:
        return sum(self.causes.values())

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def work_per_s(self) -> float:
        return self.work / self.busy_s if self.busy_s > 0.0 else 0.0
