"""Percentiles with an explicit sample-support rule, and span self time."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

#: A tail percentile is reported as supported only when at least this many
#: samples lie strictly beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear interpolation between ranks
    (numpy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * (q / 100.0)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


@dataclass(frozen=True)
class Tail:
    """One percentile together with the evidence behind it."""

    q: float
    value: float
    n: int
    beyond: int

    @property
    def supported(self) -> bool:
        return self.beyond >= MIN_BEYOND

    def describe(self) -> str:
        note = "" if self.supported else f"  WARNING: fewer than {MIN_BEYOND} samples beyond"
        return f"p{self.q:g} over n={self.n} ({self.beyond} beyond){note}"


def tail_percentile(values: Sequence[float], q: float) -> Tail:
    """``percentile`` plus the count of samples strictly beyond it."""
    value = percentile(values, q)
    return Tail(q=q, value=value, n=len(values), beyond=sum(1 for v in values if v > value))


def median_or_zero(values: Sequence[float]) -> float:
    """Median of a per-layer sample; a layer that made no calls reads 0."""
    return percentile(values, 50.0) if values else 0.0


def p90_or_zero(values: Sequence[float]) -> float:
    return percentile(values, 90.0) if values else 0.0


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    return (end - start) - covered(children, start, end)
