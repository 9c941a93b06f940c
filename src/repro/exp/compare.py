"""Statistical comparison of scheduler runs.

The paper reports 30-run means; a reproduction should also say whether a
difference is *significant*.  This module wraps Welch's unequal-variance
t-test (via scipy, the optional ``stats`` extra) for pairs of run-time
samples and renders a compact verdict per benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ExperimentError
from repro.exp.runner import CellResult

__all__ = ["Comparison", "compare_samples", "compare_cells", "render_comparisons"]

DEFAULT_ALPHA = 0.05


@dataclass(frozen=True)
class Comparison:
    """Outcome of comparing scheduler B against baseline A."""

    label: str
    mean_a: float
    mean_b: float
    speedup: float  # mean_a / mean_b, > 1 means B faster
    t_statistic: float
    p_value: float
    significant: bool

    @property
    def verdict(self) -> str:
        if not self.significant:
            return "no significant difference"
        return "B faster" if self.speedup > 1.0 else "B slower"


def compare_samples(
    a: list[float] | np.ndarray,
    b: list[float] | np.ndarray,
    *,
    label: str = "",
    alpha: float = DEFAULT_ALPHA,
) -> Comparison:
    """Welch's t-test on two run-time samples (A = baseline, B = candidate)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ExperimentError("need at least two runs per side to compare")
    if not (0.0 < alpha < 1.0):
        raise ExperimentError(f"alpha must lie in (0, 1), got {alpha}")
    if np.allclose(a, a[0]) and np.allclose(b, b[0]):
        # degenerate zero-variance samples (deterministic runs): decide by
        # the means directly
        equal = np.isclose(a[0], b[0])
        return Comparison(
            label=label,
            mean_a=float(a.mean()),
            mean_b=float(b.mean()),
            speedup=float(a.mean() / b.mean()),
            t_statistic=0.0 if equal else np.inf,
            p_value=1.0 if equal else 0.0,
            significant=not equal,
        )
    # imported here, not at module top: scipy.stats costs over a second
    # and most of the import-time memory of every CLI and service start,
    # and only this offline test needs it
    from scipy import stats

    t, p = stats.ttest_ind(a, b, equal_var=False)
    return Comparison(
        label=label,
        mean_a=float(a.mean()),
        mean_b=float(b.mean()),
        speedup=float(a.mean() / b.mean()),
        t_statistic=float(t),
        p_value=float(p),
        significant=bool(p < alpha),
    )


def compare_cells(
    baseline: CellResult, candidate: CellResult, *, alpha: float = DEFAULT_ALPHA
) -> Comparison:
    """Compare two (benchmark, scheduler) cells of an experiment campaign."""
    if baseline.benchmark != candidate.benchmark:
        raise ExperimentError(
            f"cells compare different benchmarks: {baseline.benchmark} vs "
            f"{candidate.benchmark}"
        )
    return compare_samples(
        baseline.times,
        candidate.times,
        label=f"{baseline.benchmark}: {candidate.scheduler} vs {baseline.scheduler}",
        alpha=alpha,
    )


def render_comparisons(title: str, comparisons: list[Comparison]) -> str:
    """Text table of comparison outcomes."""
    lines = [title, "-" * 78]
    lines.append(
        f"{'comparison':<34} {'speedup':>8} {'p-value':>9} {'verdict':>24}"
    )
    for c in comparisons:
        lines.append(
            f"{c.label:<34} {c.speedup:>8.3f} {c.p_value:>9.2g} {c.verdict:>24}"
        )
    return "\n".join(lines)
