"""Statistical summaries for benchmark results.

Follows the methodology literature for performance comparisons: report
confidence intervals across repeated runs, summarize *speedups* with the
harmonic mean (and provide the geometric mean for reference), never a bare
average of ratios.
"""

from __future__ import annotations

import dataclasses
import math
import typing as t

import numpy as np

from repro._errors import AnalysisError


def harmonic_mean(values: t.Sequence[float]) -> float:
    """Harmonic mean — the right summary for rates and speedup ratios."""
    if not values:
        raise AnalysisError("harmonic_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise AnalysisError("harmonic_mean requires positive values")
    return len(values) / sum(1.0 / v for v in values)


def geometric_mean(values: t.Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values:
        raise AnalysisError("geometric_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise AnalysisError("geometric_mean requires positive values")
    return float(math.exp(np.mean(np.log(values))))


@dataclasses.dataclass(frozen=True)
class Summary:
    """Mean with a two-sided confidence interval."""

    mean: float
    ci_low: float
    ci_high: float
    n: int

    @property
    def ci_half_width(self) -> float:
        """Half-width of the interval around the mean."""
        return (self.ci_high - self.ci_low) / 2.0

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.ci_half_width:.2g} (n={self.n})"


def confidence_interval(values: t.Sequence[float],
                        confidence: float = 0.95) -> Summary:
    """Student-t confidence interval for the mean of repeated runs."""
    from scipy import stats as scipy_stats  # deferred: SciPy is heavy

    if not values:
        raise AnalysisError("confidence_interval of empty sequence")
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1): {confidence}")
    data = np.asarray(values, dtype=float)
    mean = float(data.mean())
    if len(data) == 1:
        return Summary(mean, mean, mean, 1)
    sem = float(scipy_stats.sem(data))
    if sem == 0.0:
        return Summary(mean, mean, mean, len(data))
    half = float(sem * scipy_stats.t.ppf((1.0 + confidence) / 2.0,
                                         len(data) - 1))
    return Summary(mean, mean - half, mean + half, len(data))


def summarize(values: t.Sequence[float], confidence: float = 0.95) -> Summary:
    """Alias of :func:`confidence_interval` reading better at call sites."""
    return confidence_interval(values, confidence)


def speedup_summary(baseline: t.Sequence[float],
                    candidate: t.Sequence[float]) -> float:
    """Harmonic-mean speedup of paired (baseline, candidate) throughputs."""
    if len(baseline) != len(candidate):
        raise AnalysisError("speedup_summary requires paired sequences")
    ratios = [c / b for b, c in zip(baseline, candidate)]
    return harmonic_mean(ratios)
