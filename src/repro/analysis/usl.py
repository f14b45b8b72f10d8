"""Universal Scalability Law and Amdahl fits.

The USL (Gunther) models throughput versus concurrency ``n`` as::

    X(n) = lambda * n / (1 + sigma * (n - 1) + kappa * n * (n - 1))

``sigma`` captures contention (serialization, queueing on a shared
resource — the database lock, here) and ``kappa`` coherency costs
(cross-agent communication).  Fitting measured scaling curves with the
USL is the standard way to summarize "how well does this service scale",
which is exactly the per-service question the paper's sizing step answers.
"""

from __future__ import annotations

import dataclasses
import math
import typing as t
import warnings

import numpy as np

from repro._errors import AnalysisError


@dataclasses.dataclass(frozen=True)
class UslFit:
    """Fitted USL parameters."""

    lambda_: float  # throughput of one unit (n=1 slope)
    sigma: float    # contention coefficient
    kappa: float    # coherency coefficient
    r_squared: float

    def predict(self, n: float) -> float:
        """Predicted throughput at concurrency ``n``."""
        if n <= 0:
            raise AnalysisError(f"concurrency must be positive: {n}")
        return (self.lambda_ * n
                / (1.0 + self.sigma * (n - 1.0)
                   + self.kappa * n * (n - 1.0)))

    def peak_concurrency(self) -> float:
        """Concurrency at which throughput peaks (inf if it never does)."""
        if self.kappa <= 0:
            return math.inf
        return math.sqrt((1.0 - self.sigma) / self.kappa)

    def __str__(self) -> str:
        return (f"USL(λ={self.lambda_:.4g}, σ={self.sigma:.4g}, "
                f"κ={self.kappa:.4g}, R²={self.r_squared:.4f})")


@dataclasses.dataclass(frozen=True)
class AmdahlFit:
    """Fitted Amdahl parallel fraction."""

    parallel_fraction: float
    r_squared: float

    def predict_speedup(self, n: float) -> float:
        """Predicted speedup at ``n`` units."""
        if n <= 0:
            raise AnalysisError(f"n must be positive: {n}")
        p = self.parallel_fraction
        return 1.0 / ((1.0 - p) + p / n)

    def __str__(self) -> str:
        return (f"Amdahl(p={self.parallel_fraction:.4f}, "
                f"R²={self.r_squared:.4f})")


def _r_squared(observed: np.ndarray, predicted: np.ndarray) -> float:
    residual = float(np.sum((observed - predicted) ** 2))
    total = float(np.sum((observed - observed.mean()) ** 2))
    if total == 0.0:
        return 1.0 if residual == 0.0 else 0.0
    return 1.0 - residual / total


def _validate_curve(counts: t.Sequence[float],
                    throughputs: t.Sequence[float],
                    minimum_points: int) -> tuple[np.ndarray, np.ndarray]:
    if len(counts) != len(throughputs):
        raise AnalysisError("counts and throughputs differ in length")
    if len(counts) < minimum_points:
        raise AnalysisError(
            f"need at least {minimum_points} points, got {len(counts)}")
    n = np.asarray(counts, dtype=float)
    x = np.asarray(throughputs, dtype=float)
    if np.any(n <= 0) or np.any(x <= 0):
        raise AnalysisError("counts and throughputs must be positive")
    if len(set(n.tolist())) != len(n):
        raise AnalysisError("duplicate concurrency points")
    return n, x


def fit_usl(counts: t.Sequence[float],
            throughputs: t.Sequence[float]) -> UslFit:
    """Least-squares USL fit with non-negativity bounds."""
    from scipy import optimize  # deferred: only the fits need SciPy

    n, x = _validate_curve(counts, throughputs, minimum_points=3)

    def usl(n_values, lambda_, sigma, kappa):
        return (lambda_ * n_values
                / (1.0 + sigma * (n_values - 1.0)
                   + kappa * n_values * (n_values - 1.0)))

    lambda_guess = float(x[0] / n[0])
    try:
        with warnings.catch_warnings():
            # Perfectly linear curves make the covariance singular; the
            # parameter estimates themselves are still exactly right.
            warnings.simplefilter("ignore", optimize.OptimizeWarning)
            params, __ = optimize.curve_fit(
                usl, n, x,
                p0=[lambda_guess, 0.05, 0.001],
                bounds=([1e-12, 0.0, 0.0], [np.inf, 1.0, 1.0]),
                maxfev=20_000)
    except RuntimeError as exc:
        raise AnalysisError(f"USL fit did not converge: {exc}") from exc
    lambda_, sigma, kappa = (float(v) for v in params)
    fit = UslFit(lambda_, sigma, kappa,
                 _r_squared(x, usl(n, lambda_, sigma, kappa)))
    return fit


def fit_amdahl(counts: t.Sequence[float],
               speedups: t.Sequence[float]) -> AmdahlFit:
    """Least-squares Amdahl fit of a speedup curve (speedup(1) ≈ 1)."""
    from scipy import optimize  # deferred: only the fits need SciPy

    n, s = _validate_curve(counts, speedups, minimum_points=2)

    def amdahl(n_values, p):
        return 1.0 / ((1.0 - p) + p / n_values)

    try:
        params, __ = optimize.curve_fit(
            amdahl, n, s, p0=[0.9], bounds=([0.0], [1.0]), maxfev=10_000)
    except RuntimeError as exc:
        raise AnalysisError(f"Amdahl fit did not converge: {exc}") from exc
    p = float(params[0])
    return AmdahlFit(p, _r_squared(s, amdahl(n, p)))
