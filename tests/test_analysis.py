"""Unit + property tests for USL/Amdahl fits and scaling curves."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._errors import AnalysisError, PlacementError
from repro.analysis import fit_amdahl, fit_usl
from repro.placement import ScalingCurve, weights_from_utilization


def usl_curve(lambda_, sigma, kappa, counts):
    return [lambda_ * n / (1 + sigma * (n - 1) + kappa * n * (n - 1))
            for n in counts]


def test_usl_recovers_known_parameters():
    counts = [1, 2, 4, 8, 16, 32, 64]
    throughputs = usl_curve(100.0, 0.05, 0.001, counts)
    fit = fit_usl(counts, throughputs)
    assert fit.lambda_ == pytest.approx(100.0, rel=0.02)
    assert fit.sigma == pytest.approx(0.05, abs=0.01)
    assert fit.kappa == pytest.approx(0.001, abs=0.0005)
    assert fit.r_squared > 0.999


def test_usl_fit_with_noise_still_close():
    rng = np.random.default_rng(0)
    counts = [1, 2, 4, 8, 16, 32]
    clean = usl_curve(50.0, 0.1, 0.002, counts)
    noisy = [x * (1 + rng.normal(0, 0.02)) for x in clean]
    fit = fit_usl(counts, noisy)
    assert fit.r_squared > 0.98
    assert fit.sigma == pytest.approx(0.1, abs=0.05)


def test_usl_linear_scaling_has_tiny_contention():
    counts = [1, 2, 4, 8]
    fit = fit_usl(counts, [10.0 * n for n in counts])
    assert fit.sigma < 0.01
    assert fit.kappa < 1e-4
    assert fit.peak_concurrency() > 100 or math.isinf(fit.peak_concurrency())


def test_usl_peak_concurrency_with_coherency():
    fit = fit_usl([1, 2, 4, 8, 16, 32, 64],
                  usl_curve(10.0, 0.05, 0.01, [1, 2, 4, 8, 16, 32, 64]))
    peak = fit.peak_concurrency()
    assert peak == pytest.approx(math.sqrt(0.95 / 0.01), rel=0.2)


def test_usl_predict_validation():
    fit = fit_usl([1, 2, 4], [10, 19, 35])
    with pytest.raises(AnalysisError):
        fit.predict(0)
    assert "USL" in str(fit)


def test_usl_input_validation():
    with pytest.raises(AnalysisError):
        fit_usl([1, 2], [10, 20])  # too few points
    with pytest.raises(AnalysisError):
        fit_usl([1, 2, 3], [10, 20])  # length mismatch
    with pytest.raises(AnalysisError):
        fit_usl([1, 2, 2], [10, 20, 20])  # duplicates
    with pytest.raises(AnalysisError):
        fit_usl([1, 2, 4], [10, -20, 30])  # non-positive


def test_amdahl_recovers_parallel_fraction():
    counts = [1, 2, 4, 8, 16]
    p = 0.9
    speedups = [1.0 / ((1 - p) + p / n) for n in counts]
    fit = fit_amdahl(counts, speedups)
    assert fit.parallel_fraction == pytest.approx(0.9, abs=0.01)
    assert fit.r_squared > 0.999
    assert fit.predict_speedup(16) == pytest.approx(speedups[-1], rel=0.01)
    assert "Amdahl" in str(fit)


def test_amdahl_predict_validation():
    fit = fit_amdahl([1, 2, 4], [1.0, 1.8, 3.0])
    with pytest.raises(AnalysisError):
        fit.predict_speedup(-1)


@settings(max_examples=30, deadline=None)
@given(lambda_=st.floats(min_value=1.0, max_value=1000.0),
       sigma=st.floats(min_value=0.0, max_value=0.3),
       kappa=st.floats(min_value=0.0, max_value=0.01))
def test_property_usl_fit_reproduces_curve(lambda_, sigma, kappa):
    counts = [1, 2, 4, 8, 16, 32]
    throughputs = usl_curve(lambda_, sigma, kappa, counts)
    fit = fit_usl(counts, throughputs)
    for n, expected in zip(counts, throughputs):
        assert fit.predict(n) == pytest.approx(expected, rel=0.05)


# ---------------------------------------------------------------------------
# ScalingCurve / weights
# ---------------------------------------------------------------------------

def test_scaling_curve_speedups_and_efficiency():
    curve = ScalingCurve("webui", (1, 2, 4), (100.0, 190.0, 340.0))
    assert curve.speedups() == pytest.approx((1.0, 1.9, 3.4))
    assert curve.efficiency() == pytest.approx((1.0, 0.95, 0.85))
    assert "webui" in str(curve)


def test_scaling_curve_saturation_point():
    curve = ScalingCurve("db", (1, 2, 4, 8), (100.0, 120.0, 122.0, 123.0))
    assert curve.saturation_point(threshold=0.05) == 4
    linear = ScalingCurve("webui", (1, 2, 4), (100.0, 200.0, 400.0))
    assert linear.saturation_point() == 4


def test_scaling_curve_validation():
    with pytest.raises(PlacementError):
        ScalingCurve("x", (1, 2), (10.0,))
    with pytest.raises(PlacementError):
        ScalingCurve("x", (), ())
    with pytest.raises(PlacementError):
        ScalingCurve("x", (2, 1), (10.0, 20.0))
    with pytest.raises(PlacementError):
        ScalingCurve("x", (1, 2), (10.0, -1.0))


def test_weights_from_utilization_normalizes():
    weights = weights_from_utilization({"a": 3.0, "b": 1.0})
    assert weights["a"] == pytest.approx(0.75)
    assert weights["b"] == pytest.approx(0.25)


def test_weights_floor_protects_idle_services():
    weights = weights_from_utilization({"a": 100.0, "b": 0.001})
    assert weights["b"] == pytest.approx(0.02)


def test_weights_validation():
    with pytest.raises(PlacementError):
        weights_from_utilization({})
    with pytest.raises(PlacementError):
        weights_from_utilization({"a": -1.0})
    with pytest.raises(PlacementError):
        weights_from_utilization({"a": 0.0})


def test_simulation_imports_do_not_load_scipy():
    """SciPy is needed only by the analysis fits and confidence
    intervals, so the simulation's import path must not pull it in."""
    code = ("import sys, repro, repro.experiments.common, "
            "repro.chaos.campaign; "
            "print('scipy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
