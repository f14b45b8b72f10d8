"""The benchmark's workloads, how one is executed, and its digest.

Importing this module does not import ``repro``: ``run.py`` reads the
workload table without paying for the model's imports, and the worker
times those imports itself.

Every workload is a closed loop of simulated users running TeaStore's
browse profile with an exponential think time of 0.125 s.  Its run
length is fixed: peak memory grows with simulated time, so a changed
length would move ``peak_rss_mb`` by itself.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing as t


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload: a settings profile, a backend, a path."""

    name: str
    #: Kernel backend pinned with ``repro.sim.kernel.use_backend``.
    backend: str
    #: ``ExperimentSettings`` fields (seed and think time aside).
    preset: str
    users: int
    warmup: float
    duration: float
    #: Run as the E13 ``slow``/``full`` chaos cell (resilient fabric,
    #: a 16x slower Persistence replica, request tracing) instead of the
    #: tuned-baseline ``run_store`` path.
    chaos: bool = False


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    # E2's knee: the machine is saturated and most CPU bursts are
    # stolen, so the worker/RPC path, the spec interpreter, the users
    # and the scheduler's steal path carry the run.
    Workload("knee", "compiled", "medium", 400, 1.0, 8.0),
    # The paper's 128-thread platform at paper defaults: below
    # saturation, so the scheduler mostly places on idle CPUs, with
    # five times the users (and pending think timeouts) of knee.
    Workload("paper", "compiled", "rome-1s", 2000, 1.5, 3.0),
    # The only workload on the resilient path and writing spans: every
    # inter-service call races a deadline, and a slow replica makes
    # about an eighth of client requests fail.
    Workload("chaos", "compiled", "medium", 400, 1.0, 4.0, chaos=True),
    # knee's shape on the pure-Python reference (kernel, scheduler and
    # memory hooks), with a shorter window.
    Workload("knee-py", "python", "medium", 400, 1.0, 3.0),
)}

#: Seed used when none is given; its digest is recorded per workload.
DEFAULT_SEED = 1
#: A seed kept out of tuning; its digest is recorded separately.
HELD_OUT_SEED = 7


def settings(workload: Workload, seed: int,
             duration: float | None = None):
    """The ``ExperimentSettings`` of one run (``duration`` overrides the
    measurement window, for smoke tests only)."""
    from repro.experiments.common import ExperimentSettings
    return ExperimentSettings(
        preset=workload.preset, seed=seed, users=workload.users,
        think_time=0.125, warmup=workload.warmup,
        duration=workload.duration if duration is None else duration)


@dataclasses.dataclass
class Outcome:
    """What one simulation leaves behind for checking and counting."""

    result: t.Any
    deployment: t.Any
    #: The chaos cell's fault injector and span collector (else None).
    injector: t.Any = None
    tracer: t.Any = None


def execute(workload: Workload, run_settings, backend: str | None = None
            ) -> Outcome:
    """Build and run one simulation on ``backend`` (default: the
    workload's own), through the public ``repro`` entry points.

    Raises ``ConfigurationError`` when the compiled backend is asked for
    but either extension is missing, instead of silently running the
    reference code.
    """
    from repro._errors import ConfigurationError
    from repro.sim import kernel

    backend = backend or workload.backend
    with kernel.use_backend(backend):
        if backend == "compiled" and not kernel.model_available():
            raise ConfigurationError(
                "compiled backend requested but repro.sim._cmodel is not "
                "built; run 'python setup.py build_ext --inplace'")
        if workload.chaos:
            from repro.chaos.campaign import execute_cell
            from repro.experiments.e13_fault_tolerance import (
                fault_schedule,
                resilience_config,
            )
            cell = execute_cell(run_settings,
                                fault_schedule("slow", run_settings),
                                resilience_config("full"), trace=True)
            return Outcome(cell.result, cell.deployment, cell.injector,
                           cell.tracer)
        from repro.experiments.common import run_store
        result, deployment, __ = run_store(run_settings)
        return Outcome(result, deployment)


def counts(outcome: Outcome) -> dict[str, int]:
    """The deterministic work counters that enter the digest."""
    deployment = outcome.deployment
    return {
        # The kernel's insertion counter (one per scheduled or
        # triggered entry), read without side effects.
        "sim.events": deployment.sim._kernel.counter,
        "cpu.bursts": deployment.scheduler.bursts_dispatched,
        "cpu.steals": deployment.scheduler.bursts_stolen,
        # Fabric messages: one per request hop, one per response hop.
        "services.rpcs": deployment.rpc.messages_sent,
        "tracing.spans": (len(outcome.tracer)
                          if outcome.tracer is not None else 0),
        "workload.faults": (len(outcome.injector.events)
                            if outcome.injector is not None else 0),
    }


def outputs(outcome: Outcome) -> dict[str, t.Any]:
    """Every simulated output of the run, JSON-native."""
    return {
        "result": dataclasses.asdict(outcome.result),
        "resilience": dataclasses.asdict(
            outcome.deployment.resilience_stats),
        "counts": counts(outcome),
    }


def digest(simulated: t.Mapping[str, t.Any]) -> str:
    """SHA-256 over the canonical JSON of :func:`outputs` (floats are
    written with ``repr``, so the digest is bit-exact)."""
    text = json.dumps(simulated, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def invariants(workload: Workload, simulated: t.Mapping[str, t.Any]
               ) -> list[str]:
    """Seed-independent checks on one run's outputs; returns failures."""
    result = simulated["result"]
    work = simulated["counts"]
    attempts = simulated["resilience"]["attempts"]
    problems = []
    if result["completed"] <= 0:
        problems.append("no request completed in the window")
    if not 0.0 < result["machine_utilization"] <= 1.0 + 1e-9:
        problems.append(f"machine utilization "
                        f"{result['machine_utilization']} outside (0, 1]")
    if workload.chaos:
        if work["tracing.spans"] <= 0 or attempts <= 0:
            problems.append("chaos cell recorded no spans or no "
                            "resilient attempts")
    elif result["errors"] or attempts or work["tracing.spans"]:
        problems.append("plain-fabric run saw errors, resilient attempts "
                        "or spans")
    return problems
