"""E12 — Co-location with a batch "noisy neighbor" (extension).

The paper's last observation — microservices look nothing like the
workloads CPUs are designed against — has an operational corollary: the
two classes get co-located in practice.  This experiment runs TeaStore
next to a continuously running memory-streaming batch kernel, three ways:

* **store alone** — no neighbor (reference);
* **shared, both unpinned** — the neighbor competes everywhere: it steals
  cycles and drags its streaming working set across every L3 slice;
* **partitioned** — the store owns 12 of 16 CCXs (CCX-aware placement),
  the neighbor is confined to the remaining 4.

Topology partitioning contains the interference at a small, *predictable*
capacity cost — the same discipline that produced the headline gain.
"""

from __future__ import annotations

import typing as t

from repro._errors import ConfigurationError
from repro.apps.runtime import deploy_application
from repro.experiments.common import (
    ExperimentResult,
    ExperimentSettings,
    Row,
    default_counts,
)
from repro.orchestrator import plan
from repro.placement.policies import ccx_aware, unpinned
from repro.services.deployment import Deployment
from repro.spec.kernels import batch_kernel_profiles
from repro.topology.cpuset import CpuSet
from repro.workload.batch import BatchKernelWorkload
from repro.workload.cohorts import closed_workload
from repro.workload.runner import run_experiment

TITLE = "Co-location with a streaming batch neighbor"

#: Configurations in table order: (display name, neighbor mode).
CONFIGS = (("store alone", "none"),
           ("shared, both unpinned", "shared"),
           ("partitioned (CCX-aware)", "partitioned"))


def run(settings: ExperimentSettings | None = None,
        neighbor_concurrency: int | None = None) -> ExperimentResult:
    """Three rows: alone, shared-unpinned, partitioned."""
    settings = settings or ExperimentSettings()
    points = sweep_points(settings, neighbor_concurrency)
    return assemble_sweep(settings,
                          [run_sweep_point(point) for point in points])


def sweep_points(settings: ExperimentSettings,
                 neighbor_concurrency: int | None = None
                 ) -> list[plan.SweepPoint]:
    """One independent point per co-location configuration."""
    machine = settings.machine()
    n_ccxs = len(machine.ccxs)
    if n_ccxs < 8:
        raise ConfigurationError(
            f"E12 needs >= 8 CCXs to partition (got {n_ccxs})")
    if neighbor_concurrency is None:
        # Enough batch threads to keep its partition (or more) busy.
        neighbor_concurrency = machine.n_logical_cpus // 4
    return [plan.SweepPoint(
        "e12", index, mode, name, settings,
        params=(("config", name), ("mode", mode),
                ("concurrency", int(neighbor_concurrency))))
            for index, (name, mode) in enumerate(CONFIGS)]


def run_sweep_point(point: plan.SweepPoint) -> plan.Payload:
    """Measure the store next to one neighbor configuration."""
    settings = point.settings
    machine = settings.machine()
    n_ccxs = len(machine.ccxs)
    neighbor_share = n_ccxs // 4
    store_ccxs = CpuSet()
    for ccx in range(n_ccxs - neighbor_share):
        store_ccxs = store_ccxs | machine.cpus_in_ccx(ccx)
    neighbor_ccxs = machine.all_cpus() - store_ccxs

    app = settings.application()
    counts = default_counts(settings)
    mode = point.param("mode")
    neighbor_affinity: CpuSet | None
    if mode == "none":
        allocation = unpinned(machine, counts)
        neighbor_affinity = None
    elif mode == "shared":
        allocation = unpinned(machine, counts)
        neighbor_affinity = machine.all_cpus()
    else:
        # The spec's demand weights (from E5) partition the store's
        # CCX share.
        allocation = ccx_aware(machine, counts, app.placement_weights(),
                               online=store_ccxs)
        neighbor_affinity = neighbor_ccxs

    deployment = Deployment(machine, seed=settings.seed,
                            memory_config=settings.memory_config)
    store = deploy_application(deployment, app,
                               placement=allocation.as_placement())
    neighbor = None
    if neighbor_affinity is not None:
        neighbor = BatchKernelWorkload(
            deployment, batch_kernel_profiles()["stream-like"],
            affinity=neighbor_affinity,
            concurrency=point.param("concurrency"))
        neighbor.start()
    workload = closed_workload(
        deployment, store.session_factory(),
        n_users=settings.users, think_time=settings.think_time,
        cohort_factor=settings.cohort_factor)
    workload.start()
    deployment.run(until=deployment.sim.now + settings.warmup)
    if neighbor is not None:
        neighbor.start_window()
    result = run_experiment(deployment, workload,
                            warmup=0.0, duration=settings.duration)
    return {
        "config": point.param("config"),
        "store_rps": result.throughput,
        "store_p99_ms": result.latency_p99 * 1e3,
        "neighbor_bursts_per_s": (neighbor.bursts_per_second()
                                  if neighbor is not None else 0.0),
    }


def assemble_sweep(settings: ExperimentSettings,
                   payloads: t.Sequence[plan.Payload]) -> ExperimentResult:
    """Compute the vs-alone ratios against the leading reference row."""
    reference = t.cast(float, payloads[0]["store_rps"])
    rows: list[Row] = []
    for payload in payloads:
        rows.append({
            "config": payload["config"],
            "store_rps": payload["store_rps"],
            "store_p99_ms": payload["store_p99_ms"],
            "store_vs_alone": (t.cast(float, payload["store_rps"])
                               / reference),
            "neighbor_bursts_per_s": payload["neighbor_bursts_per_s"],
        })
    shared = t.cast(float, rows[1]["store_vs_alone"])
    partitioned = t.cast(float, rows[2]["store_vs_alone"])
    return ExperimentResult(
        "E12", TITLE, rows,
        notes=[
            f"unconstrained neighbor costs the store "
            f"{100 * (1 - shared):.1f}%; partitioning holds the loss to "
            f"{100 * (1 - partitioned):.1f}% while the neighbor keeps "
            f"running",
        ])


plan.register_sweep("e12", TITLE, points=sweep_points,
                    run_point=run_sweep_point, assemble=assemble_sweep)
