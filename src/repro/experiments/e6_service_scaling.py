"""E6 — Per-service scale-up curves.

For each service, sweeps the CPU allocation given to *that service alone*
— k CCXs, one replica per CCX — while every other service keeps a generous
fixed share of the remaining CCXs, under load that saturates the target's
smallest allocation.  System throughput then traces the target service's
own scale-up curve:

* WebUI keeps converting CCXs into throughput;
* Persistence stops paying off once the database's serialized fraction is
  the real constraint behind it;
* Auth and Recommender saturate the offered load with very little CPU.

The differences are the paper's case for sizing services individually.
Each curve gets a Universal Scalability Law fit.
"""

from __future__ import annotations

import typing as t

from repro.analysis.usl import fit_usl
from repro._errors import ConfigurationError
from repro.apps.registry import get_app
from repro.experiments.common import (
    ExperimentResult,
    ExperimentSettings,
    Row,
    default_counts,
    run_store,
)
from repro.orchestrator import plan
from repro.placement.allocation import Allocation, ReplicaPlacement
from repro.placement.policies import ccx_aware
from repro.placement.scaling import ScalingCurve
from repro.teastore.catalog import SERVICE_NAMES
from repro.topology.model import Machine

TITLE = "Per-service scale-up curves (CCX sweeps + USL fits)"

#: Services swept by default, with their CCX ladders.
DEFAULT_SWEEPS: dict[str, tuple[int, ...]] = {
    "webui": (1, 2, 4, 8),
    "persistence": (1, 2, 4),
    "image": (1, 2, 4),
    "auth": (1, 2, 4),
}


def run(settings: ExperimentSettings | None = None,
        sweeps: t.Mapping[str, t.Sequence[int]] | None = None
        ) -> ExperimentResult:
    """One row per (service, CCX-count) point, USL fits in the notes."""
    settings = settings or ExperimentSettings()
    points = sweep_points(settings, sweeps)
    return assemble_sweep(settings,
                          [run_sweep_point(point) for point in points])


def sweep_points(settings: ExperimentSettings,
                 sweeps: t.Mapping[str, t.Sequence[int]] | None = None
                 ) -> list[plan.SweepPoint]:
    """One independent point per (service, CCX-count) pair.

    Validation (fit of the ladders next to the fixed others-budget,
    known service names) happens here, before any simulation work is
    scheduled.
    """
    sweeps = sweeps or DEFAULT_SWEEPS
    machine = settings.machine()
    # The non-target services keep one fixed CCX budget for the whole
    # experiment: as much as possible while still fitting the largest
    # sweep point, and never fewer than one CCX per service.
    total_ccxs = len(machine.ccxs)
    max_point = max(max(ladder) for ladder in sweeps.values())
    others_budget = max(len(SERVICE_NAMES) - 1, total_ccxs - max_point)
    if others_budget + max_point > total_ccxs:
        raise ConfigurationError(
            f"sweep up to {max_point} CCXs does not fit next to "
            f"{others_budget} CCXs for the other services "
            f"({total_ccxs} total)")
    points: list[plan.SweepPoint] = []
    for service, ladder in sweeps.items():
        if service not in SERVICE_NAMES:
            raise ConfigurationError(f"unknown service {service!r}")
        for n_ccxs in ladder:
            points.append(plan.SweepPoint(
                "e6", len(points), "ccx-sweep",
                f"{service}@{n_ccxs}ccx", settings,
                params=(("service", service), ("ccxs", int(n_ccxs)),
                        ("others_budget", others_budget))))
    return points


def run_sweep_point(point: plan.SweepPoint) -> plan.Payload:
    """Measure one (service, CCX-count) allocation."""
    settings = point.settings
    machine = settings.machine()
    counts = default_counts(settings)
    allocation = _target_allocation(machine, point.param("service"),
                                    point.param("ccxs"), counts,
                                    point.param("others_budget"))
    result, __, __ = run_store(settings, machine=machine,
                               allocation=allocation)
    return {
        "service": point.param("service"),
        "ccxs": point.param("ccxs"),
        "throughput_rps": result.throughput,
        "latency_p99_ms": result.latency_p99 * 1e3,
    }


def assemble_sweep(settings: ExperimentSettings,
                   payloads: t.Sequence[plan.Payload]) -> ExperimentResult:
    """Regroup rows per service and refit the scaling curves."""
    rows: list[Row] = [dict(payload) for payload in payloads]
    ladders: dict[str, list[Row]] = {}
    for row in rows:
        ladders.setdefault(t.cast(str, row["service"]), []).append(row)
    notes: list[str] = []
    for service, service_rows in ladders.items():
        ladder = [t.cast(int, row["ccxs"]) for row in service_rows]
        throughputs = [t.cast(float, row["throughput_rps"])
                       for row in service_rows]
        curve = ScalingCurve(service, tuple(ladder), tuple(throughputs))
        notes.append(f"{service}: gains stop at "
                     f"{curve.saturation_point()} CCXs "
                     f"(x{curve.speedups()[-1]:.2f} total)")
        if len(ladder) >= 3:
            fit = fit_usl(list(ladder), throughputs)
            notes.append(f"{service}: {fit}")
    return ExperimentResult("E6", TITLE, rows, notes=notes)


plan.register_sweep("e6", TITLE, points=sweep_points,
                    run_point=run_sweep_point, assemble=assemble_sweep)


def _target_allocation(machine: Machine, target: str, n_ccxs: int,
                       counts: t.Mapping[str, int],
                       others_budget: int) -> Allocation:
    """Target on the first ``n_ccxs`` CCXs (one replica per CCX); every
    other service keeps a *fixed* budget — the machine's top
    ``others_budget`` CCXs — regardless of ``n_ccxs``, so the sweep
    varies exactly one thing.  CCXs the target does not use stay idle."""
    total_ccxs = len(machine.ccxs)
    target_budget = total_ccxs - others_budget
    if not 1 <= n_ccxs <= target_budget:
        raise ConfigurationError(
            f"{target!r} sweep point {n_ccxs} outside 1..{target_budget} "
            f"(the other services own the top {others_budget} CCXs)")
    target_replicas = [
        ReplicaPlacement(machine.cpus_in_ccx(ccx),
                         home_node=machine.ccxs[ccx].node.index)
        for ccx in range(n_ccxs)
    ]
    others = sorted(set(counts) - {target})
    rest_online = _cpus_of_ccxs(machine,
                                range(total_ccxs - others_budget,
                                      total_ccxs))
    rest_counts = {service: counts[service] for service in others}
    # The spec's demand weights (measured by E5 on the tuned baseline)
    # budget the non-target services generously.
    weights = get_app("teastore").placement_weights()
    rest_weights = {service: weights[service] for service in others}
    rest = ccx_aware(machine, rest_counts, rest_weights,
                     online=rest_online)
    placements = {service: list(rest.replicas(service))
                  for service in others}
    placements[target] = target_replicas
    return Allocation(machine, placements)


def _cpus_of_ccxs(machine: Machine, ccx_indices: t.Iterable[int]):
    from repro.topology.cpuset import CpuSet
    mask = CpuSet()
    for ccx_index in ccx_indices:
        mask = mask | machine.cpus_in_ccx(ccx_index)
    return mask
