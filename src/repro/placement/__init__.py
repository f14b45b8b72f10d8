"""Topology-aware service placement — the paper's contribution.

The paper's headline gains come from two levers applied together:

1. **Per-service right-sizing** — replica counts proportional to each
   service's measured CPU appetite and scaling behaviour, instead of
   uniform or guessed counts.
2. **Topology-aware pinning** — each replica confined to its own group of
   CCXs (L3 domains) on one NUMA node, so replicas keep their code and
   data resident in one L3 slice instead of dragging it across the die.

* :class:`~repro.placement.allocation.Allocation` — a validated mapping
  of service → replica affinities/home nodes, consumable by
  :func:`repro.teastore.build_teastore`.
* :mod:`~repro.placement.policies` — ``unpinned`` (OS default),
  ``node_spread`` (the performance-tuned baseline), ``socket_pack``,
  and ``ccx_aware`` (the paper's technique).
* :mod:`~repro.placement.scaling` — per-service scaling-curve
  measurement and weight estimation.
* :mod:`~repro.placement.optimizer` — greedy CCX-budget refinement on top
  of ``ccx_aware`` using an arbitrary evaluation function.
"""

from repro.placement.allocation import Allocation, ReplicaPlacement
from repro.placement.optimizer import OptimizationStep, optimize_ccx_budget
from repro.placement.policies import (
    ccx_aware,
    ccx_aware_auto,
    node_spread,
    socket_pack,
    unpinned,
)
from repro.placement.scaling import (
    ScalingCurve,
    weights_from_utilization,
)

__all__ = [
    "Allocation",
    "OptimizationStep",
    "ReplicaPlacement",
    "ScalingCurve",
    "ccx_aware",
    "ccx_aware_auto",
    "node_spread",
    "optimize_ccx_budget",
    "socket_pack",
    "unpinned",
    "weights_from_utilization",
]
