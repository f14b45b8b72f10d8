"""Validated placement descriptions."""

from __future__ import annotations

import dataclasses
import typing as t

from repro._errors import PlacementError
from repro.topology.cpuset import CpuSet
from repro.topology.model import Machine


@dataclasses.dataclass(frozen=True)
class ReplicaPlacement:
    """Where one replica runs: its CPU mask and memory home node."""

    affinity: CpuSet
    home_node: int | None = None  # None → first-touch

    def __post_init__(self) -> None:
        if not self.affinity:
            raise PlacementError("replica placement with empty affinity")


class Allocation:
    """A complete placement: every service's replicas and their masks.

    Immutable once built; validation happens against a machine and an
    online CPU set so mistakes surface at construction, not mid-run.
    """

    def __init__(self, machine: Machine,
                 placements: t.Mapping[str, t.Sequence[ReplicaPlacement]],
                 online: CpuSet | None = None):
        online = online if online is not None else machine.all_cpus()
        self.machine = machine
        self.online = online
        validated: dict[str, tuple[ReplicaPlacement, ...]] = {}
        for service, replicas in placements.items():
            if not replicas:
                raise PlacementError(f"service {service!r} has no replicas")
            for replica in replicas:
                if not (replica.affinity & online):
                    raise PlacementError(
                        f"{service!r}: affinity "
                        f"{replica.affinity.to_string()!r} has no online CPU")
                if not replica.affinity.issubset(machine.all_cpus()):
                    raise PlacementError(
                        f"{service!r}: affinity exceeds machine CPUs")
                if (replica.home_node is not None
                        and not 0 <= replica.home_node < len(machine.nodes)):
                    raise PlacementError(
                        f"{service!r}: no such NUMA node "
                        f"{replica.home_node}")
            validated[service] = tuple(replicas)
        self._placements = validated

    @property
    def services(self) -> list[str]:
        """Service names covered, sorted."""
        return sorted(self._placements)

    def replicas(self, service: str) -> tuple[ReplicaPlacement, ...]:
        """The placements of one service."""
        try:
            return self._placements[service]
        except KeyError:
            raise PlacementError(
                f"allocation has no service {service!r}") from None

    def replica_counts(self) -> dict[str, int]:
        """Replica count per service."""
        return {service: len(replicas)
                for service, replicas in self._placements.items()}

    def as_placement(self) -> dict[str, list[tuple[CpuSet, int | None]]]:
        """The mapping :func:`repro.apps.runtime.deploy_application`
        consumes."""
        return {service: [(r.affinity, r.home_node) for r in replicas]
                for service, replicas in self._placements.items()}

    def describe(self) -> str:
        """Human-readable placement table."""
        lines = []
        for service in self.services:
            for index, replica in enumerate(self._placements[service]):
                home = ("first-touch" if replica.home_node is None
                        else f"node {replica.home_node}")
                lines.append(f"{service}#{index}: "
                             f"cpus {replica.affinity.to_string()} ({home})")
        return "\n".join(lines)

    def __repr__(self) -> str:
        counts = ", ".join(f"{s}×{len(r)}"
                           for s, r in sorted(self._placements.items()))
        return f"<Allocation {counts}>"
