"""Data-driven chaos scenario catalog over the bottleneck taxonomy.

A :class:`Scenario` bundles the three things a chaos experiment needs:

* an **injection schedule** — fault entries with times expressed as
  *fractions of the measurement window* (``at`` / ``for``), so the same
  scenario scales from ``--fast`` to paper-scale settings exactly like
  E13's schedules do;
* a **target-selection policy** — a small vocabulary (``orchestrator``,
  ``hottest``, ``storage``, ``fabric``, ``service:<name>``) resolved
  against the active application's spec (TeaStore by default), so
  scenarios name *roles* rather than hard-coding service names;
* an **expected-blast-radius spec** (:class:`Expectation`) — which
  services are allowed to degrade, how deep the cascade may propagate,
  and the error/tail/recovery thresholds the grader enforces.

Scenarios are JSON-native via :meth:`Scenario.to_dict` /
:meth:`Scenario.from_dict`, so the campaign runner can embed them in
sweep-point parameters and the orchestrator cache treats them like any
other setting.  The builtin catalog covers one scenario per bottleneck
class (chaosprobe's taxonomy) plus a healthy control:

========================  ==========================  =================
scenario                  bottleneck class            fault
========================  ==========================  =================
``control``               control                     none
``cpu-hog``               execution-saturation        hog on ``hottest``
``kill-orchestrator``     critical-path-contention    kill ``orchestrator``
``db-io``                 io-contention               slow on ``storage``
``net-saturation``        bandwidth-saturation        fabric netdelay
========================  ==========================  =================
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro._errors import ConfigurationError
from repro.apps.registry import get_app
from repro.apps.spec import CHAOS_ROLES
from repro.workload.faults import FABRIC, FAULT_KINDS

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.apps.spec import ApplicationSpec
    from repro.experiments.common import ExperimentSettings

#: Bottleneck classes, after chaosprobe's taxonomy, plus the healthy
#: control.  Catalog order follows this order.
BOTTLENECK_CLASSES = (
    "control",
    "execution-saturation",
    "critical-path-contention",
    "io-contention",
    "bandwidth-saturation",
)


#: The target-policy roles: the spec-bound service roles plus the
#: fabric-wide wildcard.
TARGET_ROLES = (*CHAOS_ROLES, "fabric")


def call_graph(app: "ApplicationSpec | None" = None
               ) -> dict[str, tuple[str, ...]]:
    """The active application's call graph (caller → callees).

    Target policies and default blast expectations are derived from
    this; the cascade analyzer itself trusts only the edges it
    *observes* in the trace.
    """
    return (app or get_app("teastore")).call_graph()


def target_policies(app: "ApplicationSpec | None" = None
                    ) -> dict[str, str]:
    """Role-based target policies → concrete service for ``app``.

    The three service roles come from the application spec's
    ``chaos_targets`` binding; ``fabric`` maps to the wildcard the
    injector uses for fabric-wide faults.
    """
    spec = app or get_app("teastore")
    return {
        "orchestrator": spec.chaos_targets["orchestrator"],
        "hottest": spec.chaos_targets["hottest"],
        "storage": spec.chaos_targets["storage"],
        "fabric": FABRIC,
    }


def resolve_target(policy: str,
                   app: "ApplicationSpec | None" = None) -> str:
    """Resolve a target policy to a service name (or :data:`FABRIC`).

    Accepts the role vocabulary in :func:`target_policies` or an
    explicit ``service:<name>`` escape hatch, both resolved against
    ``app`` (TeaStore when ``None``).
    """
    policies = target_policies(app)
    if policy in policies:
        return policies[policy]
    if policy.startswith("service:"):
        name = policy[len("service:"):]
        graph = call_graph(app)
        if name not in graph:
            raise ConfigurationError(
                f"unknown service {name!r} in target policy {policy!r}; "
                f"choose from {tuple(sorted(graph))}")
        return name
    raise ConfigurationError(
        f"unknown target policy {policy!r}; choose from "
        f"{tuple(sorted(policies))} or 'service:<name>'")


def upstream_closure(target: str,
                     graph: t.Mapping[str, t.Sequence[str]] | None = None,
                     app: "ApplicationSpec | None" = None
                     ) -> frozenset[str]:
    """Services whose requests transit ``target``: it plus its callers.

    This is the maximal blast radius a fault on ``target`` can have —
    degradation anywhere else cannot be attributed to the fault.  The
    fabric wildcard closes over every service.
    """
    graph = call_graph(app) if graph is None else graph
    if target == FABRIC:
        return frozenset(graph)
    closure = {target}
    # Reverse-BFS: repeatedly absorb any caller of a member.
    changed = True
    while changed:
        changed = False
        for caller, callees in graph.items():
            if caller not in closure and closure & set(callees):
                closure.add(caller)
                changed = True
    return frozenset(closure)


@dataclasses.dataclass(frozen=True)
class Expectation:
    """The graded contract one scenario is held to.

    All thresholds are ratios against the scenario's own healthy
    baseline phase (pre-fault spans of the same run), so expectations
    transfer across scale presets without retuning.
    """

    #: Services permitted to show degraded latency during the fault.
    allowed_blast: tuple[str, ...] = ()
    #: Maximum attributed propagation depth (hops upstream from the
    #: fault target along observed call edges; target itself is 1).
    max_depth: int = 0
    #: Maximum tolerated request error rate over the window.
    max_error_rate: float = 0.0
    #: Root p99 (during/pre ratio) above which the grade is DEGRADED.
    pass_p99_ratio: float = 1.5
    #: Root p99 ratio above which the grade is FAIL.
    fail_p99_ratio: float = 10.0
    #: Fraction of the measurement window within which attributed
    #: services must recover after the fault lifts (grade DEGRADED past
    #: it, FAIL only when they never recover).
    recover_within: float = 0.5

    def __post_init__(self) -> None:
        if self.max_depth < 0:
            raise ConfigurationError(
                f"max_depth must be >= 0: {self.max_depth}")
        if not 0.0 <= self.max_error_rate <= 1.0:
            raise ConfigurationError(
                f"max_error_rate must be in [0, 1]: {self.max_error_rate}")
        if self.pass_p99_ratio < 1.0:
            raise ConfigurationError(
                f"pass_p99_ratio must be >= 1: {self.pass_p99_ratio}")
        if self.fail_p99_ratio < self.pass_p99_ratio:
            raise ConfigurationError(
                f"fail_p99_ratio ({self.fail_p99_ratio}) must be >= "
                f"pass_p99_ratio ({self.pass_p99_ratio})")
        if not 0.0 < self.recover_within <= 1.0:
            raise ConfigurationError(
                f"recover_within must be in (0, 1]: {self.recover_within}")

    def to_dict(self) -> dict[str, t.Any]:
        """Canonical JSON-native form."""
        data = dataclasses.asdict(self)
        data["allowed_blast"] = list(self.allowed_blast)
        return data

    @classmethod
    def from_dict(cls, data: t.Mapping[str, t.Any]) -> "Expectation":
        """Inverse of :meth:`to_dict`."""
        fields = dict(data)
        fields["allowed_blast"] = tuple(fields.get("allowed_blast", ()))
        return cls(**fields)


#: Keys every relative fault entry may carry, per kind.
_RELATIVE_KEYS: dict[str, frozenset[str]] = {
    "kill": frozenset({"kind", "at", "replica", "restore_for"}),
    "slow": frozenset({"kind", "at", "for", "replica", "factor"}),
    "pause": frozenset({"kind", "at", "for", "replica"}),
    "hog": frozenset({"kind", "at", "for", "replica", "intensity",
                      "workers"}),
    "netdelay": frozenset({"kind", "at", "for", "factor"}),
}


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One chaos scenario: schedule + target policy + expectation."""

    #: Stable identifier (CLI and report key).
    name: str
    #: One of :data:`BOTTLENECK_CLASSES`.
    bottleneck_class: str
    #: Target-selection policy (see :func:`resolve_target`).
    target: str
    #: Relative fault entries: ``at``/``for``/``restore_for`` are
    #: fractions of the measurement window; other keys pass through to
    #: :meth:`~repro.workload.faults.FaultInjector.apply`.
    faults: tuple[t.Mapping[str, t.Any], ...]
    #: The graded contract for this scenario.
    expectation: Expectation
    #: One-line human description for ``--list-scenarios``.
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must be non-empty")
        if self.bottleneck_class not in BOTTLENECK_CLASSES:
            raise ConfigurationError(
                f"unknown bottleneck class {self.bottleneck_class!r}; "
                f"choose from {BOTTLENECK_CLASSES}")
        # Validate the policy *syntax* eagerly; the concrete service is
        # resolved against the active application at catalog load /
        # schedule time (scenarios are application-portable).
        if self.target not in TARGET_ROLES and not (
                self.target.startswith("service:")
                and self.target[len("service:"):]):
            raise ConfigurationError(
                f"unknown target policy {self.target!r}; choose from "
                f"{tuple(sorted(TARGET_ROLES))} or 'service:<name>'")
        for fault in self.faults:
            kind = fault.get("kind")
            if kind not in FAULT_KINDS:
                raise ConfigurationError(
                    f"scenario {self.name!r}: unknown fault kind "
                    f"{kind!r}; choose from {FAULT_KINDS}")
            unknown = set(fault) - _RELATIVE_KEYS[kind]
            if unknown:
                raise ConfigurationError(
                    f"scenario {self.name!r}: fault kind {kind!r} does "
                    f"not accept keys {tuple(sorted(unknown))}")
            at = float(fault.get("at", 0.0))
            if not 0.0 <= at < 1.0:
                raise ConfigurationError(
                    f"scenario {self.name!r}: fault 'at' must be in "
                    f"[0, 1): {at}")
            for key in ("for", "restore_for"):
                if key in fault and not 0.0 < float(fault[key]) <= 1.0:
                    raise ConfigurationError(
                        f"scenario {self.name!r}: fault {key!r} must be "
                        f"in (0, 1]: {fault[key]}")

    @property
    def target_service(self) -> str:
        """The resolved concrete target (service name or fabric)."""
        return resolve_target(self.target)

    def target_for(self, app: "ApplicationSpec | None" = None) -> str:
        """The concrete target under ``app`` (TeaStore when ``None``)."""
        return resolve_target(self.target, app)

    def schedule(self, settings: "ExperimentSettings",
                 app: "ApplicationSpec | None" = None
                 ) -> list[dict[str, t.Any]]:
        """Resolve relative fault entries to an absolute injector schedule.

        ``at`` fractions anchor to the start of the measurement window
        (``settings.warmup``); ``for`` / ``restore_for`` fractions scale
        by the window length.  The target policy resolves against
        ``app`` (TeaStore when ``None``).
        """
        window = settings.duration
        service = self.target_for(app)
        schedule: list[dict[str, t.Any]] = []
        for fault in self.faults:
            kind = str(fault["kind"])
            entry: dict[str, t.Any] = {
                "kind": kind,
                "time": settings.warmup + float(fault.get("at", 0.0)) * window,
            }
            if kind != "netdelay":
                entry["service"] = service
                entry["replica"] = int(fault.get("replica", 0))
            if "for" in fault:
                entry["duration"] = float(fault["for"]) * window
            if "restore_for" in fault:
                entry["restore_after"] = float(fault["restore_for"]) * window
            for key in ("factor", "intensity", "workers"):
                if key in fault:
                    entry[key] = fault[key]
            schedule.append(entry)
        return schedule

    def to_dict(self) -> dict[str, t.Any]:
        """Canonical JSON-native form (sweep-point parameter shape)."""
        return {
            "name": self.name,
            "bottleneck_class": self.bottleneck_class,
            "target": self.target,
            "faults": [dict(fault) for fault in self.faults],
            "expectation": self.expectation.to_dict(),
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: t.Mapping[str, t.Any]) -> "Scenario":
        """Inverse of :meth:`to_dict` (validates on construction)."""
        return cls(
            name=str(data["name"]),
            bottleneck_class=str(data["bottleneck_class"]),
            target=str(data["target"]),
            faults=tuple(dict(fault) for fault in data.get("faults", ())),
            expectation=Expectation.from_dict(data.get("expectation", {})),
            description=str(data.get("description", "")),
        )


def _caller_chain_depth(service: str,
                        graph: t.Mapping[str, t.Sequence[str]]) -> int:
    """Longest caller chain ending at ``service``, counting it (>= 1).

    This is the deepest a fault on ``service`` can propagate upstream
    along real call edges — the derived ``max_depth`` contract.
    """
    callers = {name: tuple(caller for caller, callees in graph.items()
                           if name in callees)
               for name in graph}

    def depth(name: str, seen: frozenset[str]) -> int:
        upstream = [depth(caller, seen | {name})
                    for caller in callers.get(name, ())
                    if caller not in seen]
        return 1 + (max(upstream) if upstream else 0)

    return depth(service, frozenset())


def _graph_depth(graph: t.Mapping[str, t.Sequence[str]]) -> int:
    """The longest call chain anywhere in the graph (services counted)."""

    def depth(name: str, seen: frozenset[str]) -> int:
        downstream = [depth(callee, seen | {name})
                      for callee in graph.get(name, ())
                      if callee not in seen]
        return 1 + (max(downstream) if downstream else 0)

    return max(depth(name, frozenset()) for name in graph)


def builtin_catalog(app: "ApplicationSpec | None" = None
                    ) -> tuple[Scenario, ...]:
    """The builtin catalog: one scenario per bottleneck class + control.

    Blast radii and propagation depths are derived from ``app``'s call
    graph (TeaStore when ``None``), resolved eagerly — an application
    whose role bindings or graph are broken fails here, at catalog
    load, not mid-campaign.  For TeaStore the derivation reproduces the
    original hand-written expectations byte for byte.
    """
    spec = app or get_app("teastore")
    graph = call_graph(spec)

    def derived(policy: str) -> tuple[tuple[str, ...], int]:
        service = resolve_target(policy, spec)
        blast = tuple(sorted(upstream_closure(service, graph)))
        if service == FABRIC:
            return blast, _graph_depth(graph) + 1
        return blast, _caller_chain_depth(service, graph)

    hottest_blast, hottest_depth = derived("hottest")
    orch_blast, orch_depth = derived("orchestrator")
    storage_blast, storage_depth = derived("storage")
    fabric_blast, fabric_depth = derived("fabric")
    return (
        Scenario(
            name="control",
            bottleneck_class="control",
            target="orchestrator",
            faults=(),
            expectation=Expectation(
                allowed_blast=(), max_depth=0, max_error_rate=0.0,
                pass_p99_ratio=1.5, fail_p99_ratio=10.0,
                recover_within=1.0),
            description="healthy baseline; must grade PASS with an "
                        "empty blast radius"),
        Scenario(
            name="cpu-hog",
            bottleneck_class="execution-saturation",
            target="hottest",
            faults=(
                {"kind": "hog", "at": 0.15, "for": 0.50,
                 "workers": 2, "intensity": 1.0},),
            expectation=Expectation(
                allowed_blast=hottest_blast,
                max_depth=hottest_depth, max_error_rate=0.05,
                pass_p99_ratio=1.5, fail_p99_ratio=25.0,
                recover_within=0.5),
            description="background CPU hogs saturate the hottest "
                        "service's replica (pod-cpu-hog analog)"),
        Scenario(
            name="kill-orchestrator",
            bottleneck_class="critical-path-contention",
            target="orchestrator",
            faults=(
                {"kind": "kill", "at": 0.15, "restore_for": 0.40},),
            expectation=Expectation(
                allowed_blast=orch_blast,
                max_depth=orch_depth, max_error_rate=0.60,
                pass_p99_ratio=1.5, fail_p99_ratio=50.0,
                recover_within=0.6),
            description="kill one replica of the orchestrating entry "
                        "service mid-window, restore it later"),
        Scenario(
            name="db-io",
            bottleneck_class="io-contention",
            target="storage",
            faults=(
                {"kind": "slow", "at": 0.10, "for": 0.60, "factor": 8.0},),
            expectation=Expectation(
                allowed_blast=storage_blast,
                max_depth=storage_depth, max_error_rate=0.05,
                pass_p99_ratio=1.5, fail_p99_ratio=50.0,
                recover_within=0.5),
            description="degraded-disk analog: the storage backend's "
                        "service demand inflates 8x"),
        Scenario(
            name="net-saturation",
            bottleneck_class="bandwidth-saturation",
            target="fabric",
            faults=(
                {"kind": "netdelay", "at": 0.15, "for": 0.50,
                 "factor": 80.0},),
            expectation=Expectation(
                allowed_blast=fabric_blast,
                max_depth=fabric_depth, max_error_rate=0.05,
                pass_p99_ratio=1.5, fail_p99_ratio=200.0,
                recover_within=0.5),
            description="fabric-wide hop-latency inflation (saturated "
                        "NIC / retransmit storm analog)"),
    )


def scenario_by_name(name: str,
                     catalog: t.Sequence[Scenario] | None = None
                     ) -> Scenario:
    """Look up one scenario by name (builtin catalog by default)."""
    scenarios = builtin_catalog() if catalog is None else catalog
    for scenario in scenarios:
        if scenario.name == name:
            return scenario
    raise ConfigurationError(
        f"unknown scenario {name!r}; choose from "
        f"{tuple(s.name for s in scenarios)}")
