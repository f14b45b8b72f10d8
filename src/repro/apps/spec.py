"""Declarative application specifications.

An :class:`ApplicationSpec` describes a whole microservice application as
data: its services (footprint profile, replica/worker sizing, endpoints),
the call-graph edges each endpoint exercises, per-endpoint CPU-demand
distributions, Markov session profiles, chaos target-policy bindings, and
default placement hints.  The spec is JSON-native (:meth:`dumps` /
:func:`loads` round-trip byte-stably) and validates eagerly on
construction: unknown call targets, cyclic service graphs, negative
demands, and dangling session states all fail at load time rather than
mid-simulation.

Endpoint behavior is a small step vocabulary, interpreted by
:mod:`repro.apps.runtime` into the exact handler idioms the hand-written
TeaStore services used (same random streams, same floating-point
arithmetic order, hence byte-identical simulated results):

``compute``
    ``{"op": "compute", "demand": seconds}`` — local CPU demand, drawn
    lognormal around ``demand`` with the application's ``demand_cv``.
``call``
    ``{"op": "call", "service": s, "endpoint": e[, "payload": v]}`` —
    one synchronous downstream RPC.
``gather``
    ``{"op": "gather", "calls": [{"service": ..., "endpoint": ...}, ...]}``
    — concurrent fan-out, joined before the next step.
``cache``
    ``{"op": "cache", "hit_rate": p, "hit_demand": s, "miss_demand": s}``
    — a probabilistic in-memory cache lookup (cheap hit, expensive miss).
``cached_batch``
    ``{"op": "cached_batch", "default_count": n, "hit_rate": p,
    "hit_demand": s, "miss_demand": s}`` — a batch of ``payload or
    default_count`` lookups; misses drawn binomially per replica.
``serialized_query``
    ``{"op": "serialized_query", "serial_fraction": f}`` — a storage
    query costing ``payload`` seconds, a fraction of which serializes
    under the service's shared lock (requires ``shared_lock``).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import typing as t

from repro._errors import ConfigurationError
from repro.memory.profile import WorkloadProfile

#: Schema version stamped into dumped specs.
SPEC_VERSION = 1

#: The step vocabulary (see module docstring).
STEP_OPS = ("compute", "call", "gather", "cache", "cached_batch",
            "serialized_query")

#: Chaos target roles every application must bind to a concrete service
#: (the ``fabric`` role is application-independent and not bound here).
CHAOS_ROLES = ("orchestrator", "hottest", "storage")

#: Profile fields serialized per service (``name`` is implied).
_PROFILE_FIELDS = ("code_bytes", "data_bytes", "mem_intensity",
                   "frontend_intensity", "base_ipc", "l1i_mpki",
                   "l1d_mpki", "l2_mpki", "l3_mpki", "branch_mpki")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _check_demand(where: str, key: str, value: t.Any) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{where}: {key} must be a number, got {value!r}")
    _require(value >= 0, f"{where}: negative demand {key}={value}")
    return float(value)


def _check_rate(where: str, key: str, value: t.Any) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{where}: {key} must be a number, got {value!r}")
    _require(0.0 <= value <= 1.0,
             f"{where}: {key} must be in [0, 1], got {value}")
    return float(value)


def _normalize_call(where: str, call: t.Mapping[str, t.Any]
                    ) -> dict[str, t.Any]:
    _require("service" in call and "endpoint" in call,
             f"{where}: call steps need 'service' and 'endpoint'")
    entry: dict[str, t.Any] = {"service": str(call["service"]),
                               "endpoint": str(call["endpoint"])}
    if call.get("payload") is not None:
        payload = call["payload"]
        if isinstance(payload, float):
            _check_demand(where, "payload", payload)
        entry["payload"] = payload
    return entry


def _normalize_step(where: str, step: t.Mapping[str, t.Any]
                    ) -> dict[str, t.Any]:
    """Validate one step and rebuild it with canonical key order."""
    op = step.get("op")
    _require(op in STEP_OPS,
             f"{where}: unknown step op {op!r}; choose from {STEP_OPS}")
    known: dict[str, tuple[str, ...]] = {
        "compute": ("op", "demand"),
        "call": ("op", "service", "endpoint", "payload"),
        "gather": ("op", "calls"),
        "cache": ("op", "hit_rate", "hit_demand", "miss_demand"),
        "cached_batch": ("op", "default_count", "hit_rate", "hit_demand",
                         "miss_demand"),
        "serialized_query": ("op", "serial_fraction"),
    }
    unknown = set(step) - set(known[op])
    _require(not unknown,
             f"{where}: step op {op!r} does not accept keys "
             f"{tuple(sorted(unknown))}")
    if op == "compute":
        return {"op": op,
                "demand": _check_demand(where, "demand", step.get("demand"))}
    if op == "call":
        return {"op": op, **_normalize_call(where, step)}
    if op == "gather":
        calls = step.get("calls")
        _require(isinstance(calls, (list, tuple)) and len(calls) >= 1,
                 f"{where}: gather needs a non-empty 'calls' list")
        return {"op": op,
                "calls": [_normalize_call(where, call) for call in calls]}
    if op == "cache":
        return {
            "op": op,
            "hit_rate": _check_rate(where, "hit_rate", step.get("hit_rate")),
            "hit_demand": _check_demand(where, "hit_demand",
                                        step.get("hit_demand")),
            "miss_demand": _check_demand(where, "miss_demand",
                                         step.get("miss_demand")),
        }
    if op == "cached_batch":
        count = step.get("default_count")
        _require(isinstance(count, int) and not isinstance(count, bool)
                 and count >= 1,
                 f"{where}: default_count must be a positive int, "
                 f"got {count!r}")
        return {
            "op": op,
            "default_count": count,
            "hit_rate": _check_rate(where, "hit_rate", step.get("hit_rate")),
            "hit_demand": _check_demand(where, "hit_demand",
                                        step.get("hit_demand")),
            "miss_demand": _check_demand(where, "miss_demand",
                                         step.get("miss_demand")),
        }
    return {"op": op,
            "serial_fraction": _check_rate(where, "serial_fraction",
                                           step.get("serial_fraction"))}


@dataclasses.dataclass(frozen=True)
class EndpointDef:
    """One endpoint: its behavior steps and declared return payload."""

    name: str
    #: Canonicalized step dicts (see module docstring).
    steps: tuple[t.Mapping[str, t.Any], ...]
    #: JSON-native value the handler returns on success.
    returns: t.Any = "ok"
    #: Degraded response served when the service is unreachable and the
    #: caller runs resilient dispatch (``None`` = no fallback).
    fallback: t.Any = None

    def __post_init__(self) -> None:
        _require(bool(self.name), "endpoint name must be non-empty")
        where = f"endpoint {self.name!r}"
        object.__setattr__(self, "steps", tuple(
            _normalize_step(where, step) for step in self.steps))

    def to_dict(self) -> dict[str, t.Any]:
        data: dict[str, t.Any] = {
            "name": self.name,
            "steps": [dict(step) for step in self.steps],
            "returns": self.returns,
        }
        if self.fallback is not None:
            data["fallback"] = self.fallback
        return data


@dataclasses.dataclass(frozen=True)
class ServiceDef:
    """One service: footprint, sizing, placement hint, endpoints."""

    name: str
    profile: WorkloadProfile
    #: Paper-scale replica count / worker pool per replica.
    replicas: int
    workers: int
    #: Sizing used under the fast (``medium``/``small``/``tiny``) presets.
    fast_replicas: int
    fast_workers: int
    #: Default placement hint: this service's share of total CPU demand.
    demand_weight: float
    #: Whether replicas carry a shared single-slot lock (required by
    #: ``serialized_query`` steps).
    shared_lock: bool
    endpoints: tuple[EndpointDef, ...]

    def endpoint_names(self) -> tuple[str, ...]:
        return tuple(endpoint.name for endpoint in self.endpoints)

    def to_dict(self) -> dict[str, t.Any]:
        return {
            "name": self.name,
            "profile": {field: getattr(self.profile, field)
                        for field in _PROFILE_FIELDS},
            "replicas": self.replicas,
            "workers": self.workers,
            "fast_replicas": self.fast_replicas,
            "fast_workers": self.fast_workers,
            "demand_weight": self.demand_weight,
            "shared_lock": self.shared_lock,
            "endpoints": [endpoint.to_dict()
                          for endpoint in self.endpoints],
        }


@dataclasses.dataclass(frozen=True)
class SessionDef:
    """One Markov session profile over a service's endpoints."""

    name: str
    service: str
    start: str
    #: state → ordered ``[target, probability]`` pairs.  Order matters:
    #: sessions draw by index on the user's random stream.
    transitions: t.Mapping[str, tuple[tuple[str, float], ...]]

    def to_dict(self) -> dict[str, t.Any]:
        return {
            "name": self.name,
            "service": self.service,
            "start": self.start,
            "transitions": {
                state: [[target, weight] for target, weight in nexts]
                for state, nexts in self.transitions.items()
            },
        }


@dataclasses.dataclass(frozen=True)
class ApplicationSpec:
    """A whole application as data (see module docstring)."""

    name: str
    description: str
    services: tuple[ServiceDef, ...]
    sessions: tuple[SessionDef, ...]
    default_session: str
    #: Chaos role → concrete service (see :data:`CHAOS_ROLES`).
    chaos_targets: t.Mapping[str, str]
    #: Services a sharded run keeps on the shared (unsharded) tier.
    shared_services: tuple[str, ...] = ()
    demand_scale: float = 1.0
    demand_cv: float = 0.25
    version: int = SPEC_VERSION

    def __post_init__(self) -> None:
        self._validate()

    # -- validation ----------------------------------------------------

    def _validate(self) -> None:
        _require(bool(self.name), "application name must be non-empty")
        _require(len(self.services) >= 1,
                 f"application {self.name!r} has no services")
        _require(self.demand_scale > 0,
                 f"application {self.name!r}: demand_scale must be "
                 f"positive: {self.demand_scale}")
        _require(self.demand_cv >= 0,
                 f"application {self.name!r}: demand_cv must be "
                 f">= 0: {self.demand_cv}")
        names = [service.name for service in self.services]
        _require(len(set(names)) == len(names),
                 f"application {self.name!r} has duplicate service names")
        endpoints = {service.name: set(service.endpoint_names())
                     for service in self.services}
        for service in self.services:
            self._validate_service(service, endpoints)
        self._validate_acyclic()
        self._validate_sessions(endpoints)
        self._validate_payloads()
        self._validate_chaos_targets(set(names))
        for shared in self.shared_services:
            _require(shared in endpoints,
                     f"application {self.name!r}: shared service "
                     f"{shared!r} is not a service")

    def _validate_service(self, service: ServiceDef,
                          endpoints: t.Mapping[str, set[str]]) -> None:
        where = f"application {self.name!r}, service {service.name!r}"
        _require(service.replicas >= 1 and service.fast_replicas >= 1,
                 f"{where}: replica counts must be >= 1")
        _require(service.workers >= 1 and service.fast_workers >= 1,
                 f"{where}: worker counts must be >= 1")
        _require(service.demand_weight >= 0,
                 f"{where}: demand_weight must be >= 0")
        _require(len(service.endpoints) >= 1,
                 f"{where}: services need at least one endpoint")
        seen: set[str] = set()
        for endpoint in service.endpoints:
            _require(endpoint.name not in seen,
                     f"{where}: duplicate endpoint {endpoint.name!r}")
            seen.add(endpoint.name)
            ep_where = f"{where}, endpoint {endpoint.name!r}"
            for step in endpoint.steps:
                if step["op"] == "serialized_query":
                    _require(service.shared_lock,
                             f"{ep_where}: serialized_query requires "
                             f"shared_lock on the service")
                for call in _step_calls(step):
                    target = call["service"]
                    _require(target in endpoints,
                             f"{ep_where}: unknown call target service "
                             f"{target!r}")
                    _require(call["endpoint"] in endpoints[target],
                             f"{ep_where}: unknown call target endpoint "
                             f"{target}.{call['endpoint']}")

    def _validate_acyclic(self) -> None:
        graph = self.call_graph()
        state: dict[str, int] = {}  # 1 = on stack, 2 = done

        def visit(node: str, path: tuple[str, ...]) -> None:
            if state.get(node) == 2:
                return
            if state.get(node) == 1:
                cycle = path[path.index(node):] + (node,)
                raise ConfigurationError(
                    f"application {self.name!r}: cyclic call graph: "
                    f"{' -> '.join(cycle)}")
            state[node] = 1
            for callee in graph[node]:
                visit(callee, path + (node,))
            state[node] = 2

        for name in graph:
            visit(name, ())

    def _validate_sessions(self,
                           endpoints: t.Mapping[str, set[str]]) -> None:
        _require(len(self.sessions) >= 1,
                 f"application {self.name!r} has no session profiles")
        session_names = [session.name for session in self.sessions]
        _require(len(set(session_names)) == len(session_names),
                 f"application {self.name!r} has duplicate session names")
        _require(self.default_session in session_names,
                 f"application {self.name!r}: default_session "
                 f"{self.default_session!r} is not a session profile")
        for session in self.sessions:
            where = (f"application {self.name!r}, session "
                     f"{session.name!r}")
            _require(session.service in endpoints,
                     f"{where}: unknown service {session.service!r}")
            states = endpoints[session.service]
            _require(session.start in session.transitions,
                     f"{where}: start state {session.start!r} has no "
                     f"transitions")
            for state, nexts in session.transitions.items():
                _require(state in states,
                         f"{where}: state {state!r} is not an endpoint "
                         f"of {session.service!r}")
                _require(len(nexts) >= 1,
                         f"{where}: state {state!r} has no successors")
                total = 0.0
                for target, weight in nexts:
                    _require(weight >= 0,
                             f"{where}: state {state!r}: negative "
                             f"probability for {target!r}")
                    _require(target in session.transitions,
                             f"{where}: state {state!r} references "
                             f"unknown state {target!r}")
                    total += weight
                _require(abs(total - 1.0) <= 1e-9,
                         f"{where}: state {state!r}: probabilities sum "
                         f"to {total}, not 1")

    def _validate_payloads(self) -> None:
        """Every request must carry a payload its target's steps can use.

        A ``serialized_query`` costs ``payload`` seconds, so it needs a
        positive number; a ``cached_batch`` looks up ``payload or
        default_count`` items, so its payload is absent or a positive
        int.  Sessions send no payload, so no session state may be a
        ``serialized_query`` endpoint.
        """
        consumers = {
            (service.name, endpoint.name): {
                step["op"] for step in endpoint.steps
                if step["op"] in ("cached_batch", "serialized_query")}
            for service in self.services for endpoint in service.endpoints}
        for service in self.services:
            for endpoint in service.endpoints:
                where = (f"application {self.name!r}, service "
                         f"{service.name!r}, endpoint {endpoint.name!r}")
                for step in endpoint.steps:
                    for call in _step_calls(step):
                        target = (call["service"], call["endpoint"])
                        _check_payload(f"{where}: call to "
                                       f"{target[0]}.{target[1]}",
                                       consumers[target],
                                       call.get("payload"))
        for session in self.sessions:
            for state in session.transitions:
                _require("serialized_query"
                         not in consumers[(session.service, state)],
                         f"application {self.name!r}, session "
                         f"{session.name!r}: state {state!r} is a "
                         f"serialized_query endpoint, but session "
                         f"requests carry no payload")

    def _validate_chaos_targets(self, names: set[str]) -> None:
        _require(set(self.chaos_targets) == set(CHAOS_ROLES),
                 f"application {self.name!r}: chaos_targets must bind "
                 f"exactly the roles {CHAOS_ROLES}, got "
                 f"{tuple(sorted(self.chaos_targets))}")
        for role in CHAOS_ROLES:
            target = self.chaos_targets[role]
            _require(target in names,
                     f"application {self.name!r}: chaos role {role!r} "
                     f"binds unknown service {target!r}")

    # -- derived views -------------------------------------------------

    def service_names(self) -> tuple[str, ...]:
        """Service names in declaration (deployment) order."""
        return tuple(service.name for service in self.services)

    def service(self, name: str) -> ServiceDef:
        """Look up one service definition."""
        for service in self.services:
            if service.name == name:
                return service
        raise ConfigurationError(
            f"application {self.name!r} has no service {name!r}; "
            f"known: {self.service_names()}")

    def session(self, name: str) -> SessionDef:
        """Look up one session profile."""
        for session in self.sessions:
            if session.name == name:
                return session
        raise ConfigurationError(
            f"application {self.name!r} has no session {name!r}; known: "
            f"{tuple(s.name for s in self.sessions)}")

    def call_graph(self) -> dict[str, tuple[str, ...]]:
        """caller → callees, in first-appearance order per caller."""
        graph: dict[str, tuple[str, ...]] = {}
        for service in self.services:
            callees: list[str] = []
            for endpoint in service.endpoints:
                for step in endpoint.steps:
                    for call in _step_calls(step):
                        if call["service"] not in callees:
                            callees.append(call["service"])
            graph[service.name] = tuple(callees)
        return graph

    def profiles(self) -> dict[str, WorkloadProfile]:
        """Per-service memory/microarchitecture descriptors."""
        return {service.name: service.profile
                for service in self.services}

    def placement_weights(self) -> dict[str, float]:
        """Default placement hints (share of total CPU demand)."""
        return {service.name: service.demand_weight
                for service in self.services}

    def sized(self, fast: bool) -> "ApplicationSpec":
        """This spec with fast-preset sizing applied (or unchanged)."""
        if not fast:
            return self
        services = tuple(
            dataclasses.replace(service,
                                replicas=service.fast_replicas,
                                workers=service.fast_workers)
            for service in self.services)
        return dataclasses.replace(self, services=services)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict[str, t.Any]:
        """Canonical JSON-native form, deterministic key order."""
        return {
            "name": self.name,
            "description": self.description,
            "version": self.version,
            "demand_scale": self.demand_scale,
            "demand_cv": self.demand_cv,
            "services": [service.to_dict() for service in self.services],
            "sessions": [session.to_dict() for session in self.sessions],
            "default_session": self.default_session,
            "chaos_targets": {role: self.chaos_targets[role]
                              for role in CHAOS_ROLES},
            "shared_services": list(self.shared_services),
        }

    @classmethod
    def from_dict(cls, data: t.Mapping[str, t.Any]) -> "ApplicationSpec":
        """Inverse of :meth:`to_dict` (validates on construction)."""
        name = str(data.get("name", ""))
        services = tuple(
            _service_from_dict(name, entry)
            for entry in data.get("services", ()))
        sessions = tuple(
            SessionDef(
                name=str(entry["name"]),
                service=str(entry["service"]),
                start=str(entry["start"]),
                transitions={
                    state: tuple((str(target), float(weight))
                                 for target, weight in nexts)
                    for state, nexts in entry["transitions"].items()
                })
            for entry in data.get("sessions", ()))
        return cls(
            name=name,
            description=str(data.get("description", "")),
            services=services,
            sessions=sessions,
            default_session=str(data.get("default_session", "")),
            chaos_targets=dict(data.get("chaos_targets", {})),
            shared_services=tuple(data.get("shared_services", ())),
            demand_scale=float(data.get("demand_scale", 1.0)),
            demand_cv=float(data.get("demand_cv", 0.25)),
            version=int(data.get("version", SPEC_VERSION)),
        )

    def dumps(self) -> str:
        """Byte-stable JSON text (``dumps(loads(x)) == x``)."""
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def dump_file(self, path: str | pathlib.Path) -> None:
        """Write the spec as JSON."""
        pathlib.Path(path).write_text(self.dumps(), encoding="utf-8")


def _step_calls(step: t.Mapping[str, t.Any]
                ) -> tuple[t.Mapping[str, t.Any], ...]:
    """The downstream calls one step issues (empty for local steps)."""
    if step["op"] == "call":
        return (step,)
    if step["op"] == "gather":
        return tuple(step["calls"])
    return ()


def _check_payload(where: str, consumers: set[str],
                   payload: t.Any) -> None:
    """``payload`` suits every payload-consuming op in ``consumers``."""
    number = (isinstance(payload, (int, float))
              and not isinstance(payload, bool))
    if "serialized_query" in consumers:
        _require(number and payload > 0,
                 f"{where}: a serialized_query needs a positive number "
                 f"payload (its cost in seconds), got {payload!r}")
    if "cached_batch" in consumers:
        _require(payload is None or (isinstance(payload, int)
                                     and not isinstance(payload, bool)
                                     and payload >= 1),
                 f"{where}: a cached_batch payload must be absent or a "
                 f"positive int (its item count), got {payload!r}")


def _service_from_dict(app_name: str, entry: t.Mapping[str, t.Any]
                       ) -> ServiceDef:
    name = str(entry["name"])
    where = f"application {app_name!r}, service {name!r}"
    profile_data = dict(entry.get("profile", {}))
    unknown = set(profile_data) - set(_PROFILE_FIELDS)
    _require(not unknown,
             f"{where}: unknown profile fields {tuple(sorted(unknown))}")
    profile = WorkloadProfile(name=name, **profile_data)
    endpoints = [
        EndpointDef(name=str(ep_entry["name"]),
                    steps=tuple(ep_entry.get("steps", ())),
                    returns=ep_entry.get("returns", "ok"),
                    fallback=ep_entry.get("fallback"))
        for ep_entry in entry.get("endpoints", ())
    ]
    return ServiceDef(
        name=name,
        profile=profile,
        replicas=int(entry.get("replicas", 1)),
        workers=int(entry.get("workers", 8)),
        fast_replicas=int(entry.get("fast_replicas",
                                    entry.get("replicas", 1))),
        fast_workers=int(entry.get("fast_workers",
                                   entry.get("workers", 8))),
        demand_weight=float(entry.get("demand_weight", 0.0)),
        shared_lock=bool(entry.get("shared_lock", False)),
        endpoints=tuple(endpoints),
    )


def loads(text: str) -> ApplicationSpec:
    """Parse a JSON spec (inverse of :meth:`ApplicationSpec.dumps`)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed application spec: {exc}") \
            from None
    if not isinstance(data, dict):
        raise ConfigurationError(
            "application spec must be a JSON object")
    return ApplicationSpec.from_dict(data)


def load_file(path: str | pathlib.Path) -> ApplicationSpec:
    """Load and validate a JSON spec file."""
    return loads(pathlib.Path(path).read_text(encoding="utf-8"))
