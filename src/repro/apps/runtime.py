"""Interpret an :class:`ApplicationSpec` onto the services substrate.

``build_service_specs`` lowers each declarative endpoint to a flat plan
(:func:`compile_plan`) and registers a handler generator interpreting
it; the plan also rides on the handler (``handler.plan``), so the
registered :class:`~repro.services.spec.Endpoint` carries it and the
compiled worker executes it without the generator.
``deploy_application`` instantiates the replicas on a deployment and
returns an :class:`Application` handle (replica lookup, session
factories, completion counters).

The lowering is careful to reproduce the *exact* runtime behavior of the
hand-written TeaStore handlers it replaced: the same random-stream names
(``demand.<service>.<endpoint>``, ``svc.<service>.cache``,
``svc.<service>.batch.<local_id>``, ``session.<user_id>``), the same
floating-point arithmetic order (demand constants are pre-multiplied by
``demand_scale`` at compile time, batch demand is accumulated then
scaled), and the same event sequence per step.  The committed golden
digests hold this equivalence byte-for-byte.
"""

from __future__ import annotations

import typing as t

from repro._errors import ConfigurationError
from repro.apps.spec import ApplicationSpec, EndpointDef, ServiceDef
from repro.services.spec import ServiceSpec
from repro.sim.resources import Resource
from repro.workload.sessions import MarkovSessionProfile

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.services.deployment import Deployment
    from repro.services.instance import ServiceContext, ServiceInstance
    from repro.sim.rand import RandomStreams
    from repro.topology.cpuset import CpuSet

#: service → one (affinity, home_node) pair per replica.  ``home_node``
#: of ``None`` means first-touch (node of the mask's lowest CPU).
Placement = t.Mapping[str, t.Sequence[tuple["CpuSet", int | None]]]


#: Plan op codes.  Keep in sync with ``OP_*`` in ``repro/sim/_cmodel.c``.
OP_COMPUTE, OP_CALL, OP_GATHER, OP_CACHE, OP_BATCH, OP_QUERY, OP_RETURN = \
    range(7)


def compile_plan(app: ApplicationSpec, service: ServiceDef,
                 endpoint: EndpointDef) -> tuple[tuple[t.Any, ...], ...]:
    """One endpoint's steps → its flat plan: a tuple of integer-coded ops.

    Constants are pre-scaled by ``demand_scale`` here, once, exactly as
    the handlers always did (a batch's demand is accumulated per request
    and scaled then).  Op layouts (``cv`` is the app's ``demand_cv``;
    ``demand`` is the endpoint's ``demand.<service>.<endpoint>`` stream):

    - ``(OP_COMPUTE, mean, cv, demand)``
    - ``(OP_CALL, service, endpoint, payload)``
    - ``(OP_GATHER, ((service, endpoint, payload), ...))``
    - ``(OP_CACHE, hit_rate, hit_mean, miss_mean, cv, demand,
      "svc.<service>.cache")``
    - ``(OP_BATCH, default_count, miss_rate, hit_demand, miss_demand,
      scale, cv, demand, "svc.<service>.batch.")`` (the replica's
      ``local_id`` completes the stream name)
    - ``(OP_QUERY, serial_fraction, scale, cv, demand)``
    - ``(OP_RETURN, response)``, always last.
    """
    scale = app.demand_scale
    cv = app.demand_cv
    demand = f"demand.{service.name}.{endpoint.name}"
    ops: list[tuple[t.Any, ...]] = []
    for step in endpoint.steps:
        kind = step["op"]
        if kind == "compute":
            ops.append((OP_COMPUTE, step["demand"] * scale, cv, demand))
        elif kind == "call":
            ops.append((OP_CALL, step["service"], step["endpoint"],
                        step.get("payload")))
        elif kind == "gather":
            ops.append((OP_GATHER, tuple(
                (call["service"], call["endpoint"], call.get("payload"))
                for call in step["calls"])))
        elif kind == "cache":
            ops.append((OP_CACHE, step["hit_rate"],
                        step["hit_demand"] * scale,
                        step["miss_demand"] * scale, cv, demand,
                        f"svc.{service.name}.cache"))
        elif kind == "cached_batch":
            ops.append((OP_BATCH, step["default_count"],
                        1.0 - step["hit_rate"], step["hit_demand"],
                        step["miss_demand"], scale, cv, demand,
                        f"svc.{service.name}.batch."))
        else:  # serialized_query
            ops.append((OP_QUERY, step["serial_fraction"], scale, cv,
                        demand))
    ops.append((OP_RETURN, endpoint.returns))
    return tuple(ops)


def batch_demand(streams: "RandomStreams", op: tuple[t.Any, ...],
                 payload: object, local_id: int) -> float:
    """One ``OP_BATCH`` request's sampled CPU demand: ``payload or
    default_count`` lookups, misses drawn binomially on the replica's
    stream, the scaled mean then drawn lognormal."""
    count = payload or op[1]
    misses = streams.binomial(f"{op[8]}{local_id}", count, op[2])
    hits = count - misses
    mean = (hits * op[3] + misses * op[4]) * op[5]
    return streams.lognormal_mean_cv(op[7], mean, op[6])


def query_demand(streams: "RandomStreams", op: tuple[t.Any, ...],
                 payload: object) -> float:
    """One ``OP_QUERY`` request's sampled CPU demand (``payload``
    seconds, scaled, drawn lognormal)."""
    cost = payload * op[2]  # type: ignore[operator]
    return streams.lognormal_mean_cv(op[4], cost, op[3])


def _plan_handler(plan: tuple[tuple[t.Any, ...], ...]):
    """The reference interpreter of ``plan`` as a handler generator.

    The compiled worker (``repro.sim._cmodel.CWorker``) executes the
    same plan in C; both consume the kernel counter and every random
    stream identically.
    """
    def handler(ctx: "ServiceContext"):
        for op in plan:
            code = op[0]
            if code == OP_COMPUTE:
                yield ctx.compute(op[1], op[2])
            elif code == OP_CALL:
                yield ctx.call(op[1], op[2], payload=op[3])
            elif code == OP_GATHER:
                yield ctx.gather(*[
                    ctx.call(svc, ep, payload=payload)
                    for svc, ep, payload in op[1]])
            elif code == OP_CACHE:
                if ctx.uniform("cache") < op[1]:
                    yield ctx.compute(op[2], op[4])
                else:
                    yield ctx.compute(op[3], op[4])
            elif code == OP_BATCH:
                instance = ctx.instance
                yield ctx.submit_demand(batch_demand(
                    instance.deployment.streams, op, ctx.payload,
                    instance.local_id))
            elif code == OP_QUERY:
                demand = query_demand(ctx.instance.deployment.streams, op,
                                      ctx.payload)
                yield ctx.submit_demand(demand * (1.0 - op[1]))
                lock = ctx.shared["lock"]  # type: ignore[index]
                yield lock.acquire()
                try:
                    yield ctx.submit_demand(demand * op[1])
                finally:
                    lock.release()
            else:  # OP_RETURN
                return op[1]
    handler.plan = plan  # type: ignore[attr-defined]
    return handler


def _shared_lock_factory(instance: "ServiceInstance"):
    return {"lock": Resource(instance.deployment.sim, 1)}


def build_service_specs(app: ApplicationSpec) -> dict[str, ServiceSpec]:
    """All of ``app``'s service specs, one plan handler per endpoint."""
    specs: dict[str, ServiceSpec] = {}
    for service in app.services:
        spec = ServiceSpec(
            service.name, service.profile, workers=service.workers,
            shared_factory=_shared_lock_factory if service.shared_lock
            else None)
        for endpoint in service.endpoints:
            spec.add_endpoint(endpoint.name, _plan_handler(
                compile_plan(app, service, endpoint)))
            if endpoint.fallback is not None:
                spec.add_fallback(endpoint.name, endpoint.fallback)
        specs[service.name] = spec
    return specs


class Application:
    """A deployed application: replica handles and session factories."""

    def __init__(self, deployment: "Deployment", spec: ApplicationSpec,
                 instances: dict[str, list["ServiceInstance"]]):
        self.deployment = deployment
        self.spec = spec
        self.instances = instances

    def replicas(self, service: str) -> list["ServiceInstance"]:
        """All replicas of one service."""
        try:
            return self.instances[service]
        except KeyError:
            raise ConfigurationError(
                f"unknown service {service!r}; known: "
                f"{sorted(self.instances)}") from None

    def replica_counts(self) -> dict[str, int]:
        """Replica count per service."""
        return {name: len(instances)
                for name, instances in self.instances.items()}

    def session_profile(self, name: str | None = None
                        ) -> MarkovSessionProfile:
        """One of the application's Markov profiles (default profile
        when ``name`` is ``None``)."""
        session = self.spec.session(name or self.spec.default_session)
        return MarkovSessionProfile(session.transitions,
                                    start=session.start,
                                    service=session.service)

    def session_factory(self, name: str | None = None):
        """A workload session factory bound to this deployment."""
        return self.session_profile(name).session_factory(self.deployment)

    def total_completed(self) -> int:
        """Requests completed across all replicas (including internal)."""
        return sum(instance.completed
                   for instances in self.instances.values()
                   for instance in instances)

    def __repr__(self) -> str:
        counts = ", ".join(f"{name}×{len(instances)}"
                           for name, instances in sorted(self.instances.items()))
        return f"<Application[{self.spec.name}] {counts}>"


def deploy_application(deployment: "Deployment", app: ApplicationSpec,
                       placement: Placement | None = None) -> Application:
    """Instantiate every service of ``app`` on ``deployment``.

    Without ``placement``, each service gets its spec replica count,
    unpinned (machine-wide affinity).  With ``placement``, replica count
    and affinity per service come from the placement mapping.
    """
    specs = build_service_specs(app)
    instances: dict[str, list["ServiceInstance"]] = {}
    for service in app.services:
        spec = specs[service.name]
        replicas: list["ServiceInstance"] = []
        if placement is not None:
            if service.name not in placement:
                raise ConfigurationError(
                    f"placement is missing service {service.name!r}")
            for affinity, home_node in placement[service.name]:
                replicas.append(deployment.add_instance(
                    spec, affinity=affinity, home_node=home_node))
        else:
            for __ in range(service.replicas):
                replicas.append(deployment.add_instance(spec))
        instances[service.name] = replicas
    return Application(deployment, app, instances)
