"""Differential tests of the endpoint-plan interpreter.

Every endpoint of every bundled application is driven directly, on the
pure-Python reference (``runtime._plan_handler`` driven by
``_WorkerMachine``) and on the compiled worker (``CWorker`` executing
the plan in C), under a set of fault and policy variations.  Both must
leave identical fingerprints: each request's outcome and completion
time, the kernel's insertion counter, fabric/registry/replica counters,
scheduler bursts, resilience counters, and recorded spans.
"""

import re

import pytest

from repro.apps import APP_NAMES, deploy_application, get_app
from repro.apps.runtime import OP_RETURN, compile_plan
from repro.memory.profile import WorkloadProfile
from repro.services import instance as instance_module
from repro.services import request as request_module
from repro.services.deployment import Deployment
from repro.services.loadbalancer import LoadBalancer
from repro.services.resilience import ResilienceConfig
from repro.services.rpc import RpcFabric
from repro.services.spec import ServiceSpec
from repro.sim import kernel
from repro.topology.presets import tiny_machine
from repro.tracing import TraceCollector
from repro.workload.faults import FaultInjector

pytestmark = pytest.mark.skipif(
    not kernel.model_available(),
    reason="repro.sim._cmodel not built; run "
           "'python setup.py build_ext --inplace'")

#: How long each driven run lasts (simulated seconds): every request of
#: the plain runs completes well inside it on the tiny machine.
HORIZON = 4.0


class CountingFabric(RpcFabric):
    """A fabric subclass: the compiled worker must route through it."""

    def __init__(self, sim):
        super().__init__(sim)
        self.delivered = 0

    def deliver(self, request, instance):
        self.delivered += 1
        super().deliver(request, instance)


def _payload(endpoint, round_):
    """A payload every op of ``endpoint`` can use."""
    ops = {step["op"] for step in endpoint.steps}
    if "serialized_query" in ops:
        return 0.0005 * (1 + round_) if round_ % 2 else 1
    if "cached_batch" in ops:
        return (None, 3, 1)[round_ % 3]
    return None


def _variation(name, app, deployment, injector):
    """Arm one named fault/policy variation on a built deployment."""
    storage = app.chaos_targets["storage"]
    orchestrator = app.chaos_targets["orchestrator"]
    if name == "kill-callee":
        # The storage tier's only replica dies with calls in flight and
        # queued: queued requests fail, later calls find no replica.
        injector.kill_at(0.004, storage)
    elif name == "gather-fail":
        gathered = sorted({call["service"]
                           for service in app.services
                           for endpoint in service.endpoints
                           for step in endpoint.steps
                           if step["op"] == "gather"
                           for call in step["calls"]})
        injector.kill_at(0.003, gathered[0])
    elif name == "pause":
        injector.pause_at(0.002, storage, duration=0.01)
        injector.pause_at(0.006, orchestrator, duration=0.004)
    elif name == "slow":
        injector.slow_at(0.001, storage, factor=5.0, duration=0.004)
        injector.slow_at(0.003, orchestrator, factor=3.0, duration=0.02)
    elif name == "netdelay":
        injector.netdelay_at(0.002, factor=6.0, duration=0.005)
        injector.netdelay_at(0.004, factor=0.5, duration=0.02)
    elif name == "traced":
        deployment.tracer = TraceCollector()
    elif name == "fabric-swap":
        # Later calls go through a new fabric (a subclass); responses
        # keep the one each worker was built with, as in the reference.
        deployment.sim.call_at(0.002, lambda: setattr(
            deployment, "rpc", CountingFabric(deployment.sim)))
    elif name == "zero-hop":
        # Deliveries and responses complete without a fabric hop.
        deployment.rpc.hop_latency = 0.0
    elif name == "bounded-queue":
        # The storage tier stalls, its workers fill up, and whatever
        # then finds its one-slot queue full is shed.
        for replica in deployment.registry.instances_of(storage):
            replica.queue.capacity = 1
        injector.pause_at(0.0005, storage, duration=0.05)


def _build(app_name, variation):
    app = get_app(app_name, fast=True)
    kwargs = {}
    if variation == "least-outstanding":
        kwargs["lb_policy"] = "least_outstanding"
    elif variation == "resilient":
        kwargs["resilience"] = ResilienceConfig(
            timeout=0.02, retries=2, breaker_enabled=True,
            breaker_failure_threshold=3, degradation=True)
    deployment = Deployment(tiny_machine(), seed=3, **kwargs)
    if variation == "subclassed-fabric":
        deployment.rpc = CountingFabric(deployment.sim)
    deploy_application(deployment, app)
    return app, deployment


def _drive(app_name, backend, variation):
    """Run every endpoint a few times; returns (fingerprint, deployment)."""
    # Request and replica ids are process-wide counters: spans compare
    # relative to the first id each run allocates.
    first_request = next(request_module._request_ids) + 1
    first_instance = next(instance_module._instance_ids) + 1
    with kernel.use_backend(backend):
        app, deployment = _build(app_name, variation)
        assert deployment.compiled_model == (backend == "compiled")
        injector = FaultInjector(deployment)
        _variation(variation, app, deployment, injector)
        sim = deployment.sim
        outcomes = []

        def observe(tag):
            def callback(event):
                if event.ok:
                    value = repr(event.value)
                else:
                    event.defuse()
                    # Messages name replicas by process-wide id.
                    message = re.sub(
                        r"#(\d+)",
                        lambda m: f"#{int(m[1]) - first_instance}",
                        str(event.value))
                    value = f"{type(event.value).__name__}: {message}"
                outcomes.append((tag, sim.now, value))
            return callback

        def send(service, endpoint, payload, tag):
            def fire():
                try:
                    done = deployment.dispatch(service, endpoint,
                                               payload=payload,
                                               protected=False)
                except Exception as exc:  # e.g. every replica killed
                    outcomes.append((tag, sim.now, f"refused: {exc}"))
                    return
                done.add_callback(observe(tag))
            return fire

        sent = 0
        for round_ in range(3):
            for service in app.services:
                for endpoint in service.endpoints:
                    tag = (round_, service.name, endpoint.name)
                    sim.call_at(0.0001 * sent,
                                send(service.name, endpoint.name,
                                     _payload(endpoint, round_), tag))
                    sent += 1
        deployment.run(until=HORIZON)
    replicas = [(i.spec.name, i.local_id, i.completed, i.rejected,
                 i.failed, i.expired, i.outstanding)
                for i in deployment.instances]
    stats = deployment.resilience_stats
    fingerprint = {
        "outcomes": sorted(outcomes, key=repr),
        "order": [tag for tag, __, __ in outcomes],
        "events": sim._kernel.counter,
        "messages": deployment.rpc.messages_sent,
        "lookups": deployment.registry.lookups,
        "replicas": replicas,
        "bursts": deployment.scheduler.bursts_dispatched,
        "steals": deployment.scheduler.bursts_stolen,
        "resilience": (stats.calls, stats.attempts, stats.retries,
                       stats.timeouts, stats.failures, stats.errors,
                       stats.degraded, stats.breaker_rejected),
        "faults": [(e.time, e.kind, e.service) for e in injector.events],
    }
    if deployment.tracer is not None:
        spans = deployment.tracer.table.to_payload()

        def relative(ids, first):
            return [value - first if value >= 0 else value
                    for value in ids]
        spans["request_id"] = relative(spans["request_id"], first_request)
        spans["parent_id"] = relative(spans["parent_id"], first_request)
        spans["instance_id"] = relative(spans["instance_id"],
                                        first_instance)
        fingerprint["spans"] = spans
    return fingerprint, deployment


VARIATIONS = ("plain", "kill-callee", "gather-fail", "pause", "slow",
              "netdelay", "zero-hop", "bounded-queue", "least-outstanding",
              "resilient", "subclassed-fabric", "fabric-swap", "traced")


@pytest.mark.parametrize("variation", VARIATIONS)
@pytest.mark.parametrize("app_name", APP_NAMES)
def test_plan_interpreter_matches_the_reference(app_name, variation):
    reference, __ = _drive(app_name, "python", variation)
    compiled, __ = _drive(app_name, "compiled", variation)
    assert compiled == reference
    assert reference["outcomes"], "no request completed"


@pytest.mark.parametrize("app_name", APP_NAMES)
def test_every_endpoint_completes_on_the_plain_fabric(app_name):
    fingerprint, __ = _drive(app_name, "compiled", "plain")
    app = get_app(app_name)
    sent = 3 * sum(len(service.endpoints) for service in app.services)
    assert len(fingerprint["outcomes"]) == sent
    assert all(not value.startswith(("ConfigurationError", "TypeError",
                                     "ValueError"))
               for __, __, value in fingerprint["outcomes"])


def _count_calls(monkeypatch, owner, attr):
    calls = [0]
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, attr, counted)
    return calls


def test_compiled_plans_build_no_context_and_no_python_dispatch(monkeypatch):
    contexts = _count_calls(monkeypatch, instance_module.ServiceContext,
                            "__init__")
    dispatches = _count_calls(monkeypatch, Deployment, "dispatch")
    picks = _count_calls(monkeypatch, LoadBalancer, "pick")
    fingerprint, __ = _drive("teastore", "compiled", "plain")
    sent = len(fingerprint["outcomes"])
    assert contexts[0] == 0
    # Only the client requests sent by _drive go through Python.
    assert dispatches[0] == sent
    assert picks[0] == sent
    assert fingerprint["lookups"] > sent


@pytest.mark.parametrize("variation", ("least-outstanding", "resilient"))
def test_policies_the_c_fabric_does_not_model_fall_back(monkeypatch,
                                                        variation):
    picks = _count_calls(monkeypatch, LoadBalancer, "pick")
    dispatches = _count_calls(monkeypatch, Deployment, "dispatch")
    fingerprint, __ = _drive("teastore", "compiled", variation)
    if variation == "resilient":
        # Every internal call goes through Deployment.dispatch.
        assert dispatches[0] > len(fingerprint["outcomes"])
    # Every lookup reaches the reference pick.
    assert picks[0] == fingerprint["lookups"]


def test_subclassed_fabric_sees_every_delivery():
    fingerprint, deployment = _drive("teastore", "compiled",
                                     "subclassed-fabric")
    assert deployment.rpc.delivered == fingerprint["lookups"]


def test_plans_end_with_the_declared_response():
    app = get_app("teastore")
    for service in app.services:
        for endpoint in service.endpoints:
            plan = compile_plan(app, service, endpoint)
            assert plan[-1] == (OP_RETURN, endpoint.returns)
            assert len(plan) == len(endpoint.steps) + 1


def _generator_spec_run(backend):
    """One service whose handler carries a plan the compiled worker does
    not recognise: the worker must drive the generator instead."""
    def handler(ctx):
        yield ctx.compute(0.001)
        return "driven"
    handler.plan = (("not", "a", "plan"),)
    profile = WorkloadProfile(name="svc", code_bytes=1 << 20,
                              data_bytes=1 << 20, mem_intensity=0.3,
                              frontend_intensity=0.3)
    spec = ServiceSpec("svc", profile, workers=2)
    spec.add_endpoint("op", handler)
    assert spec.resolve("op").plan == handler.plan
    with kernel.use_backend(backend):
        deployment = Deployment(tiny_machine(), seed=1)
        deployment.add_instance(spec)
        done = deployment.dispatch("svc", "op", protected=False)
        deployment.run(until=1.0)
    return done.value, deployment.sim._kernel.counter


def test_unrecognised_plan_layout_drives_the_handler():
    assert _generator_spec_run("compiled") == _generator_spec_run("python")
    assert _generator_spec_run("compiled")[0] == "driven"
