"""Per-layer tracing for the benchmark's traced run.

:func:`install` wraps the public entry points of each ``repro`` layer
with timing spans.  It is called once, at start-up, before anything is
built: compiled code calls some Python through references captured at
build time (endpoint handlers stored in each ``ServiceSpec``, the bound
``rpc.respond`` each worker keeps), so those must already be wrapped
when the deployment is constructed.

Spans are kept in memory as columns (name, start, end, parent) and
written out when the run ends.  A span's self time is its duration
minus the time its child spans cover; :class:`SpanRecorder` accumulates
self time and call counts per layer as spans close.

Wrapping adds host time only: it schedules no simulated event and draws
no random number, so the traced run reproduces the untraced digest.
"""

from __future__ import annotations

import array
import functools
import json
import time
import typing as t


class SpanRecorder:
    """In-memory span columns plus running per-layer self time."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        #: Open spans (indices) and the time their children covered.
        self._stack: list[int] = []
        self._child: list[float] = []
        self.self_time: list[float] = []
        self.calls: list[int] = []

    def code(self, name: str) -> int:
        """The integer code of layer ``name`` (allocated on first use)."""
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
            self.self_time.append(0.0)
            self.calls.append(0)
        return code

    def enter(self, code: int) -> int:
        """Open a span of layer ``code``; returns its index."""
        index = len(self.start)
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        self.name.append(code)
        stack.append(index)
        self._child.append(0.0)
        self.end.append(0.0)
        self.start.append(time.monotonic())
        return index

    def exit(self, index: int) -> None:
        """Close span ``index`` (always the innermost open span)."""
        now = time.monotonic()
        self.end[index] = now
        self._stack.pop()
        duration = now - self.start[index]
        code = self.name[index]
        self.self_time[code] += duration - self._child.pop()
        self.calls[code] += 1
        if self._child:
            self._child[-1] += duration

    def function(self, fn: t.Callable, name: str) -> t.Callable:
        """``fn`` wrapped so that each call is one span."""
        code = self.code(name)
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = enter(code)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(index)
        return wrapper

    def generator(self, fn: t.Callable, name: str) -> t.Callable:
        """Generator function ``fn`` wrapped so that each resumption of
        the generator it returns is one span.

        Values sent in, exceptions thrown in, and the return value pass
        through unchanged, so the driving code (a ``Process`` or a C
        worker) sees exactly the generator protocol it saw before.
        """
        code = self.code(name)
        enter, exit_ = self.enter, self.exit

        def drive(gen: t.Generator) -> t.Generator:
            value: object = None
            error: BaseException | None = None
            while True:
                index = enter(code)
                try:
                    if error is None:
                        target = gen.send(value)
                    else:
                        target = gen.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    exit_(index)
                error = None
                try:
                    value = yield target
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:
                    value, error = None, exc

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return drive(fn(*args, **kwargs))
        return wrapper

    def iterator(self, it: t.Iterator, name: str) -> t.Iterator:
        """``it`` wrapped so that each ``next`` is one span."""
        code = self.code(name)
        enter, exit_ = self.enter, self.exit

        def steps():
            while True:
                index = enter(code)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    exit_(index)
                yield item
        return steps()

    def layers(self) -> dict[str, dict[str, float]]:
        """Self time (s) and span count per layer."""
        return {name: {"self_s": self.self_time[code],
                       "calls": self.calls[code]}
                for code, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Write every span as columns (``.npz``) for offline analysis."""
        import numpy as np
        np.savez(path, names=np.array(json.dumps(self.names)),
                 name=np.frombuffer(self.name, dtype=np.uint16),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int64))


def install(recorder: SpanRecorder) -> t.Callable[[], None]:
    """Wrap every layer's public entry points with ``recorder`` spans.

    Call before any deployment, application or workload is built.
    Returns a function that puts the original entry points back.
    """
    from repro.apps import runtime as apps_runtime
    from repro.apps import teastore_app as teastore_app_module
    from repro.apps.spec import ApplicationSpec
    from repro.cpu.scheduler import CpuScheduler
    from repro.memory.system import MemorySystemModel
    from repro.metrics.latency import LatencyRecorder
    from repro.metrics.throughput import ThroughputMeter
    from repro.metrics.utilization import UtilizationProbe
    from repro.services.deployment import Deployment
    from repro.services.instance import ServiceContext
    from repro.services.loadbalancer import LoadBalancer
    from repro.services.registry import ServiceRegistry
    from repro.services.rpc import RpcFabric
    from repro.services.spec import ServiceSpec
    from repro.teastore import store as teastore_store
    from repro.tracing.collector import TraceCollector
    from repro.workload.cohorts import CohortWorkload

    fn, gen = recorder.function, recorder.generator
    originals: list[tuple[object, str, t.Any]] = []

    def _patch(owner: object, attr: str,
               wrap: t.Callable[[t.Callable], t.Any]) -> None:
        original = getattr(owner, attr)
        originals.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def spans(name):
        return lambda f: fn(f, name)

    # Set-up.
    for module in (teastore_app_module, teastore_store):
        _patch(module, "teastore_app", spans("setup.spec"))
    _patch(ApplicationSpec, "__post_init__", spans("setup.spec"))
    _patch(apps_runtime, "build_service_specs", spans("setup.spec"))
    _patch(Deployment, "__init__", spans("setup.deploy"))
    _patch(Deployment, "add_instance", spans("setup.deploy"))

    def trace_sessions(init):
        def workload_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            sessions = self.session_factory
            self.session_factory = (lambda user: recorder.iterator(
                sessions(user), "workload.session"))
        return fn(workload_init, "setup.workload")
    _patch(CohortWorkload, "__init__", trace_sessions)

    # Workload generators.
    _patch(CohortWorkload, "_user", lambda f: gen(f, "workload.user"))

    # Services: dispatch (plain and resilient), fabric, routing.
    _patch(Deployment, "dispatch", spans("services.dispatch"))
    _patch(Deployment, "_resilient_call",
           lambda f: gen(f, "services.dispatch"))
    for attr in ("deliver", "respond", "respond_failure"):
        _patch(RpcFabric, attr, spans("services.deliver"))
    _patch(ServiceRegistry, "lookup", spans("services.lookup"))
    _patch(LoadBalancer, "pick", spans("services.lookup"))

    # Applications: handler generators (wrapped as they are registered)
    # and the ServiceContext calls they make.
    def trace_handlers(add):
        def add_endpoint(self, name, handler):
            add(self, name, gen(handler, "apps.handler"))
        return add_endpoint
    _patch(ServiceSpec, "add_endpoint", trace_handlers)
    for attr in ("compute", "call", "gather", "submit_demand"):
        _patch(ServiceContext, attr, spans("apps.ctx"))

    # Reference CPU scheduler and memory hooks (python backend only).
    _patch(CpuScheduler, "submit", spans("cpu.submit"))
    _patch(MemorySystemModel, "cpi_inflation", spans("memory.cpi"))
    for attr in ("on_burst_start", "on_burst_complete"):
        _patch(MemorySystemModel, attr, spans("memory.hooks"))

    # Metrics plane: per-sample recording, then the window summary.
    _patch(LatencyRecorder, "record", spans("metrics.record"))
    _patch(ThroughputMeter, "mark", spans("metrics.record"))
    for attr in ("mean", "percentile"):
        _patch(LatencyRecorder, attr, spans("metrics.summarize"))
    _patch(ThroughputMeter, "rate", spans("metrics.summarize"))
    for attr in ("machine_utilization", "group_utilization", "group_share"):
        _patch(UtilizationProbe, attr, spans("metrics.summarize"))

    # Request tracing (only the chaos workload attaches a collector).
    _patch(TraceCollector, "record", spans("tracing.record"))

    def restore() -> None:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
    return restore
