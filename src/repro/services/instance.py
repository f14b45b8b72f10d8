"""Running service replicas and the handler-facing context API."""

from __future__ import annotations

import itertools
import typing as t

from repro._errors import (
    DeadlineExceededError,
    ServiceOverloadError,
    ServiceUnavailableError,
    SimulationError,
)
from repro.cpu.burst import CpuBurst, TaskGroup
from repro.services.request import Request
from repro.services.spec import ServiceSpec
from repro.sim.events import AllOf, Event
from repro.sim.resources import Store
from repro.topology.cpuset import CpuSet

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.services.deployment import Deployment
    from repro.services.resilience import CircuitBreaker

_instance_ids = itertools.count()


class ServiceInstance:
    """One replica: a request queue drained by a pool of worker processes.

    Each replica owns a :class:`TaskGroup`, so all its CPU bursts share an
    affinity mask and accounting — the simulated equivalent of running one
    pinned Tomcat container.
    """

    __slots__ = ("deployment", "spec", "instance_id", "local_id", "group",
                 "queue", "shared", "outstanding", "completed", "rejected",
                 "failed", "expired", "accepting", "breaker",
                 "demand_factor", "_pause", "_workers",
                 "_demand_samplers", "_svc_streams", "_plans")

    def __init__(self, deployment: "Deployment", spec: ServiceSpec,
                 affinity: CpuSet, home_node: int, local_id: int = 0):
        self.deployment = deployment
        self.spec = spec
        self.instance_id = next(_instance_ids)
        #: Index within this deployment (stable across runs, unlike the
        #: process-global ``instance_id``); use it — never
        #: ``instance_id`` — in random-stream names, or reruns in one
        #: process lose reproducibility.
        self.local_id = local_id
        self.group = TaskGroup(spec.name, affinity, profile=spec.profile,
                               home_node=home_node)
        self.queue = Store(deployment.sim, capacity=spec.queue_capacity)
        self.shared = (spec.shared_factory(self)
                       if spec.shared_factory else None)
        self.outstanding = 0
        self.completed = 0
        self.rejected = 0
        self.failed = 0
        #: Requests dropped because their deadline passed before a worker
        #: (or the fabric) got to them.
        self.expired = 0
        self.accepting = True
        #: Optional per-replica circuit breaker, attached by the
        #: deployment when its resilience config enables breakers.
        self.breaker: "CircuitBreaker | None" = None
        #: Fault-injection hook: every CPU demand submitted through the
        #: context is multiplied by this (a "slow replica" inflates it).
        self.demand_factor = 1.0
        #: Fault-injection hook: while set, workers stall on this event
        #: before processing any newly dequeued request.
        self._pause: Event | None = None
        #: (endpoint, mean, cv) → resolved lognormal demand sampler, and
        #: purpose → "svc.<service>.<purpose>" stream name: both depend
        #: only on the spec, so stream resolution happens once per
        #: endpoint, not once per request.
        self._demand_samplers: dict[tuple[str, float, float],
                                    t.Callable[[], float]] = {}
        self._svc_streams: dict[str, str] = {}
        #: endpoint → its plan bound to this replica, shared by the
        #: replica's compiled workers (``repro.sim._cmodel.CWorker``).
        self._plans: dict[str, object] = {}
        self._workers = [_make_worker(self) for __ in range(spec.workers)]

    @property
    def affinity(self) -> CpuSet:
        """The replica's CPU mask."""
        return self.group.affinity

    @property
    def home_node(self) -> int:
        """NUMA node holding the replica's memory."""
        return self.group.home_node

    def enqueue(self, request: Request) -> None:
        """Admit a request (called by the RPC fabric).

        A full bounded queue sheds load: the request fails with
        :class:`~repro._errors.ServiceOverloadError`, which the caller
        observes on its completion event.
        """
        request.enqueued_at = self.deployment.sim.now
        request.instance_id = self.instance_id
        if not self.accepting:
            self.rejected += 1
            request.done.fail(ServiceUnavailableError(
                f"{self.spec.name}#{self.instance_id} is shut down"))
            return
        if self.queue.try_put(request):
            self.outstanding += 1
            return
        self.rejected += 1
        request.done.fail(ServiceOverloadError(
            f"{self.spec.name}#{self.instance_id} queue full "
            f"({self.spec.queue_capacity})"))

    def shutdown(self) -> None:
        """Crash semantics: stop accepting and fail everything queued.

        Requests already inside a worker run to completion (the simulated
        process finishes its in-flight work); queued ones fail
        immediately with :class:`ServiceUnavailableError`.  Idle workers
        stay parked on the empty queue and never run again.
        """
        self.accepting = False
        for item in self.queue.drain():
            request = t.cast(Request, item)
            self.outstanding -= 1
            self.rejected += 1
            request.done.fail(ServiceUnavailableError(
                f"{self.spec.name}#{self.instance_id} crashed with "
                f"request queued"))

    def pause(self, resume: Event) -> None:
        """Stall request processing until ``resume`` triggers.

        Workers finish their in-flight handler but park on ``resume``
        before touching the next dequeued request — the simulated
        equivalent of a stop-the-world stall (GC pause, SIGSTOP, IO
        freeze).  Queued requests keep aging toward their deadlines.
        """
        self._pause = resume

    def unpause(self) -> None:
        """Clear the pause gate (call before triggering its event)."""
        self._pause = None

    # ------------------------------------------------------------------
    # Worker rare paths, shared by the Python and compiled machines
    # ------------------------------------------------------------------
    def _expire_request(self, request: Request) -> None:
        """Dequeued past its deadline: the caller already gave up."""
        self.expired += 1
        self.outstanding -= 1
        self.deployment.rpc.respond_failure(
            request.done, DeadlineExceededError(
                f"{self.spec.name}#{self.instance_id} dequeued "
                f"request past its deadline "
                f"(t={request.deadline:.6f})"))

    def _fail_request(self, request: Request, exc: Exception) -> None:
        """Handler bug or modelled failure: propagate to the caller."""
        self.failed += 1
        self.outstanding -= 1
        self.deployment.rpc.respond_failure(request.done, exc)

    def __repr__(self) -> str:
        return (f"<ServiceInstance {self.spec.name}#{self.instance_id} "
                f"affinity={self.affinity.to_string()!r} "
                f"outstanding={self.outstanding}>")


class ServiceContext:
    """What a handler sees: CPU, downstream calls, randomness, shared state.

    Handlers are generator functions; every method returning an event is
    meant to be ``yield``-ed.
    """

    __slots__ = ("instance", "request")

    def __init__(self, instance: ServiceInstance, request: Request):
        self.instance = instance
        self.request = request

    @property
    def sim(self):
        """The simulator (for raw timeouts in advanced handlers)."""
        return self.instance.deployment.sim

    @property
    def shared(self) -> object:
        """Per-instance shared state built by the spec's factory."""
        return self.instance.shared

    @property
    def payload(self) -> object:
        """The request's payload."""
        return self.request.payload

    # ------------------------------------------------------------------
    # CPU work
    # ------------------------------------------------------------------
    def compute(self, mean_demand: float, cv: float = 0.25) -> Event:
        """Execute CPU work; yields until the burst completes.

        ``mean_demand`` is seconds of CPU at nominal speed; the actual
        demand is drawn from a lognormal with coefficient of variation
        ``cv`` on this service/endpoint's named stream.
        """
        instance = self.instance
        key = (self.request.endpoint, mean_demand, cv)
        sampler = instance._demand_samplers.get(key)
        if sampler is None:
            stream = f"demand.{instance.spec.name}.{key[0]}"
            sampler = instance._demand_samplers[key] = (
                instance.deployment.streams.lognormal_sampler(
                    stream, mean_demand, cv))
        return self.submit_demand(sampler())

    def submit_demand(self, demand: float) -> Event:
        """Execute an exact CPU demand (no sampling).

        The replica's ``demand_factor`` scales the demand — 1.0 in
        healthy operation, >1 while a slow-replica fault is active.
        """
        instance = self.instance
        scheduler = instance.deployment.scheduler
        core = getattr(scheduler, "_core", None)
        if core is not None:
            # Compiled model layer: the core scales the demand, builds
            # the burst and its event, and submits in one C call.
            return core.submit_demand(instance, demand)
        burst = CpuBurst(demand * instance.demand_factor,
                         instance.group, Event(scheduler.sim))
        scheduler.submit(burst)
        return burst.done

    @property
    def group(self) -> TaskGroup:
        """The replica's scheduling group."""
        return self.instance.group

    # ------------------------------------------------------------------
    # Downstream calls
    # ------------------------------------------------------------------
    def call(self, service_name: str, endpoint: str,
             payload: object = None) -> Event:
        """RPC to another service; yields until the response arrives."""
        return self.instance.deployment.dispatch(
            service_name, endpoint, payload=payload, parent=self.request)

    def gather(self, *events: Event) -> Event:
        """Wait for several events (e.g. parallel downstream calls)."""
        return AllOf(self.sim, events)

    # ------------------------------------------------------------------
    # Randomness (per-service named streams, reproducible)
    # ------------------------------------------------------------------
    def uniform(self, purpose: str, low: float = 0.0,
                high: float = 1.0) -> float:
        """A uniform draw on this service's ``purpose`` stream."""
        instance = self.instance
        stream = instance._svc_streams.get(purpose)
        if stream is None:
            stream = instance._svc_streams[purpose] = (
                f"svc.{instance.spec.name}.{purpose}")
        return instance.deployment.streams.uniform(stream, low, high)

    def integers(self, purpose: str, low: int, high: int) -> int:
        """An integer draw in ``[low, high)``."""
        stream = f"svc.{self.instance.spec.name}.{purpose}"
        return self.instance.deployment.streams.integers(stream, low, high)


# Worker machine states.
_BOOT, _GET, _PAUSE, _RUN = range(4)


class _WorkerMachine:
    """One replica worker as an explicit event-callback state machine.

    Semantically identical to the generator worker loop it replaced
    (kept below in spirit by the state names: dequeue → pause gate →
    deadline check → drive the endpoint handler → respond), but with no
    coroutine frame of its own: the machine registers *itself* as the
    callback on whatever event it waits for, so a request costs zero
    ``Process`` machinery — no generator frame, no per-wait bound
    method, no throw/send trampoline above the handler itself.

    The endpoint handler is still a generator (handlers are user code);
    the machine drives it directly with ``send``/``throw`` and chains
    through already-processed events inline, exactly as
    :meth:`Process._advance` would.  Counter consumption — the
    determinism contract with the kernel's shared insertion counter —
    is identical to the generator version on every path, including the
    bootstrap event, so golden digests are byte-for-byte unchanged.

    The compiled model layer (``repro.sim._cmodel.CWorker``) implements
    this exact machine in C; this class is the reference semantics.
    """

    __slots__ = ("instance", "sim", "rpc", "resolve", "queue_get",
                 "state", "request", "handler")

    def __init__(self, instance: ServiceInstance):
        deployment = instance.deployment
        self.instance = instance
        self.sim = deployment.sim
        self.rpc = deployment.rpc
        self.resolve = instance.spec.resolve
        self.queue_get = instance.queue.get
        self.state = _BOOT
        self.request: Request | None = None
        self.handler: t.Generator | None = None
        # Same bootstrap pattern (and counter consumption) as Process:
        # first run on the next processing slot, so construction order
        # within a time step does not matter.
        bootstrap = Event(self.sim)
        bootstrap.callbacks.append(self)  # type: ignore[union-attr]
        bootstrap.succeed()

    def __call__(self, event: Event) -> None:
        state = self.state
        if state == _RUN:
            if event._ok:
                self._drive(event._value, False)
            else:
                event._defused = True
                self._drive(event._value, True)
            return
        if not event._ok:
            # A failed queue-get / pause / bootstrap wake has no handler
            # frame to throw into; mirror the generator worker (whose
            # uncaught throw failed its Process): defuse, then escalate
            # through an unclaimed event on the next processing slot.
            event._defused = True
            Event(self.sim).fail(t.cast(Exception, event._value))
            return
        if state == _GET:
            request = t.cast(Request, event._value)
        elif state == _PAUSE:
            request = t.cast(Request, self.request)
            self.request = None
        else:  # _BOOT
            self._next_get()
            return
        self._begin(request)

    def _begin(self, request: Request) -> None:
        instance = self.instance
        sim = self.sim
        while True:
            # Loop, not branch: overlapping pause windows re-arm the
            # gate with the longer window's event before waking us.
            pause = instance._pause
            if pause is None:
                break
            if pause.callbacks is None:
                # Already processed: a failed gate escalates (as the
                # generator worker's uncaught throw did); a succeeded
                # one re-checks the gate.
                if not pause._ok:
                    pause._defused = True
                    Event(sim).fail(t.cast(Exception, pause._value))
                    return
                continue
            self.request = request
            self.state = _PAUSE
            pause.callbacks.append(self)
            return
        request.started_at = sim.now
        if request.deadline is not None and sim.now >= request.deadline:
            # The caller already gave up; don't burn CPU on it.
            instance._expire_request(request)
            self._next_get()
            return
        context = ServiceContext(instance, request)
        try:
            handler = self.resolve(request.endpoint).handler(context)
        except Exception as exc:  # unknown endpoint
            instance._fail_request(request, exc)
            self._next_get()
            return
        self.request = request
        self.handler = handler
        self.state = _RUN
        self._drive(None, False)

    def _drive(self, value: object, failed: bool) -> None:
        handler = t.cast(t.Generator, self.handler)
        send = handler.send
        throw = handler.throw
        sim = self.sim
        while True:
            try:
                if failed:
                    target = throw(t.cast(BaseException, value))
                else:
                    target = send(value)
            except StopIteration as stop:
                self._finish(stop.value)
                return
            except Exception as exc:  # handler bug or modelled failure
                request = t.cast(Request, self.request)
                self.handler = None
                self.request = None
                self.instance._fail_request(request, exc)
                self._next_get()
                return
            except BaseException as exc:
                self.handler = None
                self.request = None
                # As for a failed wake: escalate on the next slot.
                Event(sim).fail(t.cast(Exception, exc))
                return
            if isinstance(target, Event):
                if target.sim is not sim:
                    self._protocol_error(
                        "yielded event belongs to another simulator")
                    return
                callbacks = target.callbacks
                if callbacks is None:
                    # Already processed: resume inline.
                    if target._ok:
                        value = target._value
                        failed = False
                    else:
                        target._defused = True
                        value = target._value
                        failed = True
                    continue
                callbacks.append(self)
                return
            self._protocol_error(
                f"process yielded a non-event: {target!r}")
            return

    def _finish(self, response: object) -> None:
        instance = self.instance
        request = t.cast(Request, self.request)
        self.handler = None
        self.request = None
        request.completed_at = self.sim.now
        instance.completed += 1
        instance.outstanding -= 1
        deployment = instance.deployment
        if deployment.tracer is not None:
            deployment.tracer.record(request)
        self.rpc.respond(request.done, response)
        self._next_get()

    def _next_get(self) -> None:
        self.state = _GET
        event = self.queue_get()
        # Fresh store-get events are never pre-processed: attach direct.
        event.callbacks.append(self)  # type: ignore[union-attr]

    def _protocol_error(self, message: str) -> None:
        instance = self.instance
        request = t.cast(Request, self.request)
        handler = t.cast(t.Generator, self.handler)
        self.handler = None
        self.request = None
        _worker_protocol_error(instance, handler, request, message)


def _worker_protocol_error(instance: ServiceInstance, handler: t.Generator,
                           request: Request, message: str) -> None:
    """Yield-protocol violation: throw in, then park the worker forever.

    Mirrors :meth:`Process._advance`'s yield-protocol branch byte for
    byte: the error is thrown into the handler, the next yield is
    discarded, and the worker parks permanently — but whatever the
    unwinding handler triggers on the way (the worker generator's
    completion or failure bookkeeping, plus the discarded queue-get's
    side effects) still lands, exactly as the generator worker behaved.
    Shared by the Python machine and the compiled ``CWorker`` (this is
    an unreachable-in-practice path, so it stays in Python).
    """
    deployment = instance.deployment
    error = SimulationError(message)
    try:
        handler.throw(error)
    except StopIteration as stop:
        request.completed_at = deployment.sim.now
        instance.completed += 1
        instance.outstanding -= 1
        if deployment.tracer is not None:
            deployment.tracer.record(request)
        deployment.rpc.respond(request.done, stop.value)
        instance.queue.get()  # discarded by the old worker's park, too
    except Exception as exc:
        instance._fail_request(request, exc)
        instance.queue.get()
    # Any other yield: parked with the handler suspended
    # (BaseException propagates, as from Process._advance).


def _make_worker(instance: ServiceInstance) -> object:
    """One worker for ``instance``: compiled when the model layer is.

    The deployment resolves the model backend once (same selection as
    the kernel backend); each worker is then either a C ``CWorker`` or
    the reference :class:`_WorkerMachine` — never a mix.
    """
    if getattr(instance.deployment, "compiled_model", False):
        from repro.sim.kernel import model_module
        return model_module().CWorker(instance)
    return _WorkerMachine(instance)
