"""Pluggable event-loop kernels: the heap / ready-deque / dispatch core.

The simulator's event-loop core — the time-ordered heap, the zero-delay
ready deque, the shared insertion counter, tombstone accounting for
cancelled handles, and the dispatch loop itself — lives behind the
narrow :class:`EventKernel` interface defined here.  Two backends are
registered:

* ``python`` — the pure-Python reference implementation
  (:class:`PythonKernel`).  Always available; the semantics oracle.
* ``compiled`` — a hand-written CPython extension
  (:mod:`repro.sim._ckernel`) that keeps the heap and ready queue as raw
  C arrays and runs the dispatch loop in C, with inline fast paths for
  the two dominant callback families (process resume, timeout fire).
  Optional: built with ``python setup.py build_ext --inplace``; when the
  module is absent the kernel silently falls back to ``python``.

Both backends are **bit-identical in behavior**: entries process in
exactly the same order (FIFO at equal times via the shared counter), the
same exceptions escalate from the same places, and the golden-digest
suite pins their equivalence byte for byte.

Batched dispatch
----------------

The dispatch loop drains *batches* instead of re-deciding the world per
event, under rules that provably cannot reorder observable effects:

* **Same-timestamp heap runs.**  Once the clock advances to ``t``,
  consecutive heap entries at exactly ``t`` execute without re-checking
  ``until`` or re-writing the clock — the pop order (time, counter) is
  unchanged, only the per-event loop bookkeeping is batched away.
* **Ready chains.**  Triggered events drain in counter order; a heap
  entry at the current time interleaves exactly where its counter slots
  it.  The per-event decision is one comparison against the heap top.
* **Callback-family fast paths** (compiled backend).  A callback that
  is a process resume or a timeout fire is executed inline in C — the
  same slot reads and generator ``send``/``throw`` the Python code
  performs, without the interpreter frames.  Any other callable takes
  the generic call path, so the family detection is a pure fast path.

What may *not* batch: entries at different timestamps (the clock write
between them is observable), and anything that would skip the
ready-versus-heap counter comparison (zero-delay triggers during a
callback must interleave exactly as the shared counter dictates).

Backend selection
-----------------

``REPRO_KERNEL`` (environment) or ``repro --kernel`` (CLI) choose the
backend: ``auto`` (default — compiled when built, else python),
``python``, or ``compiled`` (hard requirement; raises when the module
is missing).  :func:`active_backend` reports what a new
:class:`~repro.sim.engine.Simulator` would use — perf artifacts are
tagged with it so trajectories from different backends are never
compared blindly.
"""

from __future__ import annotations

import collections
import functools
import heapq
import importlib
import os
import typing as t

from repro._errors import ConfigurationError, SimulationError

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator
    from repro.sim.events import Event

#: Environment variable naming the kernel backend.
KERNEL_ENV = "REPRO_KERNEL"

#: Tombstone-compaction floor: below this many cancelled entries the heap
#: is left alone (re-heapifying a small heap costs more than carrying the
#: tombstones to their natural pops).
_COMPACT_MIN_TOMBSTONES = 64

#: Session-level backend override (set by :func:`set_default_backend`);
#: ``None`` defers to the environment.
_default_backend: str | None = None


def _noop() -> None:
    return None


class Handle:
    """A cancellable handle for a scheduled callback.

    Returned by :meth:`Simulator.call_at` / :meth:`Simulator.call_in`.
    Cancellation is O(1): the heap entry is tombstoned and skipped when
    popped (the kernel compacts the heap when tombstones dominate).

    The compiled backend returns its own handle type with the same
    ``time`` / ``callback`` / ``cancelled`` / ``cancel()`` surface.
    """

    __slots__ = ("time", "callback", "cancelled", "_kernel", "_queued")

    def __init__(self, time: float, callback: t.Callable[[], None],
                 kernel: "PythonKernel | None" = None):
        self.time = time
        self.callback = callback
        self.cancelled = False
        self._kernel = kernel
        self._queued = kernel is not None

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            self.callback = _noop
            if self._queued and self._kernel is not None:
                self._kernel.note_cancel()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else f"at t={self.time:.6f}"
        return f"<Handle {state}>"


class PythonKernel:
    """The pure-Python reference kernel.

    Owns the time heap (``(time, counter, handle)`` tuples via
    :mod:`heapq`), the zero-delay ready deque, the insertion counter
    shared between them (FIFO interleaving at equal times), and the
    tombstone count for cancelled handles.
    """

    backend = "python"

    __slots__ = ("heap", "ready", "counter", "tombstones")

    def __init__(self) -> None:
        self.heap: list[tuple[float, int, Handle]] = []
        #: Triggered events awaiting processing at the current time, in
        #: insertion order; each carries its counter stamp in
        #: ``_qcounter``.
        self.ready: collections.deque["Event"] = collections.deque()
        self.counter = 0
        #: Cancelled entries still sitting in the heap.
        self.tombstones = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, time: float,
                 callback: t.Callable[[], None]) -> Handle:
        """Push ``callback`` onto the heap at absolute ``time``."""
        handle = Handle(time, callback, self)
        self.counter += 1
        heapq.heappush(self.heap, (time, self.counter, handle))
        return handle

    def schedule2(self, time: float, func: t.Callable[..., None],
                  a: t.Any, b: t.Any) -> Handle:
        """``schedule(time, partial(func, a, b))``, as one entry point.

        The reference backend builds the partial; the compiled backend
        stores the operands in the handle and skips the closure
        allocation.  Counter and ordering semantics are identical to
        :meth:`schedule`.
        """
        return self.schedule(time, functools.partial(func, a, b))

    def push_ready(self, event: "Event") -> None:
        """Queue a triggered event for zero-delay processing."""
        self.counter = event._qcounter = self.counter + 1
        self.ready.append(event)

    def note_cancel(self) -> None:
        """Account one newly tombstoned heap entry; compact when the
        tombstones outnumber the live entries."""
        self.tombstones += 1
        if (self.tombstones > _COMPACT_MIN_TOMBSTONES
                and self.tombstones * 2 > len(self.heap)):
            # Rebuilding via heapify preserves pop order exactly: entries
            # compare by the total (time, counter) order regardless of
            # their internal arrangement.  In-place (slice assignment)
            # so the run loop's local binding of the heap stays valid.
            self.heap[:] = [entry for entry in self.heap
                            if not entry[2].cancelled]
            heapq.heapify(self.heap)
            self.tombstones = 0

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _drop_tombstones(self) -> None:
        heap = self.heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)[2]._queued = False
            self.tombstones -= 1

    def next_time(self, now: float) -> float:
        """Time of the next entry, or ``inf`` if none remain."""
        if self.ready:
            # Ready events process at the current time; no heap entry can
            # be earlier (scheduling in the past is rejected).
            return now
        self._drop_tombstones()
        if not self.heap:
            return float("inf")
        return self.heap[0][0]

    def step(self, sim: "Simulator") -> None:
        """Process exactly one entry, advancing the simulator's clock."""
        self._drop_tombstones()
        heap = self.heap
        ready = self.ready
        if ready:
            # Heap entries scheduled at the current time before the ready
            # event keep their FIFO precedence via the shared counter.
            if heap and heap[0][0] == sim.now \
                    and heap[0][1] < ready[0]._qcounter:
                __, __, handle = heapq.heappop(heap)
                handle._queued = False
                handle.callback()
            else:
                sim._process_event(ready.popleft())
            return
        if not heap:
            raise SimulationError("nothing scheduled")
        time, __, handle = heapq.heappop(heap)
        handle._queued = False
        sim.now = time
        handle.callback()

    def run(self, sim: "Simulator", until: float) -> None:
        """Drain entries until the heap empties or the clock passes
        ``until`` (``inf`` = run to exhaustion).

        One merged loop instead of peek()/step() pairs: identical
        processing order, half the call overhead and one tombstone scan
        per iteration on the engine's hottest loop.  Same-timestamp heap
        entries drain as a batch — the clock is written once per
        distinct time and the ``until`` bound is re-checked only when
        time advances.
        """
        ready = self.ready
        heap = self.heap
        heappop = heapq.heappop
        now = sim.now
        while True:
            while heap and heap[0][2].cancelled:
                heappop(heap)[2]._queued = False
                self.tombstones -= 1
            if ready:
                # Ready events process at the current time; heap entries
                # already scheduled at this time keep FIFO precedence
                # via the shared counter.
                if (heap and heap[0][0] == now
                        and heap[0][1] < ready[0]._qcounter):
                    __, __, handle = heappop(heap)
                    handle._queued = False
                    handle.callback()
                else:
                    # Simulator._process_event, inlined.
                    event = ready.popleft()
                    callbacks = event.callbacks
                    event.callbacks = None
                    assert callbacks is not None, "event processed twice"
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        raise t.cast(BaseException, event._value)
                continue
            if not heap:
                break
            time = heap[0][0]
            if time != now:
                # Batch boundary: the clock only moves (and ``until``
                # only needs re-checking) when the timestamp actually
                # changes — ``now <= until`` is invariant inside a batch.
                if time > until:
                    break
                sim.now = now = time
            __, __, handle = heappop(heap)
            handle._queued = False
            handle.callback()

    def pending(self) -> int:
        """Live (non-tombstoned) entries awaiting processing."""
        return len(self.heap) + len(self.ready) - self.tombstones


# ----------------------------------------------------------------------
# Backend registry and selection
# ----------------------------------------------------------------------

def _load_compiled() -> t.Any | None:
    """The compiled extension module, or ``None`` when not built."""
    try:
        return importlib.import_module("repro.sim._ckernel")
    except ImportError:
        return None


_compiled_checked = False
_compiled_module: t.Any | None = None


def compiled_module() -> t.Any | None:
    """Cached lookup of the optional compiled kernel module."""
    global _compiled_checked, _compiled_module
    if not _compiled_checked:
        module = _load_compiled()
        if module is not None:
            # Hand the C side the Python types it fast-paths, and the
            # sentinel/exception objects it must share with events.py.
            from repro.sim import engine, events
            module.configure(
                events.Event, events.Timeout, engine.Process,
                engine.Simulator, events._PENDING, SimulationError)
        _compiled_module = module
        _compiled_checked = True
    return _compiled_module


def compiled_available() -> bool:
    """True when the compiled backend can actually be instantiated."""
    return compiled_module() is not None


_model_checked = False
_model_module: t.Any | None = None


def model_module() -> t.Any | None:
    """Cached lookup of the optional compiled *model* module.

    ``repro.sim._cmodel`` compiles the model layer above the event loop
    — the CPU scheduler's burst lifecycle and the service instance
    worker machine — and is selected alongside the compiled kernel
    (``--kernel compiled`` / ``REPRO_KERNEL=compiled`` / ``auto``).
    Like the kernel extension it is optional; when absent the
    pure-Python reference classes run.
    """
    global _model_checked, _model_module
    if not _model_checked:
        try:
            module = importlib.import_module("repro.sim._cmodel")
        except ImportError:
            module = None
        if module is not None:
            # Late imports: the model layer sits above this module, so
            # binding its types here at import time would be a cycle.
            from repro._errors import SchedulingError
            from repro.cpu.burst import CpuBurst, TaskGroup
            from repro.memory.system import MemorySystemModel
            from repro.services.instance import (
                ServiceContext,
                ServiceInstance,
                _worker_protocol_error,
            )
            from repro.services.request import Request
            from repro.sim import engine, events
            module.configure(
                events.Event, events._PENDING, SimulationError,
                engine.Simulator, CpuBurst, TaskGroup, Request,
                ServiceInstance, ServiceContext, _worker_protocol_error,
                SchedulingError, MemorySystemModel)
            # The endpoint-plan interpreter and the plain fabric mirror
            # these classes and helpers (see CWorker in _cmodel.c).
            from repro.apps import runtime
            from repro.services import deployment, registry
            from repro.services import loadbalancer, request, rpc
            from repro.sim import rand, resources
            module.configure_plans({
                "AllOf": events.AllOf,
                "Store": resources.Store,
                "Resource": resources.Resource,
                "Deployment": deployment.Deployment,
                "RpcFabric": rpc.RpcFabric,
                "ServiceRegistry": registry.ServiceRegistry,
                "LoadBalancer": loadbalancer.LoadBalancer,
                "_StreamState": rand._StreamState,
                "standard_normal": rand._standard_normal,
                "standard_uniform": rand._standard_uniform,
                "batch_demand": runtime.batch_demand,
                "query_demand": runtime.query_demand,
                "request_ids": request._request_ids,
            })
        _model_module = module
        _model_checked = True
    return _model_module


def model_available() -> bool:
    """True when the compiled model layer can actually be used."""
    return model_module() is not None


def available_backends() -> tuple[str, ...]:
    """The backends a :class:`~repro.sim.engine.Simulator` can use now."""
    if compiled_available():
        return ("python", "compiled")
    return ("python",)


def set_default_backend(name: str | None) -> None:
    """Set the session-wide default backend (``None`` → environment).

    Used by the CLI's ``--kernel`` flag and by test fixtures; validated
    on the next kernel creation, not here, so ``compiled`` may be set
    before the extension is importable.
    """
    global _default_backend
    if name is not None and name not in ("auto", "python", "compiled"):
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; choose from "
            f"'auto', 'python', 'compiled'")
    _default_backend = name


def resolve_backend(name: str | None = None) -> str:
    """Resolve a backend request to a concrete backend name.

    Precedence: explicit ``name`` → :func:`set_default_backend` →
    ``REPRO_KERNEL`` environment → ``auto``.  ``auto`` resolves to
    ``compiled`` when the extension is importable, else ``python``.
    ``compiled`` is a hard requirement and raises when absent — the
    silent fallback belongs to ``auto`` only, so CI jobs that must
    exercise the compiled path fail loudly instead of quietly testing
    the wrong kernel.
    """
    if name is None:
        name = _default_backend
    if name is None:
        name = os.environ.get(KERNEL_ENV) or "auto"
    if name == "auto":
        return "compiled" if compiled_available() else "python"
    if name == "python":
        return "python"
    if name == "compiled":
        if not compiled_available():
            raise ConfigurationError(
                "kernel backend 'compiled' requested but "
                "repro.sim._ckernel is not built; run "
                "'python setup.py build_ext --inplace' or use "
                "REPRO_KERNEL=auto for automatic fallback")
        return "compiled"
    raise ConfigurationError(
        f"unknown kernel backend {name!r}; choose from "
        f"'auto', 'python', 'compiled'")


def active_backend() -> str:
    """The backend a newly created simulator would use right now."""
    return resolve_backend()


def make_kernel(name: str | None = None):
    """Instantiate the kernel for ``name`` (see :func:`resolve_backend`)."""
    backend = resolve_backend(name)
    if backend == "compiled":
        return compiled_module().CKernel()
    return PythonKernel()


class use_backend:
    """Context manager pinning the default backend (tests, CLI).

    ::

        with kernel.use_backend("compiled"):
            result = e2_load_scaling.run(settings)
    """

    def __init__(self, name: str | None):
        self.name = name
        self._saved: str | None = None

    def __enter__(self) -> "use_backend":
        global _default_backend
        self._saved = _default_backend
        set_default_backend(self.name)
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _default_backend
        _default_backend = self._saved
