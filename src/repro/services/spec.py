"""Service type definitions: profiles, worker pools, endpoint handlers."""

from __future__ import annotations

import dataclasses
import typing as t

from repro._errors import ConfigurationError
from repro.memory.profile import WorkloadProfile

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.services.instance import ServiceContext

#: A handler is a generator function: it receives the service context and
#: yields simulation events (from ``ctx.compute`` / ``ctx.call`` / raw
#: resources); its return value becomes the RPC response payload.
Handler = t.Callable[["ServiceContext"], t.Generator]


@dataclasses.dataclass(frozen=True)
class Endpoint:
    """One named operation a service exposes.

    ``plan`` is the flat op tuple an application-spec handler interprets
    (``handler.plan``, set by :mod:`repro.apps.runtime`; ``None`` for a
    hand-written generator).  The compiled worker executes it directly
    instead of driving the handler.
    """

    name: str
    handler: Handler
    plan: tuple | None = dataclasses.field(init=False, default=None)

    def __post_init__(self) -> None:
        if not callable(self.handler):
            raise ConfigurationError(
                f"endpoint {self.name!r}: handler must be callable")
        object.__setattr__(self, "plan",
                           getattr(self.handler, "plan", None))


class ServiceSpec:
    """A service type, instantiable into any number of replicas.

    ``workers`` is the replica's thread-pool width — how many requests one
    instance processes concurrently (Tomcat worker threads, in TeaStore
    terms).  ``shared_factory``, when given, builds per-instance shared
    state (locks, caches) handlers reach via ``ctx.shared``.
    """

    def __init__(self, name: str, profile: WorkloadProfile,
                 workers: int = 8,
                 queue_capacity: int | None = None,
                 shared_factory: t.Callable[["t.Any"], object] | None = None):
        if workers < 1:
            raise ConfigurationError(
                f"service {name!r}: workers must be >= 1")
        if queue_capacity is not None and queue_capacity < 1:
            raise ConfigurationError(
                f"service {name!r}: queue capacity must be >= 1")
        self.name = name
        self.profile = profile
        self.workers = workers
        self.queue_capacity = queue_capacity
        self.shared_factory = shared_factory
        self._endpoints: dict[str, Endpoint] = {}
        self._fallbacks: dict[str, object] = {}

    @property
    def endpoints(self) -> dict[str, Endpoint]:
        """Registered endpoints by name."""
        return dict(self._endpoints)

    def endpoint(self, name: str) -> t.Callable[[Handler], Handler]:
        """Decorator registering a handler under ``name``."""
        def register(handler: Handler) -> Handler:
            self.add_endpoint(name, handler)
            return handler
        return register

    def add_endpoint(self, name: str, handler: Handler) -> None:
        """Register ``handler`` for endpoint ``name``."""
        if name in self._endpoints:
            raise ConfigurationError(
                f"service {self.name!r}: duplicate endpoint {name!r}")
        self._endpoints[name] = Endpoint(name, handler)

    def add_fallback(self, endpoint: str, value: object) -> None:
        """Register a graceful-degradation response for ``endpoint``.

        When a deployment's resilience config enables degradation, a
        call that exhausts its attempts resolves with ``value`` instead
        of an error — modelling TeaStore services (the Recommender in
        particular) that serve a static default when a dependency is
        unreachable.  The fallback is static by design: it must not
        depend on live state, because it is served when none exists.
        """
        if endpoint not in self._endpoints:
            raise ConfigurationError(
                f"service {self.name!r}: cannot register a fallback for "
                f"unknown endpoint {endpoint!r}; "
                f"known: {sorted(self._endpoints)}")
        if endpoint in self._fallbacks:
            raise ConfigurationError(
                f"service {self.name!r}: duplicate fallback for "
                f"endpoint {endpoint!r}")
        self._fallbacks[endpoint] = value

    def has_fallback(self, endpoint: str) -> bool:
        """Whether ``endpoint`` registered a degradation fallback."""
        return endpoint in self._fallbacks

    def fallback_for(self, endpoint: str) -> object:
        """The registered fallback payload for ``endpoint``."""
        try:
            return self._fallbacks[endpoint]
        except KeyError:
            raise ConfigurationError(
                f"service {self.name!r} has no fallback for "
                f"endpoint {endpoint!r}") from None

    def resolve(self, endpoint: str) -> Endpoint:
        """The endpoint named ``endpoint``; raises with choices on typos."""
        try:
            return self._endpoints[endpoint]
        except KeyError:
            raise ConfigurationError(
                f"service {self.name!r} has no endpoint {endpoint!r}; "
                f"known: {sorted(self._endpoints)}") from None

    def __repr__(self) -> str:
        return (f"<ServiceSpec {self.name!r} workers={self.workers} "
                f"endpoints={sorted(self._endpoints)}>")
