"""TeaStore deployment configuration.

Every default here is read from the bundled ``teastore.json`` spec, so
``TeaStoreConfig()`` describes exactly the committed file;
:func:`repro.apps.teastore_app.teastore_app` writes each field back into
its fixed place in that spec.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro._errors import ConfigurationError
from repro.apps.registry import load_bundled

#: Read once, at import: the constants and field defaults below need it.
_SPEC = load_bundled("teastore")

#: The six modelled CPU-consuming components.
SERVICE_NAMES = _SPEC.service_names()

#: Performance-tuned baseline replica counts for the 128-logical-CPU
#: platform and worker-pool widths (Tomcat threads / DB connections) per
#: replica, as the spec sizes them.
DEFAULT_REPLICAS = {service.name: service.replicas
                    for service in _SPEC.services}
DEFAULT_WORKERS = {service.name: service.workers
                   for service in _SPEC.services}

#: Where each per-step knob lives in the spec: the (service, endpoint)
#: whose single step carries it, and the step key.
STEP_FIELDS = {
    "image_cache_hit_rate": ("image", "get", "hit_rate"),
    "image_preview_hit_rate": ("image", "get_batch", "hit_rate"),
    "db_read_serial_fraction": ("db", "read", "serial_fraction"),
    "db_write_serial_fraction": ("db", "write", "serial_fraction"),
}


def _step_default(field: str) -> float:
    service, endpoint, key = STEP_FIELDS[field]
    [step] = next(entry for entry in _SPEC.service(service).endpoints
                  if entry.name == endpoint).steps
    return step[key]


@dataclasses.dataclass(frozen=True)
class TeaStoreConfig:
    """Knobs of the TeaStore application model.

    ``demand_scale`` multiplies every CPU demand — useful for shrinking
    tests or stress-scaling.  The DB serial fractions model lock/log
    serialization inside the database, which is what caps Persistence+DB
    scaling (the per-service scaling differences the paper exploits).
    """

    replicas: t.Mapping[str, int] = dataclasses.field(
        default_factory=lambda: dict(DEFAULT_REPLICAS))
    workers: t.Mapping[str, int] = dataclasses.field(
        default_factory=lambda: dict(DEFAULT_WORKERS))
    demand_scale: float = _SPEC.demand_scale
    demand_cv: float = _SPEC.demand_cv
    image_cache_hit_rate: float = _step_default("image_cache_hit_rate")
    image_preview_hit_rate: float = _step_default("image_preview_hit_rate")
    db_read_serial_fraction: float = _step_default("db_read_serial_fraction")
    db_write_serial_fraction: float = _step_default(
        "db_write_serial_fraction")

    def __post_init__(self) -> None:
        for mapping_name in ("replicas", "workers"):
            mapping = getattr(self, mapping_name)
            for service, count in mapping.items():
                if service not in SERVICE_NAMES:
                    raise ConfigurationError(
                        f"{mapping_name}: unknown service {service!r}; "
                        f"known: {SERVICE_NAMES}")
                if count < 1:
                    raise ConfigurationError(
                        f"{mapping_name}[{service!r}] must be >= 1: {count}")
        if self.demand_scale <= 0:
            raise ConfigurationError(
                f"demand_scale must be positive: {self.demand_scale}")
        if self.demand_cv < 0:
            raise ConfigurationError(
                f"demand_cv must be >= 0: {self.demand_cv}")
        for field in ("image_cache_hit_rate", "image_preview_hit_rate"):
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{field} must be in [0, 1]: {value}")
        for field in ("db_read_serial_fraction", "db_write_serial_fraction"):
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{field} must be in [0, 1]: {value}")

    def replica_count(self, service: str) -> int:
        """Replica count for ``service`` (defaults applied)."""
        return self.replicas.get(service, DEFAULT_REPLICAS[service])

    def worker_count(self, service: str) -> int:
        """Worker-pool width for ``service`` (defaults applied)."""
        return self.workers.get(service, DEFAULT_WORKERS[service])

    def with_replicas(self, **overrides: int) -> "TeaStoreConfig":
        """A copy with some replica counts replaced."""
        replicas = dict(self.replicas)
        replicas.update(overrides)
        return dataclasses.replace(self, replicas=replicas)
