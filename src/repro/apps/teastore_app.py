"""TeaStore, the paper's application: the bundled spec, calibrated.

``specs/teastore.json`` is the only definition of TeaStore's services,
endpoints, demands, footprints and session profiles.
``teastore_app(config)`` parses it and writes the
:class:`~repro.teastore.config.TeaStoreConfig` knobs into their fixed
places:

* per-service ``replicas`` and ``workers``;
* the application's ``demand_scale`` and ``demand_cv``;
* the ``hit_rate`` of ``image.get`` and of ``image.get_batch``;
* the ``serial_fraction`` of ``db.read`` and of ``db.write``.

A default config writes back exactly the committed values, so
``teastore_app()`` equals ``load_bundled("teastore")``.
"""

from __future__ import annotations

import json

from repro.apps.registry import spec_path
from repro.apps.spec import ApplicationSpec
from repro.teastore.config import STEP_FIELDS, TeaStoreConfig


def teastore_app(config: TeaStoreConfig | None = None) -> ApplicationSpec:
    """The TeaStore application spec, calibrated by ``config``."""
    config = config or TeaStoreConfig()
    data = json.loads(spec_path("teastore").read_text(encoding="utf-8"))
    data["demand_scale"] = config.demand_scale
    data["demand_cv"] = config.demand_cv
    services = {service["name"]: service for service in data["services"]}
    for name, service in services.items():
        service["replicas"] = config.replica_count(name)
        service["workers"] = config.worker_count(name)
    for field, (service, endpoint, key) in STEP_FIELDS.items():
        [step] = next(entry for entry in services[service]["endpoints"]
                      if entry["name"] == endpoint)["steps"]
        step[key] = getattr(config, field)
    return ApplicationSpec.from_dict(data)
