"""The TeaStore application model.

TeaStore (von Kistowski et al., ICPE 2018) is the publicly available
microservice reference application the paper studies: a web store composed
of six services — WebUI, Auth, Persistence, ImageProvider, Recommender and
Registry — backed by a relational database, driven over HTTP by a
closed-loop load generator walking a "browse" user profile.

This package models that application on the :mod:`repro.services`
substrate:

* :mod:`~repro.teastore.config` — replica counts, worker pools, CPU-demand
  calibration knobs.
* :mod:`~repro.teastore.catalog` — the per-service
  :class:`~repro.memory.WorkloadProfile` footprints.
* :mod:`~repro.teastore.profiles` — the browse and buy Markov sessions.
* :mod:`~repro.teastore.store` — assembly: build and place a whole store
  on a deployment.

The services, endpoints, demands, footprints and sessions themselves
are data: the bundled ``teastore.json`` spec, which every module here
reads (see :mod:`repro.apps.teastore_app`).

The Registry service is represented by the substrate's
:class:`~repro.services.ServiceRegistry` (discovery) rather than a CPU
consumer: the paper's own utilization breakdown shows Registry consuming
negligible CPU, and its discovery function is what matters here.
"""

from repro.teastore.catalog import SERVICE_NAMES, service_profiles
from repro.teastore.config import TeaStoreConfig
from repro.teastore.profiles import (
    MarkovSessionProfile,
    browse_profile,
    buy_profile,
)
from repro.teastore.store import TeaStore, build_teastore

__all__ = [
    "MarkovSessionProfile",
    "SERVICE_NAMES",
    "TeaStore",
    "TeaStoreConfig",
    "browse_profile",
    "build_teastore",
    "buy_profile",
    "service_profiles",
]
