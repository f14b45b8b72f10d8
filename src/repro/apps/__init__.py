"""Declarative application specifications and their runtime.

The paper characterizes exactly one application — TeaStore — but its
methodology (knee detection, per-service scaling, USL fits, chaos blast
contracts) is application-agnostic.  This package lifts the service
graph into data:

* :mod:`~repro.apps.spec` — :class:`ApplicationSpec`: services,
  call-graph edges, per-endpoint demand steps, footprints, session
  profiles, chaos target bindings; JSON load/dump with eager validation.
* :mod:`~repro.apps.runtime` — compiles a spec into service handlers
  and deploys it (:class:`Application`); byte-identical to the
  hand-written TeaStore handlers it replaced.
* :mod:`~repro.apps.registry` — the bundled applications
  (``teastore``, ``boutique``, ``socialnet``), each defined only by its
  committed JSON file under ``specs/``.
"""

from repro.apps.registry import (
    APP_NAMES,
    get_app,
    load_bundled,
    spec_path,
    verify_bundled,
)
from repro.apps.runtime import (
    Application,
    build_service_specs,
    deploy_application,
)
from repro.apps.spec import (
    ApplicationSpec,
    EndpointDef,
    ServiceDef,
    SessionDef,
    load_file,
    loads,
)

__all__ = [
    "APP_NAMES",
    "Application",
    "ApplicationSpec",
    "EndpointDef",
    "ServiceDef",
    "SessionDef",
    "build_service_specs",
    "deploy_application",
    "get_app",
    "load_bundled",
    "load_file",
    "loads",
    "spec_path",
    "verify_bundled",
]
