"""Footprints and microarchitectural profiles of the TeaStore services.

The profiles, like every demand constant, live in the bundled
``teastore.json`` spec.  Their absolute numbers are calibrated
stand-ins (the paper's testbed is not reproducible), chosen to preserve
the *relationships* its analysis rests on:

* WebUI is the heaviest CPU consumer (template rendering), Recommender the
  lightest online service, the database the least scalable;
* service code footprints are several MiB of flat JIT-compiled Java —
  large relative to L1i/L2 and to the code share of an L3 slice, making
  the services front-end hungry (low IPC, high L1i MPKI) in contrast to
  SPEC-class loop kernels;
* the ImageProvider and database carry data working sets that overwhelm a
  16 MiB L3 slice when several services share it.
"""

from __future__ import annotations

from repro.apps.registry import load_bundled
from repro.memory.profile import WorkloadProfile
from repro.teastore.config import SERVICE_NAMES

__all__ = ["SERVICE_NAMES", "service_profiles"]


def service_profiles() -> dict[str, WorkloadProfile]:
    """Per-service memory/microarchitecture descriptors."""
    return load_bundled("teastore").profiles()
