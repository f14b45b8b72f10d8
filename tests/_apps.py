"""Shared test helpers: TeaStore variants built from its bundled spec.

A calibration value is changed the same way library code would change
it: edit the spec's ``to_dict()`` and rebuild it with
``ApplicationSpec.from_dict``.
"""

from repro.apps import ApplicationSpec, load_bundled
from repro.workload.sessions import MarkovSessionProfile

#: (replicas, workers) per service for the 32-lcpu test machine.
SMALL_SIZING = {"webui": (2, 32), "auth": (1, 8), "persistence": (1, 16),
                "image": (1, 8), "recommender": (1, 8), "db": (1, 16)}


def teastore_variant(sizing=SMALL_SIZING, steps=()):
    """TeaStore with per-service ``(replicas, workers)`` from ``sizing``
    and calibration edits: ``steps`` holds ``(service, endpoint, key,
    value)`` entries for an endpoint's single step."""
    data = load_bundled("teastore").to_dict()
    services = {service["name"]: service for service in data["services"]}
    for name, (replicas, workers) in sizing.items():
        services[name]["replicas"] = replicas
        services[name]["workers"] = workers
    for service, endpoint, key, value in steps:
        [step] = next(entry for entry in services[service]["endpoints"]
                      if entry["name"] == endpoint)["steps"]
        step[key] = value
    return ApplicationSpec.from_dict(data)


def browse_profile():
    """TeaStore's browse session as a Markov profile."""
    session = load_bundled("teastore").session("browse")
    return MarkovSessionProfile(session.transitions, start=session.start,
                                service=session.service)
