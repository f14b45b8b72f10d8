"""Declarative application specs: validation, round-trip, determinism.

Covers the :mod:`repro.apps` layer introduced with the cross-application
family: eager spec validation (unknown call targets, cycles, negative
demands, broken role bindings), byte-stable JSON round-trips, the
bundled-spec lint gate, the TeaStore config substitution, and
per-application determinism smoke digests for the two non-TeaStore
graphs on every kernel backend.
"""

import dataclasses
import hashlib
import json

import pytest

from repro import cli
from repro._errors import ConfigurationError
from repro.apps import (
    APP_NAMES,
    deploy_application,
    get_app,
    load_bundled,
    loads,
    registry,
    spec_path,
    verify_bundled,
)
from repro.apps.spec import (
    ApplicationSpec,
    EndpointDef,
    ServiceDef,
    SessionDef,
)
from repro.apps.teastore_app import teastore_app
from repro.chaos.catalog import builtin_catalog, resolve_target
from repro.experiments.common import (
    ExperimentSettings,
    default_counts,
    run_store,
)
from repro.services.deployment import Deployment
from repro.sim import kernel
from repro.memory.profile import WorkloadProfile
from repro.teastore.config import TeaStoreConfig

from tests._kernels import backend_params


def _profile(name):
    return WorkloadProfile(name=name, code_bytes=1 << 20,
                           data_bytes=1 << 20, mem_intensity=0.3,
                           frontend_intensity=0.3)


def _service(name, endpoints, shared_lock=False, demand_weight=0.5):
    return ServiceDef(name=name, profile=_profile(name),
                      replicas=1, workers=4, fast_replicas=1,
                      fast_workers=4, demand_weight=demand_weight,
                      shared_lock=shared_lock, endpoints=endpoints)


def _minimal_spec(**overrides):
    """A tiny two-service app; overrides patch individual fields."""
    values = dict(
        name="mini",
        description="two services",
        services=(
            _service("front", (
                EndpointDef(name="home", steps=(
                    {"op": "compute", "demand": 0.001},
                    {"op": "call", "service": "back",
                     "endpoint": "load"},
                )),
            )),
            _service("back", (
                EndpointDef(name="load", steps=(
                    {"op": "compute", "demand": 0.002},
                )),
            )),
        ),
        sessions=(
            SessionDef(name="browse", service="front", start="home",
                       transitions={"home": (("home", 1.0),)}),
        ),
        default_session="browse",
        chaos_targets={"orchestrator": "front", "hottest": "front",
                       "storage": "back"},
    )
    values.update(overrides)
    return ApplicationSpec(**values)


# ----------------------------------------------------------------------
# Eager validation
# ----------------------------------------------------------------------
def test_minimal_spec_validates():
    spec = _minimal_spec()
    assert spec.call_graph() == {"front": ("back",), "back": ()}


def test_unknown_call_target_service_raises():
    with pytest.raises(ConfigurationError, match="unknown call target"):
        _minimal_spec(services=(
            dataclasses.replace(
                _minimal_spec().services[0],
                endpoints=(EndpointDef(name="home", steps=(
                    {"op": "call", "service": "ghost",
                     "endpoint": "load"},)),)),
            _minimal_spec().services[1],
        ))


def test_unknown_call_target_endpoint_raises():
    with pytest.raises(ConfigurationError, match="unknown call target"):
        _minimal_spec(services=(
            dataclasses.replace(
                _minimal_spec().services[0],
                endpoints=(EndpointDef(name="home", steps=(
                    {"op": "call", "service": "back",
                     "endpoint": "ghost"},)),)),
            _minimal_spec().services[1],
        ))


def test_cyclic_call_graph_raises():
    back = dataclasses.replace(
        _minimal_spec().services[1],
        endpoints=(EndpointDef(name="load", steps=(
            {"op": "call", "service": "front", "endpoint": "home"},)),))
    with pytest.raises(ConfigurationError, match="cyclic call graph"):
        _minimal_spec(services=(_minimal_spec().services[0], back))


def test_negative_demand_raises():
    with pytest.raises(ConfigurationError, match="negative demand"):
        EndpointDef(name="home", steps=(
            {"op": "compute", "demand": -0.001},))


def test_unknown_step_op_raises():
    with pytest.raises(ConfigurationError):
        EndpointDef(name="home", steps=({"op": "teleport"},))


def test_serialized_query_requires_shared_lock():
    back = dataclasses.replace(
        _minimal_spec().services[1],
        endpoints=(EndpointDef(name="load", steps=(
            {"op": "serialized_query", "serial_fraction": 0.5},)),))
    with pytest.raises(ConfigurationError, match="shared_lock"):
        _minimal_spec(services=(_minimal_spec().services[0], back))


def _payload_spec(case):
    """The minimal spec with ``back.load`` made a payload consumer."""
    step = {"query-without-payload": {"op": "serialized_query",
                                      "serial_fraction": 0.5},
            "float-batch-payload": {"op": "cached_batch",
                                    "default_count": 2, "hit_rate": 0.5,
                                    "hit_demand": 0.001,
                                    "miss_demand": 0.002},
            "session-on-query": {"op": "serialized_query",
                                 "serial_fraction": 0.5}}[case]
    call = {"op": "call", "service": "back", "endpoint": "load"}
    if case == "float-batch-payload":
        call["payload"] = 2.5
    elif case == "session-on-query":
        call["payload"] = 0.002
    front = _service("front", (EndpointDef(name="home", steps=(
        {"op": "compute", "demand": 0.001}, call)),))
    back = _service("back", (EndpointDef(name="load", steps=(step,)),),
                    shared_lock=True)
    sessions = (SessionDef(name="browse", service="front", start="home",
                           transitions={"home": (("home", 1.0),)}),)
    if case == "session-on-query":
        sessions = (SessionDef(name="browse", service="back", start="load",
                               transitions={"load": (("load", 1.0),)}),)
    return _minimal_spec(services=(front, back), sessions=sessions)


@pytest.mark.parametrize("case", ("query-without-payload",
                                  "float-batch-payload",
                                  "session-on-query"))
def test_payloads_the_target_op_cannot_use_raise(case):
    with pytest.raises(ConfigurationError, match="payload"):
        _payload_spec(case)


def test_session_transition_probabilities_must_sum_to_one():
    with pytest.raises(ConfigurationError):
        _minimal_spec(sessions=(
            SessionDef(name="browse", service="front", start="home",
                       transitions={"home": (("home", 0.5),)}),))


def test_missing_chaos_role_binding_raises():
    with pytest.raises(ConfigurationError):
        _minimal_spec(chaos_targets={"orchestrator": "front"})


def test_chaos_role_bound_to_unknown_service_raises():
    with pytest.raises(ConfigurationError):
        _minimal_spec(chaos_targets={"orchestrator": "front",
                                     "hottest": "front",
                                     "storage": "ghost"})


def test_malformed_json_raises():
    with pytest.raises(ConfigurationError, match="malformed application"):
        loads("{not json")


def test_unknown_app_name_raises():
    with pytest.raises(ConfigurationError, match="unknown application"):
        get_app("webstore")


# ----------------------------------------------------------------------
# Round-trip and the bundled lint gate
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", APP_NAMES)
def test_spec_round_trip_is_byte_stable(name):
    spec = get_app(name)
    text = spec.dumps()
    reloaded = loads(text)
    assert reloaded.dumps() == text
    assert reloaded.to_dict() == spec.to_dict()


def _leaves(value, path=()):
    """Every scalar in a JSON-native value, keyed by its path."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {path: value}
    leaves = {}
    for key, item in items:
        leaves.update(_leaves(item, path + (key,)))
    return leaves


def _spec_location(service, endpoint, key):
    """The path of ``key`` in the single step of service.endpoint."""
    spec = load_bundled("teastore")
    s_index = spec.service_names().index(service)
    e_index = spec.services[s_index].endpoint_names().index(endpoint)
    return ("services", s_index, "endpoints", e_index, "steps", 0, key)


def test_teastore_app_substitutes_config_fields():
    assert teastore_app(TeaStoreConfig()).to_dict() == \
        load_bundled("teastore").to_dict()
    default = _leaves(load_bundled("teastore").to_dict())
    db = load_bundled("teastore").service_names().index("db")
    cases = {
        "replicas": ({"db": 5}, ("services", db, "replicas"), 5),
        "workers": ({"db": 7}, ("services", db, "workers"), 7),
        "demand_scale": (1.5, ("demand_scale",), 1.5),
        "demand_cv": (0.5, ("demand_cv",), 0.5),
        "image_cache_hit_rate": (
            0.5, _spec_location("image", "get", "hit_rate"), 0.5),
        "image_preview_hit_rate": (
            0.5, _spec_location("image", "get_batch", "hit_rate"), 0.5),
        "db_read_serial_fraction": (
            0.5, _spec_location("db", "read", "serial_fraction"), 0.5),
        "db_write_serial_fraction": (
            0.5, _spec_location("db", "write", "serial_fraction"), 0.5),
    }
    assert set(cases) == {field.name
                          for field in dataclasses.fields(TeaStoreConfig)}
    for field, (value, location, expected) in cases.items():
        changed = _leaves(teastore_app(
            TeaStoreConfig(**{field: value})).to_dict())
        assert changed.keys() == default.keys()
        diff = {path: changed[path] for path in default
                if changed[path] != default[path]}
        assert diff == {location: expected}, field


def test_verify_bundled_reports_no_problems():
    assert verify_bundled() == []


@pytest.mark.parametrize("damage", ("non-canonical", "invalid"))
def test_apps_validate_rejects_a_damaged_copy(tmp_path, monkeypatch,
                                              capsys, damage):
    for name in APP_NAMES:
        (tmp_path / f"{name}.json").write_text(
            spec_path(name).read_text(encoding="utf-8"), encoding="utf-8")
    monkeypatch.setattr(registry, "SPEC_DIR", tmp_path)
    assert cli.main(["apps", "--validate"]) == 0
    data = json.loads((tmp_path / "boutique.json").read_text())
    if damage == "non-canonical":
        text = json.dumps(data, indent=4) + "\n"
    else:
        data["services"][0]["endpoints"][0]["steps"][0]["demand"] = -1.0
        text = json.dumps(data, indent=2) + "\n"
    (tmp_path / "boutique.json").write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["apps", "--validate"]) == 1
    assert "SPEC PROBLEM: boutique" in capsys.readouterr().err


def test_minimal_spec_round_trips_through_dict():
    spec = _minimal_spec()
    assert ApplicationSpec.from_dict(spec.to_dict()).dumps() == spec.dumps()


# ----------------------------------------------------------------------
# Chaos catalog derivation for the new graphs
# ----------------------------------------------------------------------
def test_boutique_chaos_targets_resolve():
    app = get_app("boutique")
    assert resolve_target("orchestrator", app) == "frontend"
    assert resolve_target("hottest", app) == "currency"
    assert resolve_target("storage", app) == "redis"


def test_socialnet_catalog_derives_blast_from_graph():
    app = get_app("socialnet")
    catalog = builtin_catalog(app)
    db_io = next(s for s in catalog if s.name == "db-io")
    assert db_io.target_for(app) == "post_storage"
    assert db_io.expectation.allowed_blast == (
        "compose", "frontend", "home_timeline", "post_storage",
        "user_timeline")
    fabric = next(s for s in catalog if s.name == "net-saturation")
    assert set(fabric.expectation.allowed_blast) == set(app.service_names())


def test_teastore_catalog_is_unchanged_by_derivation():
    cell = builtin_catalog()[1].to_dict()
    assert cell["expectation"]["allowed_blast"] == ["auth", "webui"]
    assert cell["expectation"]["max_depth"] == 2


# ----------------------------------------------------------------------
# Experiment plumbing
# ----------------------------------------------------------------------
def _settings(app, seed=1):
    return ExperimentSettings.fast(preset="tiny", users=32, warmup=0.1,
                                   duration=0.25, seed=seed, app=app)


def test_default_counts_follow_the_active_application():
    counts = default_counts(_settings("boutique"))
    assert set(counts) == set(get_app("boutique").service_names())
    assert counts["frontend"] == get_app("boutique", fast=True).service(
        "frontend").replicas


def test_run_store_rejects_teastore_overrides_for_other_apps():
    with pytest.raises(ConfigurationError, match="TeaStore-specific"):
        run_store(_settings("boutique"), store_config=TeaStoreConfig())


def test_replicas_error_names_the_apps_own_services():
    settings = _settings("socialnet")
    deployment = Deployment(settings.machine(), seed=1)
    store = deploy_application(deployment, settings.application())
    with pytest.raises(ConfigurationError) as excinfo:
        store.replicas("webui")
    assert "post_storage" in str(excinfo.value)
    assert "webui" not in str(excinfo.value).split("known:")[1]


# ----------------------------------------------------------------------
# Determinism smoke digests (both kernels, both new apps)
# ----------------------------------------------------------------------
def _run_digest(app, backend):
    with kernel.use_backend(backend):
        result, __, store = run_store(_settings(app))
    material = json.dumps({
        "throughput": result.throughput,
        "p99": result.latency_p99,
        "completed": result.completed,
        "errors": result.errors,
        "per_service": result.service_utilization,
        "counts": store.replica_counts(),
    }, sort_keys=True)
    return hashlib.sha256(material.encode()).hexdigest()


@pytest.mark.parametrize("backend", backend_params())
@pytest.mark.parametrize("app", ("boutique", "socialnet"))
def test_app_runs_are_deterministic_per_kernel(app, backend):
    first = _run_digest(app, backend)
    second = _run_digest(app, backend)
    assert first == second
    result, __, __ = run_store(_settings(app))
    assert result.completed > 0
    assert result.errors == 0


@pytest.mark.parametrize("app", ("boutique", "socialnet"))
def test_app_digests_match_across_kernels(app):
    if not kernel.compiled_available():
        pytest.skip("compiled kernel not built")
    assert _run_digest(app, "python") == _run_digest(app, "compiled")
