"""Unit + integration tests for the TeaStore application model: the
bundled ``teastore.json`` spec deployed through the generic runtime."""

import pytest

from repro._errors import ConfigurationError, WorkloadError
from repro.services import Deployment
from repro.apps import (
    ApplicationSpec,
    build_service_specs,
    deploy_application,
    get_app,
    load_bundled,
)
from repro.topology import small_numa_machine, tiny_machine
from repro.workload import ClosedLoopWorkload, run_experiment
from repro.workload.sessions import MarkovSessionProfile

from tests._apps import browse_profile, teastore_variant

SERVICE_NAMES = load_bundled("teastore").service_names()


def transitions(session):
    """One session's transition matrix, as ``teastore.json`` declares it."""
    return load_bundled("teastore").session(session).transitions


def build_store(deployment, app=None, placement=None):
    return deploy_application(deployment, app or teastore_variant(),
                              placement=placement)


# ---------------------------------------------------------------------------
# Spec defaults
# ---------------------------------------------------------------------------

def test_config_defaults_cover_all_services():
    for fast in (False, True):
        for service in get_app("teastore", fast=fast).services:
            assert service.replicas >= 1
            assert service.workers >= 1


def test_calibration_values_out_of_range_raise():
    """Calibration lives in the spec, so the spec validator guards it."""
    with pytest.raises(ConfigurationError):
        teastore_variant(sizing={"webui": (0, 32)})
    with pytest.raises(ConfigurationError):
        teastore_variant(steps=(("image", "get", "hit_rate", 1.5),))
    with pytest.raises(ConfigurationError):
        teastore_variant(steps=(("db", "read", "serial_fraction", -0.1),))
    data = load_bundled("teastore").to_dict()
    data["demand_scale"] = 0.0
    with pytest.raises(ConfigurationError):
        ApplicationSpec.from_dict(data)


# ---------------------------------------------------------------------------
# Profiles / session model
# ---------------------------------------------------------------------------

def test_browse_profile_states_match_webui_endpoints():
    profile = browse_profile()
    specs = build_service_specs(get_app("teastore"))
    webui_endpoints = set(specs["webui"].endpoints)
    assert set(profile.states) <= webui_endpoints
    assert set(profile.states) == set(transitions("browse"))


def test_browse_transitions_rows_sum_to_one():
    for session in ("browse", "buy"):
        for state, nexts in transitions(session).items():
            assert sum(p for __, p in nexts) == pytest.approx(1.0)


def test_markov_profile_validation():
    with pytest.raises(WorkloadError):
        MarkovSessionProfile({"a": [("a", 0.5)]})  # doesn't sum to 1
    with pytest.raises(WorkloadError):
        MarkovSessionProfile({"a": [("b", 1.0)]})  # unknown target
    with pytest.raises(WorkloadError):
        MarkovSessionProfile({"a": [("a", 1.0)]}, start="z")
    with pytest.raises(WorkloadError):
        MarkovSessionProfile({"a": []})
    with pytest.raises(WorkloadError):
        MarkovSessionProfile(
            {"a": [("a", 1.5), ("b", -0.5)], "b": [("a", 1.0)]})


def test_markov_walk_visits_only_known_states():
    deployment = Deployment(tiny_machine(), seed=1)
    factory = browse_profile().session_factory(deployment)
    session = factory(0)
    states = {next(session)[1] for __ in range(200)}
    assert states <= set(transitions("browse"))
    assert len(states) >= 4  # actually explores the profile


def test_markov_walks_differ_between_users_but_reproduce_per_seed():
    def walk(seed, user_id, n=20):
        deployment = Deployment(tiny_machine(), seed=seed)
        session = browse_profile().session_factory(deployment)(user_id)
        return [next(session)[1] for __ in range(n)]

    assert walk(1, 0) == walk(1, 0)
    assert walk(1, 0) != walk(1, 1) or walk(1, 0) != walk(1, 2)


def test_stationary_mix_dominated_by_browsing():
    mix = browse_profile().stationary_mix(n_steps=20_000)
    assert mix["category"] > mix["logout"]
    assert mix["product"] > mix["logout"]
    assert sum(mix.values()) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Service specs / catalog
# ---------------------------------------------------------------------------

def test_profiles_exist_for_all_services():
    profiles = get_app("teastore").profiles()
    assert set(profiles) == set(SERVICE_NAMES)
    for name, profile in profiles.items():
        assert profile.name == name


def test_microservice_profiles_are_frontend_hungry():
    # The characterization contrast rests on these relationships.
    profiles = get_app("teastore").profiles()
    for name in ("webui", "auth", "persistence"):
        assert profiles[name].frontend_intensity >= 0.5
        assert profiles[name].l1i_mpki >= 20.0
        assert profiles[name].base_ipc <= 1.2


def test_build_specs_cover_expected_endpoints():
    specs = build_service_specs(get_app("teastore"))
    assert set(specs) == set(SERVICE_NAMES)
    assert set(specs["webui"].endpoints) == {
        "home", "login", "category", "product", "add_to_cart", "logout",
        "cart_view", "checkout"}
    assert set(specs["db"].endpoints) == {"read", "write"}
    assert "recommend" in specs["recommender"].endpoints


# ---------------------------------------------------------------------------
# End-to-end store behaviour
# ---------------------------------------------------------------------------

def test_build_teastore_default_replicas():
    deployment = Deployment(small_numa_machine(), seed=0)
    store = build_store(deployment)
    counts = store.replica_counts()
    assert counts["webui"] == 2
    assert counts["db"] == 1
    assert len(deployment.instances) == sum(counts.values())


def test_store_replicas_unknown_service_raises():
    deployment = Deployment(small_numa_machine(), seed=0)
    store = build_store(deployment)
    with pytest.raises(ConfigurationError):
        store.replicas("ghost")


def test_placement_missing_service_raises():
    machine = small_numa_machine()
    deployment = Deployment(machine, seed=0)
    placement = {"webui": [(machine.all_cpus(), None)]}
    with pytest.raises(ConfigurationError):
        build_store(deployment, placement=placement)


def test_placement_controls_replicas_and_affinity():
    machine = small_numa_machine()
    deployment = Deployment(machine, seed=0)
    placement = {
        name: [(machine.cpus_in_node(0), 0)]
        for name in SERVICE_NAMES
    }
    placement["webui"] = [(machine.cpus_in_node(0), 0),
                          (machine.cpus_in_node(1), 1)]
    store = build_store(deployment, placement=placement)
    assert store.replica_counts()["webui"] == 2
    assert store.replicas("webui")[1].home_node == 1
    assert store.replicas("db")[0].affinity == machine.cpus_in_node(0)


def test_single_browse_request_end_to_end():
    deployment = Deployment(small_numa_machine(), seed=0)
    build_store(deployment)
    done = deployment.dispatch("webui", "product")
    deployment.run()
    assert done.ok
    assert done.value == "<product>"
    # The product page touched auth, persistence, db, image, recommender.
    for service in ("auth", "persistence", "db", "image", "recommender"):
        instances = deployment.registry.instances_of(service)
        assert sum(i.completed for i in instances) >= 1


def test_store_under_load_produces_sane_metrics():
    deployment = Deployment(small_numa_machine(), seed=3)
    store = build_store(deployment)
    workload = ClosedLoopWorkload(
        deployment, store.session_factory("browse"),
        n_users=32, think_time=0.05)
    result = run_experiment(deployment, workload, warmup=1.0, duration=3.0)
    assert result.throughput > 50
    assert result.errors == 0
    assert 0.0 < result.machine_utilization <= 1.0
    # WebUI renders dominate CPU consumption, as in the paper's breakdown.
    share = result.service_share
    assert share["webui"] == max(share.values())
    assert sum(share.values()) == pytest.approx(1.0)
    assert share["db"] > 0


def test_db_serialization_caps_persistence_scaling():
    """More DB replicas with a serial fraction still beat one, but a high
    serial fraction must cap throughput well below linear."""
    def run(serial_fraction):
        deployment = Deployment(small_numa_machine(), seed=5)
        app = teastore_variant(steps=(
            ("db", "read", "serial_fraction", serial_fraction),
            ("db", "write", "serial_fraction", serial_fraction)))
        store = build_store(deployment, app)
        workload = ClosedLoopWorkload(
            deployment, store.session_factory("browse"),
            n_users=64, think_time=0.0)
        return run_experiment(deployment, workload,
                              warmup=1.0, duration=2.0).throughput

    assert run(0.9) < 0.7 * run(0.0)


def test_image_cache_hit_rate_changes_cost():
    def run(hit_rate):
        deployment = Deployment(small_numa_machine(), seed=7)
        store = build_store(deployment, teastore_variant(
            steps=(("image", "get", "hit_rate", hit_rate),)))
        workload = ClosedLoopWorkload(
            deployment, store.session_factory("browse"),
            n_users=48, think_time=0.0)
        return run_experiment(deployment, workload,
                              warmup=1.0, duration=2.0)

    cold = run(0.0)
    warm = run(1.0)
    assert warm.throughput > cold.throughput


def test_same_process_rerun_is_bit_identical():
    """Regression: global instance-id counters must not leak into random
    stream names — two identical runs in one process must agree exactly
    (this once broke via the image batch sampler)."""
    def once():
        deployment = Deployment(small_numa_machine(), seed=9)
        store = build_store(deployment)
        workload = ClosedLoopWorkload(
            deployment, store.session_factory("browse"),
            n_users=16, think_time=0.02)
        result = run_experiment(deployment, workload,
                                warmup=0.5, duration=1.0)
        return (result.throughput, result.latency_mean, result.latency_p99)

    assert once() == once()


def test_buy_profile_exercises_checkout():
    deployment = Deployment(small_numa_machine(), seed=4)
    store = build_store(deployment)
    workload = ClosedLoopWorkload(
        deployment, store.session_factory("buy"),
        n_users=24, think_time=0.02)
    result = run_experiment(deployment, workload, warmup=0.8, duration=2.0)
    assert result.errors == 0
    assert "checkout" in workload.latency.tags
    assert "cart_view" in workload.latency.tags
    # The write-heavy profile pushes more of the CPU into the DB than the
    # light-read endpoints alone would.
    assert result.service_share["db"] > 0.10


def test_buy_profile_stresses_db_more_than_browse():
    def share(session):
        deployment = Deployment(small_numa_machine(), seed=4)
        store = build_store(deployment)
        factory = store.session_factory(session)
        workload = ClosedLoopWorkload(deployment, factory,
                                      n_users=48, think_time=0.0)
        result = run_experiment(deployment, workload,
                                warmup=0.8, duration=2.0)
        return result.service_share["db"]

    assert share("buy") > share("browse")


def test_store_repr_lists_counts():
    deployment = Deployment(small_numa_machine(), seed=0)
    store = build_store(deployment)
    assert "webui×2" in repr(store)
