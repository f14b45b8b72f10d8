"""Unit tests for load generators and the experiment runner."""

import pytest

from repro._errors import ConfigurationError, WorkloadError
from repro._units import ms
from repro.cpu import FlatFrequencyModel, SmtModel
from repro.memory import WorkloadProfile
from repro.services import Deployment, ServiceSpec
from repro.topology import medium_machine, tiny_machine
from repro.workload import ClosedLoopWorkload, OpenLoopWorkload, run_experiment


def simple_system(demand=ms(1.0), workers=4, seed=0):
    deployment = Deployment(tiny_machine(), seed=seed,
                            smt_model=SmtModel(2.0),
                            frequency_model=FlatFrequencyModel())
    deployment.rpc.hop_latency = 0.0
    profile = WorkloadProfile("svc", 1024, 1024, 0.2, 0.2)
    spec = ServiceSpec("svc", profile, workers=workers)

    @spec.endpoint("op")
    def op(ctx):
        yield ctx.submit_demand(demand)
        return "ok"

    deployment.add_instance(spec)
    return deployment


def constant_session(user_id):
    while True:
        yield ("svc", "op", None)


def test_closed_loop_completes_requests():
    deployment = simple_system()
    workload = ClosedLoopWorkload(deployment, constant_session,
                                  n_users=2, think_time=0.01)
    workload.start()
    deployment.run(until=1.0)
    assert workload.meter.lifetime_count > 50
    assert workload.errors == 0


def test_closed_loop_validation():
    deployment = simple_system()
    with pytest.raises(WorkloadError):
        ClosedLoopWorkload(deployment, constant_session, n_users=0)
    with pytest.raises(WorkloadError):
        ClosedLoopWorkload(deployment, constant_session, n_users=1,
                           think_time=-1.0)
    workload = ClosedLoopWorkload(deployment, constant_session, n_users=1)
    workload.start()
    with pytest.raises(WorkloadError):
        workload.start()


def test_closed_loop_interactive_response_time_law():
    # One user, zero-ish think time, 1ms service → ~1000 req/s.
    deployment = simple_system()
    workload = ClosedLoopWorkload(deployment, constant_session,
                                  n_users=1, think_time=0.0)
    result = run_experiment(deployment, workload, warmup=0.5, duration=2.0)
    assert result.throughput == pytest.approx(1000.0, rel=0.05)
    assert result.latency_mean == pytest.approx(ms(1.0), rel=0.05)


def test_closed_loop_throughput_scales_with_users_until_saturation():
    # 4 physical cores, 1ms demand → capacity 4000/s; 2 users ≈ 2000/s.
    results = {}
    for users in (1, 2, 8):
        deployment = simple_system(workers=8)
        workload = ClosedLoopWorkload(deployment, constant_session,
                                      n_users=users, think_time=0.0)
        results[users] = run_experiment(deployment, workload,
                                        warmup=0.5, duration=2.0).throughput
    assert results[2] == pytest.approx(2 * results[1], rel=0.1)
    # tiny machine has 4 cores + SMT-off model (yield 2.0 → no penalty,
    # but 8 lcpus) → 8 users saturate at ~8000/s.
    assert results[8] == pytest.approx(8000.0, rel=0.1)


def test_closed_loop_counts_errors_from_shedding():
    deployment = simple_system(demand=ms(50.0), workers=1)
    # Rebuild service with a tiny queue to force shedding.
    deployment = Deployment(tiny_machine(), smt_model=SmtModel(2.0),
                            frequency_model=FlatFrequencyModel())
    deployment.rpc.hop_latency = 0.0
    profile = WorkloadProfile("svc", 1024, 1024, 0.2, 0.2)
    spec = ServiceSpec("svc", profile, workers=1, queue_capacity=1)

    @spec.endpoint("op")
    def op(ctx):
        yield ctx.submit_demand(ms(50.0))
        return "ok"

    deployment.add_instance(spec)
    workload = ClosedLoopWorkload(deployment, constant_session,
                                  n_users=10, think_time=0.001)
    workload.start()
    deployment.run(until=1.0)
    assert workload.errors > 0


def test_open_loop_rate_is_respected():
    deployment = simple_system(workers=8)
    workload = OpenLoopWorkload(deployment, constant_session, rate=500.0)
    result = run_experiment(deployment, workload, warmup=1.0, duration=4.0)
    assert result.throughput == pytest.approx(500.0, rel=0.1)


def test_open_loop_validation():
    deployment = simple_system()
    with pytest.raises(WorkloadError):
        OpenLoopWorkload(deployment, constant_session, rate=0.0)
    workload = OpenLoopWorkload(deployment, constant_session, rate=1.0)
    workload.start()
    with pytest.raises(WorkloadError):
        workload.start()


def test_open_loop_latency_grows_with_overload():
    low_deployment = simple_system(workers=8)
    low = OpenLoopWorkload(low_deployment, constant_session, rate=1000.0)
    low_result = run_experiment(low_deployment, low, warmup=0.5, duration=2.0)

    high_deployment = simple_system(workers=8)
    # Offered load just above the ~8000/s capacity → queues build.
    high = OpenLoopWorkload(high_deployment, constant_session, rate=9000.0)
    high_result = run_experiment(high_deployment, high,
                                 warmup=0.5, duration=2.0)
    assert high_result.latency_p99 > 3 * low_result.latency_p99


def test_run_experiment_validation():
    deployment = simple_system()
    workload = ClosedLoopWorkload(deployment, constant_session, n_users=1)
    with pytest.raises(ConfigurationError):
        run_experiment(deployment, workload, warmup=-1.0, duration=1.0)
    with pytest.raises(ConfigurationError):
        run_experiment(deployment, workload, warmup=0.0, duration=0.0)


def test_run_experiment_reports_utilization_and_shares():
    deployment = simple_system(workers=8)
    workload = ClosedLoopWorkload(deployment, constant_session,
                                  n_users=4, think_time=0.0)
    result = run_experiment(deployment, workload, warmup=0.5, duration=2.0)
    assert 0.4 < result.machine_utilization <= 1.0
    assert result.service_share == {"svc": pytest.approx(1.0)}
    assert result.service_utilization["svc"] > 0
    assert "req/s" in str(result)
    assert result.row()["throughput_rps"] == result.throughput


def test_run_experiment_rejects_empty_measurement_window():
    # Users think for minutes; a 0.2s window sees no completions.
    deployment = simple_system()
    workload = ClosedLoopWorkload(deployment, constant_session,
                                  n_users=1, think_time=300.0)
    with pytest.raises(ConfigurationError, match="no requests completed"):
        run_experiment(deployment, workload, warmup=0.1, duration=0.2)


def test_weighted_mix_drives_real_store():
    from repro.teastore import build_teastore
    from repro.teastore.config import TeaStoreConfig
    from repro.topology import small_numa_machine
    from repro.workload import weighted_mix_session

    deployment = Deployment(small_numa_machine(), seed=2)
    config = TeaStoreConfig(
        replicas={"webui": 1, "auth": 1, "persistence": 1, "image": 1,
                  "recommender": 1, "db": 1},
        workers={"webui": 16, "auth": 8, "persistence": 8, "image": 8,
                 "recommender": 8, "db": 8})
    build_teastore(deployment, config)
    mix = {("webui", "home", None): 0.5,
           ("webui", "product", None): 0.5}
    workload = ClosedLoopWorkload(
        deployment, weighted_mix_session(deployment, mix),
        n_users=8, think_time=0.05)
    result = run_experiment(deployment, workload, warmup=0.5, duration=1.5)
    assert result.errors == 0
    assert set(result.latency_by_endpoint) == {"home", "product"}


def test_load_balancer_remove_unknown_raises():
    from repro.services import LoadBalancer
    balancer = LoadBalancer("svc")
    with pytest.raises(ConfigurationError):
        balancer.remove(object())


def test_run_experiment_is_deterministic():
    def once():
        deployment = simple_system(seed=11)
        workload = ClosedLoopWorkload(deployment, constant_session,
                                      n_users=3, think_time=0.01)
        return run_experiment(deployment, workload, warmup=0.5,
                              duration=1.5)

    a, b = once(), once()
    assert a.throughput == b.throughput
    assert a.latency_p99 == b.latency_p99


# ---------------------------------------------------------------------------
# Time-varying open-loop rate
# ---------------------------------------------------------------------------

def scalable_system():
    deployment = Deployment(medium_machine(), seed=4,
                            smt_model=SmtModel(2.0),
                            frequency_model=FlatFrequencyModel())
    deployment.rpc.hop_latency = 0.0
    profile = WorkloadProfile("svc", 1024, 1024, 0.1, 0.1)
    spec = ServiceSpec("svc", profile, workers=16)

    @spec.endpoint("op")
    def op(ctx):
        yield ctx.submit_demand(ms(2.0))
        return "ok"

    return deployment, spec


def session(user_id):
    while True:
        yield ("svc", "op", None)


def test_constant_rate_still_works():
    deployment, spec = scalable_system()
    deployment.add_instance(spec)
    workload = OpenLoopWorkload(deployment, session, rate=200.0)
    assert workload.current_rate() == 200.0


def test_rate_function_is_sampled_over_time():
    deployment, spec = scalable_system()
    deployment.add_instance(spec)
    workload = OpenLoopWorkload(deployment, session,
                                rate=lambda t: 100.0 + 100.0 * t)
    workload.start()
    deployment.run(until=2.0)
    assert workload.current_rate() == pytest.approx(300.0)
    # Mean rate over [0,2] is 200/s → ~400 arrivals.
    assert 250 < workload.meter.lifetime_count < 550


def test_rate_function_returning_nonpositive_raises():
    deployment, spec = scalable_system()
    deployment.add_instance(spec)
    workload = OpenLoopWorkload(deployment, session, rate=lambda t: -1.0)
    workload.start()
    with pytest.raises(WorkloadError):
        deployment.run(until=1.0)
