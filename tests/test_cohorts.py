"""Cohort compression: exactness at weight 1, planning invariants, and
recoverability of individual members by seed."""

import pytest

from repro._errors import WorkloadError
from repro.apps import deploy_application
from repro.experiments import ExperimentSettings
from repro.services.deployment import Deployment
from repro.sim import kernel
from repro.workload.closed import ClosedLoopWorkload
from repro.workload.runner import run_experiment
from repro.workload.cohorts import (
    Cohort,
    CohortWorkload,
    closed_workload,
    expand_member,
    plan_cohorts,
)

from ._apps import browse_profile
from ._kernels import backend_params


def tiny():
    return ExperimentSettings.fast(preset="tiny", users=24,
                                   warmup=0.1, duration=0.3)


def _run(settings, workload_cls, **workload_kwargs):
    deployment = Deployment(settings.machine(), seed=settings.seed,
                            memory_config=settings.memory_config)
    store = deploy_application(deployment, settings.application())
    workload = workload_cls(
        deployment, store.session_factory("browse"),
        n_users=settings.users, think_time=settings.think_time,
        **workload_kwargs)
    result = run_experiment(deployment, workload,
                            warmup=settings.warmup,
                            duration=settings.duration)
    return result, workload


class TestPlanning:
    def test_even_partition(self):
        cohorts = plan_cohorts(12, 4)
        assert [c.rep for c in cohorts] == [0, 4, 8]
        assert all(c.weight == 4 for c in cohorts)
        assert [uid for c in cohorts for uid in c.members] == list(range(12))

    def test_trailing_partial_cohort(self):
        cohorts = plan_cohorts(10, 4)
        assert [(c.rep, c.weight) for c in cohorts] == [(0, 4), (4, 4), (8, 2)]

    def test_factor_one_is_identity_layout(self):
        cohorts = plan_cohorts(5, 1)
        assert [(c.rep, c.weight) for c in cohorts] == [
            (0, 1), (1, 1), (2, 1), (3, 1), (4, 1)]

    def test_base_offsets_global_ids(self):
        cohorts = plan_cohorts(6, 4, base=100)
        assert [(c.rep, c.weight) for c in cohorts] == [(100, 4), (104, 2)]
        assert list(cohorts[1].members) == [104, 105]

    def test_validation(self):
        with pytest.raises(WorkloadError):
            plan_cohorts(0, 1)
        with pytest.raises(WorkloadError):
            plan_cohorts(4, 0)
        with pytest.raises(WorkloadError):
            Cohort(rep=-1, weight=1)
        with pytest.raises(WorkloadError):
            Cohort(rep=0, weight=0)

    def test_explicit_cohorts_must_cover_population(self):
        settings = tiny()
        deployment = Deployment(settings.machine(), seed=1)
        store = deploy_application(deployment, settings.application())
        with pytest.raises(WorkloadError):
            CohortWorkload(deployment, store.session_factory("browse"),
                           n_users=10, cohorts=[Cohort(0, 4)])


class TestWeightOneExactness:
    """The golden contract's load path: weight-1 cohorts must be
    byte-identical to per-user closed-loop generation on both kernels."""

    @pytest.mark.parametrize("backend", backend_params())
    def test_factor_one_matches_closed_loop(self, backend):
        settings = tiny()
        with kernel.use_backend(backend):
            baseline, __ = _run(settings, ClosedLoopWorkload)
            compressed, workload = _run(settings, CohortWorkload,
                                        cohort_factor=1)
        assert workload.n_cohorts == settings.users
        assert compressed == baseline

    def test_funnel_returns_cohort_workload(self):
        settings = tiny()
        deployment = Deployment(settings.machine(), seed=1)
        store = deploy_application(deployment, settings.application())
        workload = closed_workload(deployment,
                                   store.session_factory("browse"),
                                   n_users=8,
                                   think_time=settings.think_time)
        assert isinstance(workload, CohortWorkload)
        assert workload.n_cohorts == 8


class TestCompression:
    def test_compressed_run_preserves_aggregate_rate(self):
        settings = tiny()
        baseline, __ = _run(settings, CohortWorkload, cohort_factor=1)
        compressed, workload = _run(settings, CohortWorkload,
                                    cohort_factor=6)
        assert workload.n_cohorts == 4
        assert compressed.completed > 0
        # Think-dominated regime: the aggregate offered rate survives
        # compression (loose bound — queueing differs by design).
        assert (0.5 * baseline.throughput < compressed.throughput
                < 1.5 * baseline.throughput)

    def test_compressed_state_shrinks(self):
        settings = tiny()
        __, workload = _run(settings, CohortWorkload, cohort_factor=8)
        assert workload.n_users == settings.users
        assert workload.n_cohorts == 3


class TestExpansion:
    """Any member's session walk is recoverable from (seed, user_id)."""

    def test_expand_member_matches_live_run(self):
        settings = tiny()
        deployment = Deployment(settings.machine(), seed=settings.seed,
                                memory_config=settings.memory_config)
        store = deploy_application(deployment, settings.application())
        factory = store.session_factory("browse")
        recorded: dict[int, list] = {}

        def recording_factory(user_id):
            def tee():
                for step in factory(user_id):
                    recorded.setdefault(user_id, []).append(step)
                    yield step
            return tee()

        workload = CohortWorkload(deployment, recording_factory,
                                  n_users=settings.users,
                                  think_time=settings.think_time,
                                  cohort_factor=1)
        run_experiment(deployment, workload, warmup=settings.warmup,
                       duration=settings.duration)
        live = {uid: steps for uid, steps in recorded.items() if steps}
        assert live  # the run consumed sessions
        for user_id, steps in sorted(live.items())[:5]:
            replay = expand_member(browse_profile(), settings.seed,
                                   user_id, len(steps))
            assert replay == steps

    def test_expansion_is_deterministic_and_independent(self):
        first = expand_member(browse_profile(), seed=7, user_id=3,
                              n_steps=20)
        again = expand_member(browse_profile(), seed=7, user_id=3,
                              n_steps=20)
        other = expand_member(browse_profile(), seed=7, user_id=4,
                              n_steps=20)
        assert first == again
        assert first != other
        assert len(first) == 20

    def test_expansion_rejects_negative_steps(self):
        with pytest.raises(WorkloadError):
            expand_member(browse_profile(), seed=1, user_id=0, n_steps=-1)
