"""Tests for the SPEC-class comparison kernels and the counter pipeline."""

import pytest

from repro.apps import get_app
from repro.metrics import CounterBank
from repro.spec import KERNEL_NAMES, batch_kernel_profiles, run_batch_kernels
from repro.topology import small_numa_machine


def test_kernel_profiles_cover_names():
    profiles = batch_kernel_profiles()
    assert set(profiles) == set(KERNEL_NAMES)


def test_kernels_are_the_anti_microservice():
    """The characterization contrast: small code, high IPC, low
    front-end sensitivity — the opposite of the TeaStore services."""
    kernels = batch_kernel_profiles()
    services = get_app("teastore").profiles()
    max_kernel_code = max(p.code_bytes for p in kernels.values())
    min_service_code = min(p.code_bytes for p in services.values())
    assert max_kernel_code < min_service_code
    assert min(p.base_ipc for p in kernels.values()) > max(
        p.base_ipc for p in services.values())
    assert max(p.frontend_intensity for p in kernels.values()) < min(
        p.frontend_intensity for p in services.values())
    assert max(p.l1i_mpki for p in kernels.values()) < min(
        p.l1i_mpki for p in services.values())


def test_run_batch_kernels_records_counters():
    bank = CounterBank()
    run_batch_kernels(small_numa_machine(), bank, bursts_per_kernel=20)
    assert set(bank.names) == set(KERNEL_NAMES)
    for name in KERNEL_NAMES:
        totals = bank.totals(name)
        assert totals.bursts == 20
        assert totals.instructions > 0
        assert totals.ipc > 0


def test_kernel_counters_show_high_ipc_low_l1i():
    bank = CounterBank()
    run_batch_kernels(small_numa_machine(), bank, bursts_per_kernel=30)
    spec_int = bank.totals("spec-int-like")
    assert spec_int.ipc > 1.5
    assert spec_int.l1i_mpki < 3.0
    stream = bank.totals("stream-like")
    # Streaming kernel: large working set in one CCX → memory-bound.
    assert stream.l3_mpki > spec_int.l3_mpki
    assert stream.memory_bound_fraction > spec_int.memory_bound_fraction


def test_kernels_deterministic_across_runs():
    def once():
        bank = CounterBank()
        run_batch_kernels(small_numa_machine(), bank,
                          bursts_per_kernel=10, seed=4)
        return bank.totals("spec-fp-like").cycles

    assert once() == once()


def test_counter_table_shape():
    bank = CounterBank()
    run_batch_kernels(small_numa_machine(), bank, bursts_per_kernel=5)
    table = bank.table()
    assert len(table) == len(KERNEL_NAMES)
    for row in table:
        assert {"workload", "ipc", "l1i_mpki", "l3_mpki",
                "frontend_bound", "memory_bound"} <= set(row)
