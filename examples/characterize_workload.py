#!/usr/bin/env python3
"""Microarchitectural characterization: TeaStore vs SPEC-class kernels.

Runs the store under load with the synthetic hardware-counter model
attached, runs the SPEC-class comparison kernels through the same
pipeline, and prints the paper-style contrast table: microservices are
low-IPC, front-end-hungry workloads — nothing like the loop kernels
server CPUs are designed against.

Run:  python examples/characterize_workload.py
"""

from repro import (
    ClosedLoopWorkload,
    CounterBank,
    Deployment,
    deploy_application,
    get_app,
    run_experiment,
    single_socket_rome,
)
from repro.spec import run_batch_kernels
from repro.spec.kernels import KERNEL_NAMES


def main() -> None:
    machine = single_socket_rome()
    bank = CounterBank()

    deployment = Deployment(machine, seed=11, counter_sink=bank)
    store = deploy_application(deployment, get_app("teastore"))
    service_names = store.spec.service_names()
    workload = ClosedLoopWorkload(
        deployment, store.session_factory("browse"),
        n_users=1200, think_time=0.125)
    run_experiment(deployment, workload, warmup=1.0, duration=2.0)

    run_batch_kernels(machine, bank, bursts_per_kernel=150, seed=11)

    header = (f"{'workload':14s} {'class':13s} {'IPC':>5s} "
              f"{'L1i-MPKI':>9s} {'L3-MPKI':>8s} {'FE-bound':>9s} "
              f"{'MEM-bound':>10s}")
    print(header)
    print("-" * len(header))
    for name in service_names + KERNEL_NAMES:
        totals = bank.totals(name)
        klass = "microservice" if name in service_names else "spec-class"
        print(f"{name:14s} {klass:13s} {totals.ipc:5.2f} "
              f"{totals.l1i_mpki:9.1f} {totals.l3_mpki:8.2f} "
              f"{totals.frontend_bound_fraction:9.1%} "
              f"{totals.memory_bound_fraction:10.1%}")

    services = [bank.totals(n) for n in service_names]
    kernels = [bank.totals(n) for n in KERNEL_NAMES]
    print()
    print(f"mean IPC      — services: "
          f"{sum(t.ipc for t in services) / len(services):.2f}   "
          f"kernels: {sum(t.ipc for t in kernels) / len(kernels):.2f}")
    print(f"mean L1i MPKI — services: "
          f"{sum(t.l1i_mpki for t in services) / len(services):.1f}   "
          f"kernels: "
          f"{sum(t.l1i_mpki for t in kernels) / len(kernels):.1f}")


if __name__ == "__main__":
    main()
