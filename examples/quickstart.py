#!/usr/bin/env python3
"""Quickstart: deploy TeaStore on a 128-logical-CPU server and load it.

Builds the paper's platform, deploys the six-service TeaStore with the
tuned default configuration, drives it with 1000 closed-loop browse users
for a few simulated seconds, and prints the headline metrics plus the
per-service CPU breakdown.

Run:  python examples/quickstart.py
"""

from repro import (
    ClosedLoopWorkload,
    Deployment,
    deploy_application,
    get_app,
    run_experiment,
    single_socket_rome,
)


def main() -> None:
    machine = single_socket_rome()
    print(machine.describe())
    print()

    deployment = Deployment(machine, seed=42)
    store = deploy_application(deployment, get_app("teastore"))
    print(f"deployed: {store}")

    workload = ClosedLoopWorkload(
        deployment, store.session_factory("browse"),
        n_users=1000, think_time=0.125)
    result = run_experiment(deployment, workload, warmup=1.0, duration=3.0)

    print()
    print(f"throughput:        {result.throughput:8.1f} req/s")
    print(f"mean latency:      {result.latency_mean * 1e3:8.2f} ms")
    print(f"p99 latency:       {result.latency_p99 * 1e3:8.2f} ms")
    print(f"machine util:      {result.machine_utilization * 100:8.1f} %")
    print(f"errors:            {result.errors:8d}")
    print()
    print("per-service CPU share:")
    for service, share in sorted(result.service_share.items(),
                                 key=lambda kv: kv[1], reverse=True):
        bar = "#" * int(share * 50)
        print(f"  {service:12s} {share * 100:5.1f}%  {bar}")


if __name__ == "__main__":
    main()
