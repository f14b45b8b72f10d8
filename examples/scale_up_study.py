#!/usr/bin/env python3
"""Scale-up study: core count, SMT, and boost — with USL fits.

Reproduces the characterization arc of the paper on one machine:

* throughput versus logical CPUs enabled (distinct cores first, then SMT
  siblings), with a Universal Scalability Law fit;
* the SMT on/off comparison at 64 physical cores;
* a text plot of the scaling curve.

Run:  python examples/scale_up_study.py
"""

from repro import (
    ClosedLoopWorkload,
    CpuSet,
    Deployment,
    deploy_application,
    fit_usl,
    get_app,
    run_experiment,
    single_socket_rome,
)

CPU_COUNTS = (16, 32, 64, 96, 128)


def measure(machine, online, users):
    deployment = Deployment(machine, seed=3, online=online)
    store = deploy_application(deployment, get_app("teastore"))
    workload = ClosedLoopWorkload(
        deployment, store.session_factory("browse"),
        n_users=users, think_time=0.125)
    return run_experiment(deployment, workload, warmup=1.0, duration=2.5)


def text_plot(points, width=50):
    peak = max(value for __, value in points)
    for label, value in points:
        bar = "#" * max(1, int(value / peak * width))
        print(f"  {label:>4} lcpus |{bar} {value:.0f} req/s")


def main() -> None:
    machine = single_socket_rome()
    print("=== throughput vs logical CPUs enabled ===")
    points = []
    for count in CPU_COUNTS:
        online = CpuSet.range(0, count)
        users = max(128, 2000 * count // machine.n_logical_cpus)
        result = measure(machine, online, users)
        points.append((count, result.throughput))
        print(f"{count:4d} lcpus: {result}")

    print()
    text_plot(points)

    fit = fit_usl([c for c, __ in points], [x for __, x in points])
    print(f"\nUSL fit: {fit}")
    print(f"predicted throughput at 256 lcpus: {fit.predict(256):.0f} "
          f"req/s (diminishing returns)")

    print("\n=== SMT on vs off (same 64 physical cores) ===")
    smt_off = measure(machine, machine.first_threads(), users=2000)
    smt_on = measure(machine, machine.all_cpus(), users=2000)
    print(f"SMT off (64 lcpus):  {smt_off}")
    print(f"SMT on (128 lcpus):  {smt_on}")
    print(f"SMT uplift: "
          f"{(smt_on.throughput / smt_off.throughput - 1) * 100:+.1f}%")


if __name__ == "__main__":
    main()
