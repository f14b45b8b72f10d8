"""One benchmark repetition: a fresh process running one simulation.

Prints one JSON record (timings, provenance, work counters, digest and,
with ``--trace``, per-layer self times) as its last line of output::

    PYTHONPATH=src python3 simbench/worker.py --workload knee --seed 1 \\
        --spawned-at "$(python3 -c 'import time; print(time.monotonic())')"

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process.  ``time.monotonic`` reads the system-wide
monotonic clock on Linux, so set-up time covers interpreter start-up
and every import as well as building the model.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import typing as t

import layers
import workloads


def _import_repro() -> None:
    """Import every ``repro`` module a workload touches, so that
    ``setup.import_s`` holds the whole import cost."""
    import repro.chaos.campaign  # noqa: F401
    import repro.experiments.common  # noqa: F401
    import repro.experiments.e13_fault_tolerance  # noqa: F401
    import repro.sim.kernel  # noqa: F401


def measure(name: str, seed: int, *, spawned_at: float,
            trace: bool = False, backend: str | None = None,
            duration: float | None = None,
            spans_path: str | None = None) -> dict[str, t.Any]:
    """Run workload ``name`` once and return its record."""
    workload = workloads.WORKLOADS[name]
    _import_repro()
    imported_at = time.monotonic()
    from repro.services.deployment import Deployment
    from repro.sim import kernel

    recorder = layers.SpanRecorder() if trace else None
    restore = layers.install(recorder) if recorder is not None else None
    # Set-up ends, and the measured run starts, at the first call into
    # the simulation loop.
    started: list[float] = []
    original_run = Deployment.run

    def first_run(self, until=None):
        if not started:
            started.append(time.monotonic())
        return original_run(self, until)
    Deployment.run = first_run
    try:
        outcome = workloads.execute(
            workload, workloads.settings(workload, seed, duration), backend)
        finished_at = time.monotonic()
    finally:
        Deployment.run = original_run
        if restore is not None:
            restore()
    simulated = workloads.outputs(outcome)
    result = outcome.result
    record: dict[str, t.Any] = {
        "workload": name,
        "seed": seed,
        "traced": trace,
        "kernel": outcome.deployment.sim.kernel_backend,
        "compiled_model": outcome.deployment.compiled_model,
        "model_available": kernel.model_available(),
        "import_s": imported_at - spawned_at,
        "setup_s": started[0] - spawned_at,
        "run_s": finished_at - started[0],
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": result.completed + result.errors,
        "errors": result.errors,
        "counts": simulated["counts"],
        "resilience": simulated["resilience"],
        "digest": workloads.digest(simulated),
        "problems": workloads.invariants(workload, simulated),
    }
    if recorder is not None:
        record["layers"] = recorder.layers()
        if spans_path:
            recorder.write(spans_path)
    return record


def main(argv: t.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--backend", choices=("python", "compiled"))
    parser.add_argument("--duration", type=float)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    record = measure(args.workload, args.seed, spawned_at=args.spawned_at,
                     trace=args.trace, backend=args.backend,
                     duration=args.duration, spans_path=args.spans)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
