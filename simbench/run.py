"""Simulator benchmark: host cost of one simulation, end to end and per layer.

Run from the root of a source checkout::

    python3 simbench/run.py --workload knee --seed 1 --seconds 20 --trace 0

It builds the compiled extensions unless they are newer than their
sources (``python setup.py build_ext --inplace``), then starts fresh worker
processes one after another, each running one simulation of the
workload, until ``--seconds`` of host time have passed.  Every worker's
simulated outputs are digested and checked: all repetitions must agree,
a recorded digest for the workload and seed must match (for a seed
without one, an extra worker runs the default seed against its recorded
digest), and ``knee-py`` is re-run once on the compiled backend, whose
digest must match too.

With ``--trace 0`` it reports the end-to-end metrics (medians over the
repetitions); with ``--trace 1`` it alternates untraced and traced
repetitions and reports the per-layer metrics.  The last line of output
is one JSON object: ``correct``, ``attempted`` and ``failed`` (simulated
client requests; every request of a repetition that crashed or failed a
check counts as failed) and ``metrics``.  The exit code is 0 when every
check passed, 1 when one failed, and 2 when nothing could be run.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import sysconfig
import time
import typing as t

import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: Build products and span files; ignored by git.
OUT = ROOT / ".bench_build"
#: A worker that takes longer than this is killed and counts as failed;
#: with one hung worker a run still ends well within three minutes.
WORKER_TIMEOUT_S = 60.0

Record = dict[str, t.Any]


def built() -> bool:
    """Whether both extensions exist and are newer than their sources."""
    sim = ROOT / "src" / "repro" / "sim"
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    for module in ("_ckernel", "_cmodel"):
        binary = sim / f"{module}{suffix}"
        if not binary.is_file() or (binary.stat().st_mtime
                                    < (sim / f"{module}.c").stat().st_mtime):
            return False
    return True


def give_up(message: str) -> t.NoReturn:
    """Exit 2 without a result: there is nothing to measure."""
    print(f"simbench: {message}", file=sys.stderr)
    sys.exit(2)


def build() -> None:
    """Build the compiled extensions in place, or give up."""
    if not ((ROOT / "setup.py").is_file()
            and (ROOT / "src" / "repro").is_dir()):
        give_up(f"no repro source tree at {ROOT}")
    if built():
        return
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
         "--build-temp", str(OUT / "temp"), "--build-lib", str(OUT / "lib")],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        give_up(f"building the extensions failed (exit {proc.returncode})")


def spawn(workload: str, seed: int, *, trace: bool = False,
          backend: str | None = None,
          duration: float | None = None) -> Record:
    """Run one worker process; its record, or a failure record."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--trace", "--spans", str(OUT / f"{workload}.spans.npz")]
    if backend is not None:
        cmd += ["--backend", backend]
    if duration is not None:
        cmd += ["--duration", repr(duration)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"failed": f"worker timed out after {WORKER_TIMEOUT_S} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"failed": f"worker exited {proc.returncode}: {tail[0]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: workloads.Workload, seed: int, records: list[Record],
          cross: Record | None, recorded: str | None,
          reference: tuple[Record, str] | None = None) -> list[str]:
    """Every check across repetitions; returns the failures.

    ``cross`` is the same seed on the compiled backend (``knee-py``);
    ``reference`` is a run of the default seed with its recorded digest,
    made when ``seed`` has none.  A repetition that fails on its own is
    marked ``failed``; when a run-wide check fails (the repetitions
    disagree, or differ from a recorded or the other backend's digest),
    all of them are.
    """
    for record in records:
        if "failed" in record:
            continue
        own = list(record["problems"])
        if record["kernel"] != workload.backend:
            own.append(f"ran on the {record['kernel']} kernel")
        if record["compiled_model"] != (workload.backend == "compiled"):
            own.append("model layer does not match the kernel backend")
        if own:
            record["failed"] = "; ".join(own)
    problems = [record["failed"] for record in records if "failed" in record]
    digests = {record["digest"] for record in records if "digest" in record}
    run_wide = []
    if len(digests) > 1:
        run_wide.append(f"repetitions disagree: {len(digests)} digests")
    if recorded is not None and digests and digests != {recorded}:
        run_wide.append(f"digest differs from the one recorded for "
                        f"{workload.name} seed {seed}")
    if cross is not None:
        if "failed" in cross:
            run_wide.append(f"compiled cross-check: {cross['failed']}")
        elif digests and {cross["digest"]} != digests:
            run_wide.append("python and compiled backends disagree")
    if reference is not None:
        record, expected = reference
        if record.get("digest") != expected:
            run_wide.append(record.get(
                "failed", f"digest of the default seed differs from the "
                          f"one recorded for {workload.name}"))
    for record in records if run_wide else ():
        record.setdefault("failed", run_wide[0])
    return problems + run_wide


def median(records: list[Record], key: t.Callable[[Record], float]) -> float:
    return statistics.median(key(record) for record in records)


def end_to_end(records: list[Record]) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics: medians over untraced repetitions."""
    return {
        "setup_s": (median(records, lambda r: r["setup_s"]), "s"),
        "run_s": (median(records, lambda r: r["run_s"]), "s"),
        "peak_rss_mb": (median(records, lambda r: r["peak_rss_mb"]), "MB"),
    }


def per_layer(untraced: list[Record], traced: list[Record]
              ) -> tuple[dict[str, tuple[float, str]], dict[str, str]]:
    """Per-layer metrics, plus the ones this workload cannot measure
    (with the reason).

    Counters come from the untraced repetitions (and repeat exactly);
    times are medians over the traced ones.
    """
    counts = untraced[0]["counts"]
    resilience = untraced[0]["resilience"]
    calls = traced[0]["layers"]

    def self_s(*names: str) -> float:
        return median(traced, lambda r: sum(r["layers"][name]["self_s"]
                                            for name in names))

    def uncovered(record: Record) -> float:
        return record["run_s"] - sum(
            layer["self_s"] for name, layer in record["layers"].items()
            if not name.startswith("setup."))

    run_s = median(untraced, lambda r: r["run_s"])
    events = counts["sim.events"]
    bursts = counts["cpu.bursts"]
    metrics = {
        "sim.events": (events, "count"),
        "sim.us_per_event": (run_s / events * 1e6, "us"),
        "sim.self_s": (median(traced, uncovered), "s"),
        "cpu.bursts": (bursts, "count"),
        "cpu.steals": (counts["cpu.steals"], "count"),
        "cpu.steal_ratio": (counts["cpu.steals"] / bursts, "fraction"),
        "services.rpcs": (counts["services.rpcs"], "count"),
        "services.dispatch_s": (self_s("services.dispatch"), "s"),
        "services.deliver_s": (self_s("services.deliver"), "s"),
        "services.lookup_s": (self_s("services.lookup"), "s"),
        "services.attempts": (resilience["attempts"], "count"),
        "services.retries": (resilience["retries"], "count"),
        "services.timeouts": (resilience["timeouts"], "count"),
        "apps.handler_steps": (calls["apps.handler"]["calls"], "count"),
        "apps.handler_s": (self_s("apps.handler"), "s"),
        "apps.ctx_s": (self_s("apps.ctx"), "s"),
        "workload.requests": (calls["workload.session"]["calls"], "count"),
        "workload.session_s": (self_s("workload.session"), "s"),
        "workload.user_s": (self_s("workload.user"), "s"),
        "workload.faults": (counts["workload.faults"], "count"),
        "metrics.samples": (calls["metrics.record"]["calls"], "count"),
        "metrics.record_s": (self_s("metrics.record"), "s"),
        "metrics.summarize_s": (self_s("metrics.summarize"), "s"),
        "tracing.spans": (counts["tracing.spans"], "count"),
        "setup.import_s": (median(traced, lambda r: r["import_s"]), "s"),
        "setup.spec_s": (self_s("setup.spec"), "s"),
        "setup.deploy_s": (self_s("setup.deploy"), "s"),
        "setup.workload_s": (self_s("setup.workload"), "s"),
        "bench.trace_overhead_s":
            (median(traced, lambda r: r["run_s"]) - run_s, "s"),
    }
    # Reported alongside, not in the JSON metrics: defined only where
    # the layer runs in Python, or where the workload exercises it.
    extra: dict[str, tuple[float, str]] = {}
    unmeasured: dict[str, str] = {}
    if calls["cpu.submit"]["calls"]:
        extra["cpu.submit_s"] = (self_s("cpu.submit"), "s")
    else:
        unmeasured["cpu.submit_s"] = ("the scheduler submit path runs in "
                                      "C (SchedCore) on this backend")
    if calls["memory.cpi"]["calls"]:
        extra["memory.cpi_calls"] = (calls["memory.cpi"]["calls"], "count")
        extra["memory.s"] = (self_s("memory.cpi", "memory.hooks"), "s")
    else:
        reason = "the MemorySystemModel hooks are inlined in C on this backend"
        unmeasured["memory.cpi_calls"] = unmeasured["memory.s"] = reason
    if calls["tracing.record"]["calls"]:
        extra["tracing.record_s"] = (self_s("tracing.record"), "s")
    else:
        unmeasured["tracing.record_s"] = ("no TraceCollector is attached "
                                          "on this workload")
    if resilience["attempts"]:
        extra["services.useful_ratio"] = (
            resilience["successes"] / resilience["attempts"], "fraction")
    else:
        unmeasured["services.useful_ratio"] = ("no call takes the "
                                               "resilient path")
    return {**metrics, **extra}, unmeasured


def main(argv: t.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="host seconds of repetitions to run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--duration", type=float,
                        help="override the simulated measurement window "
                             "(smoke tests; no recorded digest applies)")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    build()

    records: list[Record] = []
    began = time.monotonic()
    while not records or time.monotonic() - began < args.seconds:
        for trace in ((False, True) if args.trace else (False,)):
            records.append(spawn(workload.name, args.seed, trace=trace,
                                 duration=args.duration))
    cross = (spawn(workload.name, args.seed, backend="compiled",
                   duration=args.duration)
             if workload.backend == "python" else None)

    recorded = reference = None
    if args.duration is None:
        table = json.loads((HERE / "digests.json").read_text())
        known = table.get(workload.name, {})
        recorded = known.get(str(args.seed))
        if recorded is None and str(workloads.DEFAULT_SEED) in known:
            # This seed's outputs have no reference; check the program
            # against the default seed's instead.
            reference = (spawn(workload.name, workloads.DEFAULT_SEED),
                         known[str(workloads.DEFAULT_SEED)])
    problems = check(workload, args.seed, records, cross, recorded,
                     reference)

    ran = [record for record in records if "attempted" in record]
    size = max((record["attempted"] for record in ran), default=1)
    attempted = sum(record.get("attempted", size) for record in records)
    failed = sum(record.get("attempted", size) for record in records
                 if "failed" in record)
    simulated_errors = sum(record["errors"] for record in ran
                           if "failed" not in record)

    untraced = [r for r in ran if not r["traced"]]
    traced = [r for r in ran if r["traced"]]
    print(f"simbench {workload.name} seed={args.seed} "
          f"backend={workload.backend} repetitions={len(untraced)} untraced"
          f" + {len(traced)} traced")
    if ran:
        print(f"  kernel={ran[0]['kernel']} "
              f"model_available={ran[0]['model_available']} "
              f"compiled_model={ran[0]['compiled_model']} "
              f"digest={ran[0]['digest'][:16]} "
              f"recorded={'none' if recorded is None else recorded[:16]}"
              + (f" (seed {workloads.DEFAULT_SEED} checked instead)"
                 if reference is not None else ""))
    for problem in problems:
        print(f"  FAILED: {problem}")

    metrics: dict[str, tuple[float, str]] = {}
    unmeasured: dict[str, str] = {}
    if untraced:
        metrics = end_to_end(untraced)
        metrics["error_share"] = (
            (simulated_errors + failed) / attempted, "fraction")
        if traced:
            layer_metrics, unmeasured = per_layer(untraced, traced)
            metrics.update(layer_metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:24s} {value:>16.6g} {unit}")
    for name, reason in unmeasured.items():
        print(f"  {name:24s} {'unmeasured':>16s} ({reason})")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in
             declared["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]}
                    for name in names if name in metrics},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
