"""Command-line entry point: ``python -m repro`` / ``repro``.

Examples::

    repro list                     # available experiments
    repro platform                 # E1 table for the paper's machine
    repro run e8                   # the headline result, paper scale
    repro run e2 --fast            # quick small-machine version
    repro run all --fast --seed 7  # everything, quickly
    repro sweep e2 --jobs 8        # the same table, in parallel
    repro sweep all --fast         # everything, parallel + cached
"""

from __future__ import annotations

import argparse
import sys
import typing as t

from repro.experiments import ExperimentSettings
from repro.experiments import (
    ablations,
    e1_platform,
    e2_load_scaling,
    e3_core_scaling,
    e4_smt,
    e5_utilization,
    e6_service_scaling,
    e7_placement,
    e8_headline,
    e9_characterization,
    e10_numa,
    e11_latency_breakdown,
    e12_colocation,
    e13_fault_tolerance,
    e14_cross_app,
)
from repro.chaos import campaign as chaos_campaign
from repro.topology.presets import PRESETS

#: Experiment id → (description, runner).  The chaos campaign also has
#: its own verb (``repro chaos``) with catalog/grading flags, but runs
#: and sweeps like any experiment.
EXPERIMENTS: dict[str, tuple[str, t.Callable]] = {
    "e1": (e1_platform.TITLE, e1_platform.run),
    "e2": (e2_load_scaling.TITLE, e2_load_scaling.run),
    "e3": (e3_core_scaling.TITLE, e3_core_scaling.run),
    "e4": (e4_smt.TITLE, e4_smt.run),
    "e5": (e5_utilization.TITLE, e5_utilization.run),
    "e6": (e6_service_scaling.TITLE, e6_service_scaling.run),
    "e7": (e7_placement.TITLE, e7_placement.run),
    "e8": (e8_headline.TITLE, e8_headline.run),
    "e9": (e9_characterization.TITLE, e9_characterization.run),
    "e10": (e10_numa.TITLE, e10_numa.run),
    "e11": (e11_latency_breakdown.TITLE, e11_latency_breakdown.run),
    "e12": (e12_colocation.TITLE, e12_colocation.run),
    "e13": (e13_fault_tolerance.TITLE, e13_fault_tolerance.run),
    "e14": (e14_cross_app.TITLE, e14_cross_app.run),
    "chaos": (chaos_campaign.TITLE, chaos_campaign.run),
    "a1": ("Ablation: CCX code sharing", ablations.run_code_sharing),
    "a2": ("Ablation: frequency boost", ablations.run_frequency_ablation),
    "a3": ("Ablation: SMT yield", ablations.run_smt_yield_ablation),
    "a4": ("Ablation: memory-bandwidth contention",
           ablations.run_bandwidth_ablation),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TeaStore scale-up study reproduction (IISWC 2020)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list experiments")

    platform = subparsers.add_parser("platform",
                                     help="print the machine topology (E1)")
    platform.add_argument("--preset", default="rome-1s",
                          choices=sorted(PRESETS))
    platform.add_argument("--json", action="store_true",
                          help="emit the machine spec as JSON")

    apps = subparsers.add_parser(
        "apps", help="list the bundled application specs")
    apps.add_argument("--validate", action="store_true",
                      help="check the committed JSON spec files parse, "
                           "round-trip byte-stably, and match their "
                           "builders; exit 1 on any problem")
    apps.add_argument("--json", metavar="NAME", default=None,
                      help="print one application's canonical JSON spec")

    run = subparsers.add_parser("run", help="run experiments")
    run.add_argument("experiment",
                     choices=sorted(EXPERIMENTS) + ["all"],
                     help="experiment id, or 'all'")
    run.add_argument("--fast", action="store_true",
                     help="small machine, short windows")
    run.add_argument("--preset", default=None, choices=sorted(PRESETS),
                     help="override the machine preset")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--users", type=int, default=None)
    _add_app_argument(run)
    _add_scale_arguments(run)
    run.add_argument("--markdown", metavar="FILE", default=None,
                     help="also write a markdown report to FILE")
    run.add_argument("--figures", metavar="DIR", default=None,
                     help="also write SVG figures to DIR")
    _add_kernel_argument(run)

    sweep = subparsers.add_parser(
        "sweep",
        help="run experiments as parallel, cached, resumable sweeps")
    sweep.add_argument("experiment",
                       choices=sorted(EXPERIMENTS) + ["all"],
                       help="experiment id, or 'all'")
    sweep.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: all CPUs)")
    sweep.add_argument("--fast", action="store_true",
                       help="small machine, short windows")
    sweep.add_argument("--preset", default=None, choices=sorted(PRESETS),
                       help="override the machine preset")
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument("--users", type=int, default=None)
    _add_app_argument(sweep)
    _add_scale_arguments(sweep)
    sweep.add_argument("--no-cache", action="store_true",
                       help="disable the result cache entirely")
    sweep.add_argument("--rerun", action="store_true",
                       help="execute every point even on cache hits "
                            "(and refresh the entries)")
    sweep.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result-cache directory "
                            "(default: .repro-cache)")
    sweep.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-point completion timeout")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress progress lines")
    sweep.add_argument("--log", metavar="FILE", default=None,
                       help="JSONL run log "
                            "(default: <cache-dir>/last-sweep.jsonl)")
    sweep.add_argument("--bench", metavar="FILE",
                       default="BENCH_sweep.json",
                       help="sweep-perf artifact ('' disables)")
    sweep.add_argument("--markdown", metavar="FILE", default=None,
                       help="also write a markdown report to FILE")
    _add_kernel_argument(sweep)

    chaos = subparsers.add_parser(
        "chaos",
        help="run graded chaos campaigns (bottleneck scenario catalog "
             "x resilience grid)")
    chaos.add_argument("action", nargs="?", default="run",
                       choices=("run",),
                       help="campaign action (default: run)")
    chaos.add_argument("--list-scenarios", action="store_true",
                       help="print the builtin scenario catalog and exit")
    chaos.add_argument("--grade", metavar="FILE", default=None,
                       help="re-grade a campaign artifact written by "
                            "--out; exit 1 if any cell grades FAIL")
    chaos.add_argument("--scenarios", action="append", default=None,
                       metavar="NAME",
                       help="limit to one catalog scenario (repeatable; "
                            "default: the full catalog)")
    chaos.add_argument("--modes", action="append", default=None,
                       metavar="MODE", choices=("none", "timeout", "full"),
                       help="limit to one resilience mode (repeatable; "
                            "default: all three)")
    chaos.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default: 1; results are "
                            "byte-identical at any value)")
    chaos.add_argument("--fast", action="store_true",
                       help="small machine, short windows")
    chaos.add_argument("--preset", default=None, choices=sorted(PRESETS),
                       help="override the machine preset")
    chaos.add_argument("--seed", type=int, default=1)
    chaos.add_argument("--users", type=int, default=None)
    _add_app_argument(chaos)
    _add_scale_arguments(chaos)
    chaos.add_argument("--no-cache", action="store_true",
                       help="disable the result cache entirely")
    chaos.add_argument("--rerun", action="store_true",
                       help="execute every cell even on cache hits")
    chaos.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result-cache directory "
                            "(default: .repro-cache)")
    chaos.add_argument("--out", metavar="FILE", default=None,
                       help="write the campaign artifact (settings + "
                            "per-cell payloads) as JSON to FILE")
    chaos.add_argument("--markdown", metavar="FILE", default=None,
                       help="also write a markdown report to FILE")
    _add_kernel_argument(chaos)

    perfbench = subparsers.add_parser(
        "perfbench",
        help="time canonical E2/E8/E13 slices and append to the "
             "wall-clock perf trajectory")
    perfbench.add_argument("--mode", default="smoke",
                           choices=("smoke", "full"),
                           help="smoke: seconds-scale CI slices; "
                                "full: fast-profile experiment scale")
    perfbench.add_argument("--slice", action="append", default=None,
                           dest="slices", metavar="NAME",
                           help="limit to one slice (repeatable); "
                                "default: all")
    perfbench.add_argument("--repeat", type=int, default=None,
                           help="repeats per slice (default: 2 smoke, "
                                "3 full; min is reported)")
    perfbench.add_argument("--mem", action="store_true",
                           help="profile peak memory (tracemalloc + "
                                "RUSAGE RSS) instead of wall time")
    perfbench.add_argument("--extended", action="store_true",
                           help="include extended slices (e.g. the "
                                "10k-user E2 point in full mode)")
    perfbench.add_argument("--out", metavar="FILE",
                           default="BENCH_perf.json",
                           help="trajectory artifact to append to "
                                "('' disables writing)")
    perfbench.add_argument("--label", default=None,
                           help="label for the trajectory entry "
                                "(default: short git SHA, or 'manual' "
                                "outside a work tree)")
    perfbench.add_argument("--check", metavar="FILE", default=None,
                           help="compare against the newest same-mode "
                                "entry in FILE; exit 1 on regression")
    perfbench.add_argument("--threshold", type=float, default=None,
                           help="allowed slowdown fraction for --check "
                                "(default 0.25)")
    perfbench.add_argument("--profile", action="store_true",
                           help="run each slice once under cProfile and "
                                "print the hottest functions instead of "
                                "recording a trajectory entry")
    perfbench.add_argument("--top", type=int, default=20, metavar="N",
                           help="functions shown per --profile report "
                                "(default 20)")
    perfbench.add_argument("--profile-json", metavar="FILE", default=None,
                           dest="profile_json",
                           help="profile each slice and write the top-N "
                                "hotspot tables as a JSON artifact to "
                                "FILE (no trajectory entry is recorded)")
    perfbench.add_argument("--list-slices", action="store_true",
                           help="print every known mode*slice (standard "
                                "and extended) and exit")
    _add_app_argument(perfbench)
    _add_kernel_argument(perfbench)
    return parser


def _add_app_argument(subparser: argparse.ArgumentParser) -> None:
    from repro.apps.registry import APP_NAMES
    subparser.add_argument(
        "--app", default="teastore", choices=APP_NAMES,
        help="application under test (default: teastore)")


def _add_scale_arguments(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--cohort-factor", type=int, default=1, metavar="N",
        help="collapse N statistically identical users per weighted "
             "cohort (1 = exact per-user baseline)")
    subparser.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="partition the population across N sharded deployments "
             "with window-synced shared services (1 = single process; "
             "set REPRO_SCALE_JOBS to fan shards out over processes)")


def _add_kernel_argument(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--kernel", default=None,
        choices=("auto", "python", "compiled"),
        help="event-loop backend (default: REPRO_KERNEL env or auto; "
             "'compiled' fails if the extension is not built)")


def _apply_kernel_choice(args: argparse.Namespace) -> None:
    """Pin the kernel backend for this process *and* worker processes.

    The session default covers in-process simulators; the environment
    variable carries the choice into sweep worker processes, which
    build their own simulators from a fresh interpreter.
    """
    choice = getattr(args, "kernel", None)
    if choice is None:
        return
    import os

    from repro.sim import kernel

    kernel.set_default_backend(choice)
    os.environ[kernel.KERNEL_ENV] = choice


def _settings_for(args: argparse.Namespace,
                  experiment_id: str) -> ExperimentSettings:
    overrides: dict[str, t.Any] = {"seed": args.seed}
    if args.preset is not None:
        overrides["preset"] = args.preset
    elif experiment_id == "e10" and not args.fast:
        overrides["preset"] = "rome-2s"  # E10 needs two NUMA nodes
    if args.users is not None:
        overrides["users"] = args.users
    if hasattr(args, "app"):
        overrides["app"] = args.app
    if getattr(args, "cohort_factor", 1) != 1:
        overrides["cohort_factor"] = args.cohort_factor
    if getattr(args, "shards", 1) != 1:
        overrides["shards"] = args.shards
    if args.fast:
        if experiment_id == "e10" and "preset" not in overrides:
            overrides["preset"] = "small"  # smallest 2-node machine
        return ExperimentSettings.fast(**overrides)
    return ExperimentSettings.full(**overrides)


def main(argv: t.Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    _apply_kernel_choice(args)

    if args.command == "list":
        for experiment_id, (title, __) in sorted(EXPERIMENTS.items()):
            print(f"{experiment_id:4s} {title}")
        return 0

    if args.command == "platform":
        from repro.topology.presets import machine_from_preset
        machine = machine_from_preset(args.preset)
        if args.json:
            import json
            from repro.topology.serialize import machine_to_dict
            print(json.dumps(machine_to_dict(machine), indent=2))
        else:
            print(machine.describe())
        return 0

    if args.command == "apps":
        return _run_apps(args)

    if args.command == "sweep":
        return _run_sweeps(args)

    if args.command == "chaos":
        return _run_chaos(args)

    if args.command == "perfbench":
        return _run_perfbench(args)

    experiment_ids = (sorted(EXPERIMENTS) if args.experiment == "all"
                      else [args.experiment])
    results = []
    for experiment_id in experiment_ids:
        __, runner = EXPERIMENTS[experiment_id]
        settings = _settings_for(args, experiment_id)
        result = runner(settings)
        results.append(result)
        print(result.render())
        print()
    if args.markdown is not None:
        from repro.report import build_report
        settings = _settings_for(args, experiment_ids[0])
        report = build_report(results, machine=settings.machine())
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"markdown report written to {args.markdown}")
    if args.figures is not None:
        from repro.experiments.figures import write_figures
        written = write_figures(results, args.figures)
        print(f"{len(written)} figures written to {args.figures}")
    return 0


def _run_apps(args: argparse.Namespace) -> int:
    """The ``repro apps`` verb: bundled spec listing and lint gate."""
    from repro.apps.registry import APP_NAMES, get_app, verify_bundled

    if args.validate:
        problems = verify_bundled()
        for problem in problems:
            print(f"SPEC PROBLEM: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(f"{len(APP_NAMES)} bundled specs validated: "
              f"{', '.join(APP_NAMES)}")
        return 0
    if args.json is not None:
        print(get_app(args.json).dumps(), end="")
        return 0
    for name in APP_NAMES:
        spec = get_app(name)
        roles = ", ".join(f"{role}={service}"
                          for role, service in sorted(spec.chaos_targets.items()))
        print(f"{name:10s} {len(spec.services):2d} services  "
              f"sessions: {', '.join(s.name for s in spec.sessions)}")
        print(f"{'':10s} {spec.description}")
        print(f"{'':10s} chaos roles: {roles}")
    return 0


def _run_sweeps(args: argparse.Namespace) -> int:
    """The ``repro sweep`` verb: parallel, cached, resumable runs."""
    import os
    import pathlib

    from repro.orchestrator import (
        ProgressReporter,
        ResultCache,
        SweepInterrupted,
        SweepTimeout,
        run_sweep,
        write_bench_artifact,
    )

    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    if jobs < 1:
        print(f"--jobs must be >= 1 (got {jobs})", file=sys.stderr)
        return 2
    cache_dir = pathlib.Path(args.cache_dir or ".repro-cache")
    cache = None if args.no_cache else ResultCache(cache_dir)
    log_path = args.log or str(cache_dir / "last-sweep.jsonl")
    pathlib.Path(log_path).parent.mkdir(parents=True, exist_ok=True)
    experiment_ids = (sorted(EXPERIMENTS) if args.experiment == "all"
                      else [args.experiment])

    results = []
    stats = []
    with open(log_path, "w", encoding="utf-8") as log_handle:
        for experiment_id in experiment_ids:
            settings = _settings_for(args, experiment_id)
            progress = ProgressReporter(experiment_id, log=log_handle,
                                        quiet=args.quiet)
            try:
                outcome = run_sweep(experiment_id, settings, jobs=jobs,
                                    cache=cache, rerun=args.rerun,
                                    point_timeout=args.timeout,
                                    progress=progress)
            except SweepInterrupted as interrupted:
                print(interrupted, file=sys.stderr)
                return 130
            except SweepTimeout as timed_out:
                print(f"sweep {experiment_id} timed out: {timed_out}",
                      file=sys.stderr)
                return 1
            results.append(outcome.result)
            stats.append(outcome.stats)
            print(outcome.result.render())
            print()

    if args.bench:
        write_bench_artifact(args.bench, stats, jobs)
        print(f"sweep bench artifact written to {args.bench}")
    if args.markdown is not None:
        from repro.report import build_report
        settings = _settings_for(args, experiment_ids[0])
        report = build_report(results, machine=settings.machine(),
                              sweep_stats=[s.to_dict() for s in stats])
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"markdown report written to {args.markdown}")
    return 0


def _run_chaos(args: argparse.Namespace) -> int:
    """The ``repro chaos`` verb: graded campaigns over the catalog."""
    import json
    import pathlib

    from repro.chaos import campaign, catalog, grading
    from repro.experiments.common import ExperimentSettings
    from repro.orchestrator import (
        ResultCache,
        SweepInterrupted,
        SweepTimeout,
        run_sweep,
    )

    if args.list_scenarios:
        app = _settings_for(args, "chaos").application()
        for scenario in catalog.builtin_catalog(app):
            faults = (", ".join(str(f["kind"]) for f in scenario.faults)
                      or "none")
            print(f"{scenario.name:18s} {scenario.bottleneck_class:26s} "
                  f"target={scenario.target:14s} "
                  f"({scenario.target_for(app)}) faults={faults}")
            print(f"{'':18s} {scenario.description}")
        return 0

    if args.grade is not None:
        with open(args.grade, encoding="utf-8") as handle:
            artifact = json.load(handle)
        settings = ExperimentSettings.from_dict(artifact["settings"])
        payloads = artifact["payloads"]
        reports = campaign.cascades_from_payloads(payloads)
        graded_catalog = catalog.builtin_catalog(settings.application())
        failed = False
        for payload, report in zip(payloads, reports):
            scenario = catalog.scenario_by_name(payload["scenario"],
                                                graded_catalog)
            grade = grading.grade_scenario(
                scenario, report,
                error_rate=float(payload["error_rate"]),
                window=settings.duration)
            failed = failed or grade.grade == "FAIL"
            print(f"{payload['scenario']}/{payload['resilience']}: "
                  f"{grade.grade}")
            for reason in grade.reasons:
                print(f"  - {reason}")
        return 1 if failed else 0

    if args.jobs < 1:
        print(f"--jobs must be >= 1 (got {args.jobs})", file=sys.stderr)
        return 2
    settings = _settings_for(args, "chaos")
    points = campaign.campaign_points(settings, args.scenarios, args.modes)
    cache_dir = pathlib.Path(args.cache_dir or ".repro-cache")
    cache = None if args.no_cache else ResultCache(cache_dir)
    try:
        outcome = run_sweep("chaos", settings, jobs=args.jobs,
                            cache=cache, rerun=args.rerun, points=points)
    except SweepInterrupted as interrupted:
        print(interrupted, file=sys.stderr)
        return 130
    except SweepTimeout as timed_out:
        print(f"chaos campaign timed out: {timed_out}", file=sys.stderr)
        return 1
    print(outcome.result.render())
    if args.out is not None:
        artifact = {"settings": settings.to_dict(),
                    "payloads": list(outcome.payloads)}
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
        print(f"campaign artifact written to {args.out}")
    if args.markdown is not None:
        from repro.report import build_report
        report = build_report([outcome.result],
                              machine=settings.machine())
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"markdown report written to {args.markdown}")
    return 0


def _run_perfbench(args: argparse.Namespace) -> int:
    """The ``repro perfbench`` verb: wall/memory trajectory + gates."""
    from repro.orchestrator import perfbench

    if args.list_slices:
        for row in perfbench.list_slices():
            kind = "extended" if row["extended"] else "standard"
            scale = ""
            if row["scale"] is not None:
                scale = (f" [shards={row['scale']['shards']} "
                         f"cohort_factor={row['scale']['cohort_factor']}]")
            print(f"{row['mode']}/{row['name']:10s} {kind:8s} "
                  f"{row['description']}{scale}")
        return 0
    if args.profile or args.profile_json:
        if args.profile:
            for name in perfbench._resolve_names(args.mode, args.slices,
                                                 args.extended, args.app):
                print(perfbench.profile_slice(args.mode, name,
                                              top=args.top, app=args.app))
        if args.profile_json:
            import json as json_mod
            import pathlib
            payload = perfbench.profile_artifact(
                args.mode, slices=args.slices, extended=args.extended,
                top=args.top, app=args.app, label=args.label)
            target = pathlib.Path(args.profile_json)
            if target.parent != pathlib.Path(""):
                target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(json_mod.dumps(payload, indent=2) + "\n",
                              encoding="utf-8")
            print(f"profile artifact written to {args.profile_json}")
        return 0
    if args.mem:
        return _run_membench(args)
    results = perfbench.run_perfbench(
        args.mode, slices=args.slices, repeat=args.repeat,
        extended=args.extended, progress=print, app=args.app)
    if args.out:
        entry = perfbench.trajectory_entry(results, args.mode,
                                           label=args.label, app=args.app)
        perfbench.append_trajectory(args.out, entry)
        print(f"perf trajectory appended to {args.out}")
    if args.check is not None:
        baseline = perfbench.baseline_entry(args.check, args.mode,
                                            app=args.app)
        threshold = (args.threshold if args.threshold is not None
                     else perfbench.DEFAULT_THRESHOLD)
        failures = perfbench.check_against_baseline(results, baseline,
                                                    threshold)
        for failure in failures:
            print(f"PERF REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"perf gate passed (threshold {threshold:.0%} vs "
              f"{args.check})")
    return 0


def _run_membench(args: argparse.Namespace) -> int:
    """``repro perfbench --mem``: peak-memory trajectory + gate."""
    from repro.orchestrator import perfbench

    results = perfbench.run_membench(
        args.mode, slices=args.slices, extended=args.extended,
        progress=print, app=args.app)
    if args.out:
        entry = perfbench.memory_entry(results, args.mode,
                                       label=args.label, app=args.app)
        perfbench.append_trajectory(args.out, entry)
        print(f"memory trajectory appended to {args.out}")
    if args.check is not None:
        baseline = perfbench.baseline_entry(args.check, args.mode,
                                            metric="mem", app=args.app)
        threshold = (args.threshold if args.threshold is not None
                     else perfbench.DEFAULT_MEM_THRESHOLD)
        failures = perfbench.check_memory_against_baseline(
            results, baseline, threshold)
        for failure in failures:
            print(f"MEMORY REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"memory gate passed (threshold {threshold:.0%} vs "
              f"{args.check})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
