"""The ``BENCH_perf.json`` artifact: a wall-clock perf trajectory.

``repro perfbench`` times canonical E2/E8/E13 slices — each slice is a
fixed list of sweep points executed sequentially through the same
:func:`~repro.orchestrator.executor.execute_point` path the sweeps use —
and appends one trajectory entry per invocation, so the repository keeps
a wall-clock history of the simulator's speed alongside the sweep
telemetry in ``BENCH_sweep.json``.

Two modes:

* ``full`` — fast-profile experiment scale; the numbers the ≥1.8×
  optimization target is stated against.
* ``smoke`` — golden-digest scale (seconds total); what CI runs on
  every push, gated by :func:`check_against_baseline`.

Each slice is repeated and the **minimum** wall time is reported: the
minimum is the least noisy location statistic for wall-clock timing
(anything above it is scheduler/cache interference, never the code
being faster than it is).

``--mem`` switches the harness to memory profiling: each slice runs once
under :mod:`tracemalloc` and records its peak traced allocation (plus the
process's RUSAGE high-water RSS for context) as a ``metric: "mem"``
trajectory entry, gated by :func:`check_memory_against_baseline`.

The artifact is written by
:func:`repro.orchestrator.bench.append_to_trajectory`, which keeps the
newest :data:`_KEEP_PER_GROUP` entries per (mode, metric) group plus
the first-ever entry.  v1 artifacts are read transparently and upgraded
on the next append.
"""

from __future__ import annotations

import dataclasses
import pathlib
import platform
import resource
import time
import tracemalloc
import typing as t

from repro._errors import ConfigurationError
from repro.experiments.common import ExperimentSettings
from repro.orchestrator import plan as plan_mod
from repro.orchestrator.bench import append_to_trajectory, load_trajectory
from repro.orchestrator.executor import execute_point
from repro.sim import kernel as kernel_mod

#: The perf artifact's name.
PERF_ARTIFACT = "repro-perf-bench"

#: Default regression gate: fail when a slice is >25% slower than the
#: committed baseline.
DEFAULT_THRESHOLD = 0.25

#: Default memory gate: fail when a slice's peak traced allocation is
#: >50% above the committed baseline.  Allocation peaks are much less
#: noisy than wall time, but tracemalloc accounting shifts with Python
#: versions, so the margin stays generous.
DEFAULT_MEM_THRESHOLD = 0.5

#: Trajectory entries kept per (mode, metric) group after an append.
_KEEP_PER_GROUP = 50

#: Slice name → (experiment id, point labels to time, settings factory).
#: Labels select from the experiment's sweep plan; timing goes through
#: ``execute_point`` so the measured path is exactly the sweep path.
SliceSpec = tuple[str, tuple[str, ...], t.Callable[[], ExperimentSettings]]

_SLICES: dict[str, dict[str, SliceSpec]] = {
    "full": {
        "e2": ("e2", ("users=200", "users=400"),
               lambda: ExperimentSettings.fast(seed=1)),
        "e8": ("e8", ("tuned-baseline", "optimized"),
               lambda: ExperimentSettings.fast(seed=1)),
        "e13": ("e13", ("slow/full",),
                lambda: ExperimentSettings.fast(seed=1)),
    },
    "smoke": {
        "e2": ("e2", ("users=50",),
               lambda: ExperimentSettings.fast(
                   preset="tiny", users=48, warmup=0.1, duration=0.3,
                   seed=1)),
        "e8": ("e8", ("tuned-baseline",),
               lambda: ExperimentSettings.fast(
                   preset="medium", users=64, warmup=0.1, duration=0.3,
                   seed=1)),
        "e13": ("e13", ("slow/full",),
                lambda: ExperimentSettings.fast(
                    preset="tiny", users=32, warmup=0.1, duration=0.25,
                    seed=1)),
    },
}

@dataclasses.dataclass(frozen=True)
class ExtendedSlice:
    """One opt-in expensive slice of the perf harness.

    Extended slices build their sweep points directly because the stock
    experiment plans do not carry them; they run only under
    ``--extended`` or when named explicitly via ``--slice``.  ``scale``
    tags sharded/cohort-compressed points with their execution-tier
    config — it travels into every recorded result so the baseline gate
    never compares a sharded run against a single-process one.
    """

    name: str
    mode: str
    description: str
    build: t.Callable[[], "list[plan_mod.SweepPoint]"]
    #: ``{"shards": N, "cohort_factor": M}`` for scale-tier slices,
    #: ``None`` for single-process ones.
    scale: dict[str, int] | None = None
    #: Per-slice repeat override (e.g. 1 for the million-user point);
    #: ``None`` uses the mode default.
    repeat: int | None = None


#: mode → name → extended slice (populated by register_extended_slice).
_EXTENDED_SLICES: dict[str, dict[str, ExtendedSlice]] = {}


def register_extended_slice(slice_spec: ExtendedSlice) -> None:
    """Add one extended slice to the registry (data-driven, no lambdas
    buried in module constants — tests and plugins register the same
    way the built-ins below do)."""
    by_name = _EXTENDED_SLICES.setdefault(slice_spec.mode, {})
    if slice_spec.name in by_name:
        raise ConfigurationError(
            f"extended slice {slice_spec.mode}/{slice_spec.name} is "
            f"already registered")
    by_name[slice_spec.name] = slice_spec


def _e2_extended_points(users: int, settings: ExperimentSettings
                        ) -> list[plan_mod.SweepPoint]:
    """One out-of-plan E2 load point at ``users``."""
    return [plan_mod.SweepPoint("e2", 0, "load", f"users={users}",
                                settings, params=(("users", users),))]


# The memory-scaling point: 10k closed-loop users exercises the
# columnar measurement plane and the adaptive RNG prefetch far beyond
# the regular load curve — still a single process, no cohorts.
register_extended_slice(ExtendedSlice(
    name="e2-10k", mode="full",
    description="10k users, single process (columnar-plane memory point)",
    build=lambda: _e2_extended_points(
        10_000, ExperimentSettings.fast(seed=1))))

# The scale tier (repro.scale): cohort-compressed users on sharded
# deployments with conservative window sync.
register_extended_slice(ExtendedSlice(
    name="e2-100k", mode="full",
    description="100k users as 4 shards x cohort factor 100",
    build=lambda: _e2_extended_points(
        100_000, ExperimentSettings.fast(seed=1, shards=4,
                                         cohort_factor=100)),
    scale={"shards": 4, "cohort_factor": 100}))

register_extended_slice(ExtendedSlice(
    name="e2-1m", mode="full",
    description="1M users as 8 shards x cohort factor 250 (local only)",
    build=lambda: _e2_extended_points(
        1_000_000, ExperimentSettings.fast(seed=1, shards=8,
                                           cohort_factor=250)),
    scale={"shards": 8, "cohort_factor": 250},
    repeat=1))

register_extended_slice(ExtendedSlice(
    name="e2-100k", mode="smoke",
    description="CI-sized 100k-user sharded point (short windows)",
    build=lambda: _e2_extended_points(
        100_000, ExperimentSettings.fast(seed=1, warmup=0.2, duration=0.4,
                                         shards=4, cohort_factor=100)),
    scale={"shards": 4, "cohort_factor": 100},
    repeat=1))

#: Repeats per slice, by mode.
_REPEATS = {"full": 3, "smoke": 2}


def list_slices() -> list[dict[str, t.Any]]:
    """Every known mode×slice, standard and extended, as sorted rows.

    Each row carries ``mode``, ``name``, ``extended``, ``description``,
    and the ``scale`` tag (``None`` for single-process slices) — what
    ``repro perfbench --list-slices`` prints.
    """
    rows: list[dict[str, t.Any]] = []
    for mode in sorted(_SLICES):
        for name in sorted(_SLICES[mode]):
            experiment, labels, __ = _SLICES[mode][name]
            rows.append({
                "mode": mode, "name": name, "extended": False,
                "description": (f"{experiment} plan labels: "
                                + ", ".join(labels)),
                "scale": None,
            })
    for mode in sorted(_EXTENDED_SLICES):
        for name in sorted(_EXTENDED_SLICES[mode]):
            slice_spec = _EXTENDED_SLICES[mode][name]
            rows.append({
                "mode": mode, "name": name, "extended": True,
                "description": slice_spec.description,
                "scale": (dict(slice_spec.scale)
                          if slice_spec.scale is not None else None),
            })
    return rows


def _slice_scale(mode: str, name: str) -> dict[str, int] | None:
    """The scale tag of one slice (``None`` for single-process)."""
    slice_spec = _EXTENDED_SLICES.get(mode, {}).get(name)
    if slice_spec is None or slice_spec.scale is None:
        return None
    return dict(slice_spec.scale)


@dataclasses.dataclass(frozen=True)
class SliceResult:
    """Wall-clock timing of one slice."""

    name: str
    wall_seconds: float          # min over repeats
    repeats: tuple[float, ...]   # every repeat, in order
    points: int
    #: Execution-tier tag for sharded/cohort slices (``None`` =
    #: single-process); recorded so gates only compare like with like.
    scale: dict[str, int] | None = None

    def to_dict(self) -> dict[str, t.Any]:
        payload: dict[str, t.Any] = {
            "wall_seconds": self.wall_seconds,
            "repeats": list(self.repeats),
            "points": self.points,
        }
        if self.scale is not None:
            payload["scale"] = dict(self.scale)
        return payload


def slice_points(mode: str, name: str,
                 app: str = "teastore") -> list[plan_mod.SweepPoint]:
    """Resolve one slice's sweep points from its experiment's plan.

    ``app`` retargets the slice's settings at another bundled
    application; the default is the TeaStore numbers every committed
    baseline was recorded on.
    """
    extended = _EXTENDED_SLICES.get(mode, {}).get(name)
    if extended is not None:
        return _retarget(extended.build(), app)
    try:
        experiment, labels, settings_factory = _SLICES[mode][name]
    except KeyError:
        known = {m: sorted(s) for m, s in _SLICES.items()}
        extra = {m: sorted(s) for m, s in _EXTENDED_SLICES.items()}
        raise ConfigurationError(
            f"unknown perf slice {mode}/{name}; known: {known}, "
            f"extended: {extra}") from None
    settings = settings_factory()
    by_label = {point.label: point
                for point in plan_mod.plan_sweep(experiment, settings)}
    missing = [label for label in labels if label not in by_label]
    if missing:
        raise ConfigurationError(
            f"perf slice {name!r}: labels {missing} not in the "
            f"{experiment} plan ({sorted(by_label)})")
    return _retarget([by_label[label] for label in labels], app)


def _retarget(points: "list[plan_mod.SweepPoint]",
              app: str) -> "list[plan_mod.SweepPoint]":
    """Re-point a slice's settings at ``app`` (no-op for TeaStore)."""
    if app == "teastore":
        return points
    return [dataclasses.replace(
                point,
                settings=dataclasses.replace(point.settings, app=app))
            for point in points]


def time_slice(mode: str, name: str,
               repeat: int | None = None,
               app: str = "teastore") -> SliceResult:
    """Execute one slice ``repeat`` times and keep every wall time."""
    points = slice_points(mode, name, app)
    if repeat is None:
        slice_spec = _EXTENDED_SLICES.get(mode, {}).get(name)
        repeat = (slice_spec.repeat
                  if slice_spec is not None and slice_spec.repeat is not None
                  else _REPEATS[mode])
    if repeat < 1:
        raise ConfigurationError(f"repeat must be >= 1: {repeat}")
    walls = []
    for __ in range(repeat):
        started = time.perf_counter()
        for point in points:
            execute_point(point)
        walls.append(time.perf_counter() - started)
    return SliceResult(name, min(walls), tuple(walls), len(points),
                       scale=_slice_scale(mode, name))


def _resolve_names(mode: str, slices: t.Sequence[str] | None,
                   extended: bool, app: str = "teastore") -> list[str]:
    if mode not in _SLICES:
        raise ConfigurationError(
            f"unknown perfbench mode {mode!r}; choose from "
            f"{sorted(_SLICES)}")
    if slices is not None:
        return list(slices)
    if app != "teastore":
        # Only the plain load slice transfers across applications: E8's
        # optimized allocation and E13's fault schedule are
        # TeaStore-specific.
        return ["e2"]
    names = sorted(_SLICES[mode])
    if extended:
        names += sorted(_EXTENDED_SLICES.get(mode, {}))
    return names


def run_perfbench(mode: str = "smoke",
                  slices: t.Sequence[str] | None = None,
                  repeat: int | None = None,
                  extended: bool = False,
                  progress: t.Callable[[str], None] | None = None,
                  app: str = "teastore") -> list[SliceResult]:
    """Time every requested slice (default: all three; ``e2`` only
    for non-TeaStore applications)."""
    backend = kernel_mod.active_backend()
    results = []
    for name in _resolve_names(mode, slices, extended, app):
        result = time_slice(mode, name, repeat=repeat, app=app)
        results.append(result)
        if progress is not None:
            progress(f"slice {name} [{backend}]: "
                     f"{result.wall_seconds:.2f}s "
                     f"(min of {len(result.repeats)})")
    return results


def _profiled_stats(points: "list[plan_mod.SweepPoint]"):
    """One warmup pass, then one pass under :mod:`cProfile`.

    The untimed warmup runs first so imports, plan construction, and
    prefetch-buffer growth do not pollute the profile.  Profiled runs
    are never recorded in the trajectory — the tracer costs more than
    the differences the trajectory exists to catch.
    """
    import cProfile
    import pstats

    for point in points:
        execute_point(point)
    profiler = cProfile.Profile()
    profiler.enable()
    for point in points:
        execute_point(point)
    profiler.disable()
    return pstats.Stats(profiler)


def profile_slice(mode: str, name: str, top: int = 20,
                  app: str = "teastore") -> str:
    """Run one slice once under :mod:`cProfile`; return the top-``top``
    functions by cumulative time as a printable report.
    """
    import io

    if top < 1:
        raise ConfigurationError(f"top must be >= 1: {top}")
    stats = _profiled_stats(slice_points(mode, name, app))
    buffer = io.StringIO()
    stats.stream = buffer
    stats.sort_stats("cumulative").print_stats(top)
    backend = kernel_mod.active_backend()
    header = (f"profile {mode}/{name} [kernel={backend}] — top {top} "
              f"by cumulative time")
    return f"{header}\n{buffer.getvalue()}"


def profile_slice_stats(mode: str, name: str, top: int = 20,
                        app: str = "teastore") -> dict[str, t.Any]:
    """The machine-readable sibling of :func:`profile_slice`.

    Runs one slice under :mod:`cProfile` (same warmup discipline) and
    returns the top-``top`` functions by cumulative time as a
    JSON-native hotspot table, so CI can archive profiles as artifacts
    and tooling can diff them across commits.
    """
    if top < 1:
        raise ConfigurationError(f"top must be >= 1: {top}")
    points = slice_points(mode, name, app)
    stats = _profiled_stats(points)
    ranked = sorted(stats.stats.items(),
                    key=lambda item: item[1][3], reverse=True)
    hotspots = []
    for (filename, lineno, function), row in ranked[:top]:
        primitive_calls, ncalls, tottime, cumtime, __ = row
        hotspots.append({
            "function": function,
            "location": f"{filename}:{lineno}",
            "ncalls": ncalls,
            "primitive_calls": primitive_calls,
            "tottime": round(tottime, 6),
            "cumtime": round(cumtime, 6),
        })
    return {
        "slice": name,
        "points": len(points),
        "total_calls": stats.total_calls,
        "total_seconds": round(stats.total_tt, 6),
        "hotspots": hotspots,
    }


def profile_artifact(mode: str,
                     slices: t.Sequence[str] | None = None,
                     extended: bool = False,
                     top: int = 20,
                     app: str = "teastore",
                     label: str | None = None) -> dict[str, t.Any]:
    """A ``repro-perf-profile`` artifact: hotspot tables for every
    requested slice, headed like a trajectory entry so a profile can be
    traced back to the commit/kernel/app that produced it.
    """
    payload = _entry_header(mode, "profile", label, app)
    payload["artifact"] = "repro-perf-profile"
    payload["version"] = 1
    payload["top"] = top
    payload["profiles"] = [
        profile_slice_stats(mode, name, top=top, app=app)
        for name in _resolve_names(mode, slices, extended, app)]
    return payload


@dataclasses.dataclass(frozen=True)
class MemSliceResult:
    """Peak memory profile of one slice (single profiled pass)."""

    name: str
    traced_peak_bytes: int   # tracemalloc high-water during the slice
    ru_maxrss_kb: int        # process RSS high-water after the slice
    points: int
    #: Execution-tier tag (see :class:`SliceResult`).
    scale: dict[str, int] | None = None

    def to_dict(self) -> dict[str, t.Any]:
        payload: dict[str, t.Any] = {
            "traced_peak_bytes": self.traced_peak_bytes,
            "ru_maxrss_kb": self.ru_maxrss_kb,
            "points": self.points,
        }
        if self.scale is not None:
            payload["scale"] = dict(self.scale)
        return payload


def profile_slice_memory(mode: str, name: str,
                         app: str = "teastore") -> MemSliceResult:
    """Run one slice under tracemalloc and report its allocation peak.

    ``ru_maxrss`` is the whole process's monotone high-water mark — it
    contextualizes the traced peak but only the traced number is gated,
    because it resets per slice.
    """
    points = slice_points(mode, name, app)
    tracemalloc.start()
    try:
        for point in points:
            execute_point(point)
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ru_maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return MemSliceResult(name, int(peak), int(ru_maxrss), len(points),
                          scale=_slice_scale(mode, name))


def run_membench(mode: str = "smoke",
                 slices: t.Sequence[str] | None = None,
                 extended: bool = False,
                 progress: t.Callable[[str], None] | None = None,
                 app: str = "teastore") -> list[MemSliceResult]:
    """Memory-profile every requested slice (default: all three;
    ``e2`` only for non-TeaStore applications)."""
    results = []
    for name in _resolve_names(mode, slices, extended, app):
        result = profile_slice_memory(mode, name, app)
        results.append(result)
        if progress is not None:
            progress(f"slice {name}: peak "
                     f"{result.traced_peak_bytes / 1e6:.1f} MB traced, "
                     f"RSS high-water {result.ru_maxrss_kb / 1024:.0f} MB")
    return results


def default_label() -> str:
    """The short git SHA of ``HEAD``, or ``"manual"`` when unavailable.

    Labels exist so a trajectory entry can be traced back to the code
    that produced it; the commit hash is that trace whenever the harness
    runs inside a work tree.  Outside one (tarball checkout, no git
    binary) the label degrades to ``"manual"`` rather than failing.
    """
    import subprocess
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "manual"
    return sha or "manual"


def _entry_header(mode: str, metric: str,
                  label: str | None,
                  app: str = "teastore") -> dict[str, t.Any]:
    return {
        "label": default_label() if label is None else label,
        "mode": mode,
        "metric": metric,
        # The application the slices ran against: trajectories from
        # different service graphs are never comparable, so the gate
        # (baseline_entry) only matches same-app entries.  Entries
        # recorded before application specs existed were all TeaStore.
        "app": app,
        # Which event-loop backend produced the numbers: trajectories
        # from different kernels are never comparable, so the gate
        # (baseline_entry) only matches same-kernel entries.
        "kernel": kernel_mod.active_backend(),
        "python": platform.python_version(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def trajectory_entry(results: t.Sequence[SliceResult], mode: str,
                     label: str | None = None,
                     app: str = "teastore") -> dict[str, t.Any]:
    """One wall-clock trajectory entry as a JSON-native dict."""
    entry = _entry_header(mode, "wall", label, app)
    entry["slices"] = {result.name: result.to_dict() for result in results}
    return entry


def memory_entry(results: t.Sequence[MemSliceResult], mode: str,
                 label: str | None = None,
                 app: str = "teastore") -> dict[str, t.Any]:
    """One memory trajectory entry as a JSON-native dict."""
    entry = _entry_header(mode, "mem", label, app)
    entry["slices"] = {result.name: result.to_dict() for result in results}
    return entry


def _group(entry: dict[str, t.Any]) -> tuple[str, str]:
    """The rotation group of one entry: its mode and metric."""
    return entry.get("mode", ""), entry.get("metric", "wall")


def append_trajectory(path: str | pathlib.Path,
                      entry: dict[str, t.Any]) -> dict[str, t.Any]:
    """Append ``entry`` to the artifact at ``path`` (created if absent).

    Reads schema v1 or v2; always writes v2 (rotated trajectory).
    """
    return append_to_trajectory(path, entry, PERF_ARTIFACT, _group,
                                _KEEP_PER_GROUP)


def baseline_entry(path: str | pathlib.Path, mode: str,
                   metric: str = "wall",
                   kernel: str | None = None,
                   app: str = "teastore") -> dict[str, t.Any]:
    """The newest ``(mode, metric, kernel)`` entry in a committed artifact.

    ``kernel`` defaults to the *active* backend: a compiled-kernel run is
    only ever gated against a compiled-kernel baseline (and python
    against python) — cross-backend comparison would either mask real
    regressions or fail every pure-Python fallback run.  Entries
    recorded before backends existed carry no ``kernel`` field and were
    all pure-Python; they match ``kernel="python"``.  v1 entries carry
    no ``metric`` field and are treated as wall-clock.  ``app``
    likewise only matches same-application entries; entries recorded
    before application specs existed were all TeaStore.
    """
    if kernel is None:
        kernel = kernel_mod.active_backend()
    entries = [entry for entry in load_trajectory(path, PERF_ARTIFACT)
               if entry.get("mode") == mode
               and entry.get("metric", "wall") == metric
               and entry.get("kernel", "python") == kernel
               and entry.get("app", "teastore") == app]
    if not entries:
        raise ConfigurationError(
            f"{path} has no {metric} trajectory entry for mode {mode!r} "
            f"on kernel backend {kernel!r} and application {app!r}")
    return entries[-1]


def check_against_baseline(results: t.Sequence[SliceResult],
                           baseline: dict[str, t.Any],
                           threshold: float = DEFAULT_THRESHOLD
                           ) -> list[str]:
    """Regression report: one line per slice, raising strings for fails.

    Returns the list of failure messages (empty = gate passes).  A slice
    missing from the baseline is skipped — new slices must not fail the
    gate on their first appearance — and so is a slice whose ``scale``
    tag differs from the baseline's: a sharded/cohort run is never
    comparable to a single-process point of the same name (mirrors the
    kernel tagging on whole entries).
    """
    if threshold <= 0:
        raise ConfigurationError(f"threshold must be positive: {threshold}")
    failures = []
    baseline_slices = baseline.get("slices", {})
    for result in results:
        reference = baseline_slices.get(result.name)
        if reference is None:
            continue
        if reference.get("scale") != result.scale:
            continue
        allowed = reference["wall_seconds"] * (1.0 + threshold)
        if result.wall_seconds > allowed:
            failures.append(
                f"slice {result.name}: {result.wall_seconds:.2f}s exceeds "
                f"baseline {reference['wall_seconds']:.2f}s by more than "
                f"{threshold:.0%}")
    return failures


def check_memory_against_baseline(results: t.Sequence[MemSliceResult],
                                  baseline: dict[str, t.Any],
                                  threshold: float = DEFAULT_MEM_THRESHOLD
                                  ) -> list[str]:
    """Memory-regression report over peak traced allocation.

    Same contract as :func:`check_against_baseline`: returns failure
    messages (empty = gate passes); slices absent from the baseline —
    or carrying a different ``scale`` tag — are skipped.
    """
    if threshold <= 0:
        raise ConfigurationError(f"threshold must be positive: {threshold}")
    failures = []
    baseline_slices = baseline.get("slices", {})
    for result in results:
        reference = baseline_slices.get(result.name)
        if reference is None:
            continue
        if reference.get("scale") != result.scale:
            continue
        allowed = reference["traced_peak_bytes"] * (1.0 + threshold)
        if result.traced_peak_bytes > allowed:
            failures.append(
                f"slice {result.name}: peak "
                f"{result.traced_peak_bytes / 1e6:.1f} MB exceeds baseline "
                f"{reference['traced_peak_bytes'] / 1e6:.1f} MB by more "
                f"than {threshold:.0%}")
    return failures
