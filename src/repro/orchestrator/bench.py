"""Benchmark trajectory artifacts, and the sweep one built on them.

``BENCH_sweep.json`` (written here) and ``BENCH_perf.json`` (written by
:mod:`repro.orchestrator.perfbench`) share one layout: an ``artifact``
name, a schema ``version``, and a *trajectory* — one entry per
invocation.  :func:`append_to_trajectory` is their one writer.  Each
artifact keeps the newest entries per rotation group (its own grouping
and keep count) plus its first-ever entry, so a committed file stays
bounded no matter how often the harness runs.  A file that is not a
well-formed artifact of the expected kind raises
:class:`~repro._errors.ConfigurationError`.

Every ``repro sweep`` invocation records wall time, worker count, cache
hits, and throughput (points/second) per experiment plus totals, so
future PRs have a perf baseline to compare orchestrator changes
against.  The newest :data:`_KEEP_PER_GROUP` entries per
``(experiments, jobs)`` group survive.  v1 sweep artifacts (a single
overwritten snapshot) are migrated transparently: the old snapshot
becomes the trajectory's first entry, preserving the oldest recorded
numbers as the fixed reference point.
"""

from __future__ import annotations

import json
import pathlib
import time
import typing as t

from repro._errors import ConfigurationError

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.orchestrator.executor import SweepStats

#: Trajectory schema version; bump on layout changes.
TRAJECTORY_VERSION = 2

#: The sweep artifact's name.
SWEEP_ARTIFACT = "repro-sweep-bench"

#: Trajectory entries kept per (experiments, jobs) group after an
#: append (plus the first-ever entry).
_KEEP_PER_GROUP = 20


def load_trajectory(path: str | pathlib.Path,
                    artifact: str) -> list[dict[str, t.Any]]:
    """The entries of the ``artifact`` trajectory file at ``path``.

    Reads schema v1 or v2, migrating a v1 sweep snapshot.
    """
    target = pathlib.Path(path)
    try:
        payload = json.loads(target.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"{target} is not valid JSON: {exc}") \
            from None
    if not isinstance(payload, dict) or payload.get("artifact") != artifact:
        raise ConfigurationError(
            f"{target} exists but is not a {artifact} artifact")
    version = payload.get("version", 1)
    if version == 1 and artifact == SWEEP_ARTIFACT:
        # v1 was one snapshot, overwritten per run: carry it over as the
        # trajectory's first (and oldest) entry.
        snapshot = {key: value for key, value in payload.items()
                    if key not in ("artifact", "version")}
        return [snapshot] if snapshot else []
    if version not in (1, TRAJECTORY_VERSION):
        raise ConfigurationError(
            f"{target} has unsupported schema version {version}")
    trajectory = payload.get("trajectory")
    if not (isinstance(trajectory, list)
            and all(isinstance(entry, dict) for entry in trajectory)):
        raise ConfigurationError(
            f"{target} has no trajectory list of entry objects")
    return trajectory


def append_to_trajectory(path: str | pathlib.Path, entry: dict[str, t.Any],
                         artifact: str,
                         group_key: t.Callable[[dict[str, t.Any]],
                                               t.Hashable],
                         keep: int) -> dict[str, t.Any]:
    """Append ``entry`` to the ``artifact`` file at ``path`` (created if
    absent) and rotate: the newest ``keep`` entries per ``group_key``
    group plus the first-ever entry survive.  Always writes v2."""
    target = pathlib.Path(path)
    trajectory = (load_trajectory(target, artifact) if target.exists()
                  else [])
    trajectory.append(entry)
    # The first-ever entry is the fixed "where this repo started"
    # reference point; everything else ages out group by group.
    kept = {0}
    groups: dict[t.Hashable, list[int]] = {}
    for index, item in enumerate(trajectory):
        groups.setdefault(group_key(item), []).append(index)
    for indices in groups.values():
        kept.update(indices[-keep:])
    payload = {
        "artifact": artifact,
        "version": TRAJECTORY_VERSION,
        "trajectory": [trajectory[index] for index in sorted(kept)],
    }
    if target.parent != pathlib.Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2) + "\n",
                      encoding="utf-8")
    return payload


def bench_entry(stats: "t.Sequence[SweepStats]",
                jobs: int) -> dict[str, t.Any]:
    """One trajectory entry as a JSON-native dict."""
    per_experiment = [s.to_dict() for s in stats]
    total_points = sum(s.points for s in stats)
    total_wall = sum(s.wall_seconds for s in stats)
    return {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "jobs": jobs,
        "experiments": per_experiment,
        "totals": {
            "experiments": len(per_experiment),
            "points": total_points,
            "cache_hits": sum(s.cache_hits for s in stats),
            "executed": sum(s.executed for s in stats),
            "wall_seconds": total_wall,
            "points_per_second": (total_points / total_wall
                                  if total_wall > 0 else 0.0),
        },
    }


def _entry_key(entry: dict[str, t.Any]) -> tuple[tuple[str, ...], int]:
    """The rotation group of one entry: which experiments, how many jobs.

    Sweeps of different experiment sets (or parallelism) are different
    measurements; each group ages out independently so a burst of e2
    sweeps cannot evict the only e8 history.
    """
    experiments = tuple(sorted(
        str(record.get("experiment", "")) for record in
        entry.get("experiments", [])))
    return experiments, int(entry.get("jobs", 0))


def append_bench_entry(path: str | pathlib.Path,
                       entry: dict[str, t.Any]) -> dict[str, t.Any]:
    """Append ``entry`` to the sweep artifact at ``path`` (created if
    absent)."""
    return append_to_trajectory(path, entry, SWEEP_ARTIFACT, _entry_key,
                                _KEEP_PER_GROUP)


def write_bench_artifact(path: str | pathlib.Path,
                         stats: "t.Sequence[SweepStats]",
                         jobs: int) -> dict[str, t.Any]:
    """Record one sweep invocation in the artifact at ``path``."""
    return append_bench_entry(path, bench_entry(stats, jobs))
