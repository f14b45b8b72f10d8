"""End-to-end sweep behaviour: parity with ``run()``, the CLI verb,
progress telemetry, and the bench artifact."""

import io
import json

from repro import cli
from repro.experiments import ExperimentSettings
from repro.experiments import ablations, e1_platform, e2_load_scaling
from repro.orchestrator import (
    ProgressReporter,
    ResultCache,
    plan_sweep,
    run_sweep,
    sweep_experiments,
)
import pytest

from repro._errors import ConfigurationError
from repro.orchestrator import perfbench
from repro.orchestrator.bench import append_bench_entry, bench_entry
from repro.report import build_report, sweep_section


def tiny():
    return ExperimentSettings.fast(preset="tiny", users=48,
                                   warmup=0.1, duration=0.3)


def test_every_cli_experiment_has_a_provider():
    assert sweep_experiments() == sorted(cli.EXPERIMENTS)


def test_sweep_matches_run_sequential_and_parallel():
    settings = tiny()
    expected = e2_load_scaling.run(settings).render()
    assert run_sweep("e2", settings, jobs=1).result.render() == expected
    assert run_sweep("e2", settings, jobs=4).result.render() == expected


def test_sweep_matches_run_for_ablation():
    settings = tiny()
    expected = ablations.run_code_sharing(settings).render()
    assert run_sweep("a1", settings, jobs=2).result.render() == expected


def test_sweep_matches_run_for_platform():
    settings = tiny()
    expected = e1_platform.run(settings).render()
    assert run_sweep("e1", settings).result.render() == expected


def test_cached_sweep_renders_identically(tmp_path):
    settings = tiny()
    cache = ResultCache(tmp_path)
    first = run_sweep("e2", settings, jobs=2, cache=cache)
    again = run_sweep("e2", settings, jobs=2,
                      cache=ResultCache(tmp_path))  # fresh process-alike
    assert first.result.render() == again.result.render()
    assert again.stats.executed == 0
    assert again.stats.cache_hits == len(plan_sweep("e2", settings))


def test_stats_account_for_every_point():
    settings = tiny()
    outcome = run_sweep("e2", settings, jobs=2)
    assert outcome.stats.points == len(plan_sweep("e2", settings))
    assert outcome.stats.executed == outcome.stats.points
    assert outcome.stats.cache_hits == 0
    assert outcome.stats.points_per_second() > 0
    assert len(outcome.outcomes) == outcome.stats.points
    stats_dict = outcome.stats.to_dict()
    assert stats_dict["experiment"] == "e2"
    assert json.dumps(stats_dict)  # JSON-native


def test_progress_reporter_events_and_lines():
    stream, log = io.StringIO(), io.StringIO()
    progress = ProgressReporter("e2", stream=stream, log=log)
    run_sweep("e2", tiny(), progress=progress)
    events = [json.loads(line) for line in log.getvalue().splitlines()]
    kinds = [event["event"] for event in events]
    assert kinds[0] == "sweep_start" and kinds[-1] == "sweep_end"
    assert kinds.count("point_done") == events[0]["total"]
    assert all(event["experiment"] == "e2" for event in events)
    human = stream.getvalue()
    assert "sweep complete" in human and "[e2]" in human


def test_bench_payload_shape():
    stats = run_sweep("e1", tiny()).stats
    entry = bench_entry([stats], jobs=3)
    assert entry["jobs"] == 3
    assert entry["experiments"][0]["experiment"] == "e1"
    totals = entry["totals"]
    assert totals["points"] >= 1
    assert json.dumps(entry)


def _fake_entry(experiment, jobs, marker):
    return {"recorded_at": marker, "jobs": jobs,
            "experiments": [{"experiment": experiment, "executed": 1}],
            "totals": {"points": 1}}


def test_bench_migrates_v1_snapshot(tmp_path):
    target = tmp_path / "bench.json"
    v1 = {"artifact": "repro-sweep-bench", "version": 1,
          "recorded_at": "2026-01-01T00:00:00Z", "jobs": 4,
          "experiments": [{"experiment": "e2", "executed": 9}],
          "totals": {"points": 9}}
    target.write_text(json.dumps(v1))
    append_bench_entry(target, _fake_entry("e2", 4, "new"))
    artifact = json.loads(target.read_text())
    assert artifact["version"] == 2
    # The v1 snapshot survives as the trajectory's first-ever entry.
    assert artifact["trajectory"][0]["recorded_at"] == "2026-01-01T00:00:00Z"
    assert artifact["trajectory"][0]["experiments"][0]["executed"] == 9
    assert artifact["trajectory"][1]["recorded_at"] == "new"
    assert "artifact" not in artifact["trajectory"][0]


def test_bench_rotation_keeps_first_and_newest_per_group(tmp_path):
    target = tmp_path / "bench.json"
    append_bench_entry(target, _fake_entry("e2", 1, "origin"))
    for index in range(25):
        append_bench_entry(target, _fake_entry("e2", 4, f"e2-{index}"))
    append_bench_entry(target, _fake_entry("e8", 4, "e8-only"))
    trajectory = json.loads(target.read_text())["trajectory"]
    markers = [entry["recorded_at"] for entry in trajectory]
    assert markers[0] == "origin"  # first-ever entry is immortal
    assert "e8-only" in markers  # a burst of e2 cannot evict e8 history
    e2_markers = [m for m in markers if m.startswith("e2-")]
    assert e2_markers == [f"e2-{index}" for index in range(5, 25)]


def test_bench_rejects_foreign_artifacts(tmp_path):
    target = tmp_path / "bench.json"
    target.write_text(json.dumps({"artifact": "something-else"}))
    with pytest.raises(ConfigurationError):
        append_bench_entry(target, _fake_entry("e2", 1, "x"))
    target.write_text(json.dumps({"artifact": "repro-sweep-bench",
                                  "version": 99}))
    with pytest.raises(ConfigurationError):
        append_bench_entry(target, _fake_entry("e2", 1, "x"))


def _perf_entry(marker):
    return perfbench.trajectory_entry(
        [perfbench.SliceResult("e2", 1.0, (1.0,), 1)], "smoke",
        label=marker)


#: (artifact name, its writer, an entry factory) per trajectory kind.
_TRAJECTORIES = {
    "sweep": ("repro-sweep-bench", append_bench_entry,
              lambda marker: _fake_entry("e2", 1, marker)),
    "perf": ("repro-perf-bench", perfbench.append_trajectory, _perf_entry),
}


@pytest.mark.parametrize("damage", ("truncated", "top-level-list",
                                    "no-trajectory", "non-object-entry"))
@pytest.mark.parametrize("kind", sorted(_TRAJECTORIES))
def test_malformed_trajectory_artifacts_raise_configuration_error(
        tmp_path, kind, damage):
    artifact, append, make_entry = _TRAJECTORIES[kind]
    target = tmp_path / "bench.json"
    append(target, make_entry("first"))
    text = target.read_text()
    damaged = {
        "truncated": text[:len(text) // 2],
        "top-level-list": "[]",
        "no-trajectory": json.dumps({"artifact": artifact, "version": 2}),
        "non-object-entry": json.dumps({"artifact": artifact, "version": 2,
                                        "trajectory": [1]}),
    }[damage]
    target.write_text(damaged)
    with pytest.raises(ConfigurationError):
        append(target, make_entry("second"))
    assert target.read_text() == damaged


def test_report_includes_sweep_telemetry():
    settings = tiny()
    outcome = run_sweep("e1", settings)
    report = build_report([outcome.result], machine=settings.machine(),
                          sweep_stats=[outcome.stats.to_dict()])
    assert "## Sweep telemetry" in report
    assert "| e1 |" in report
    assert "Sweep telemetry" in sweep_section([outcome.stats.to_dict()])


def test_cli_sweep_end_to_end(tmp_path, capsys):
    bench = tmp_path / "bench.json"
    markdown = tmp_path / "report.md"
    argv = ["sweep", "e1", "--fast", "--jobs", "2", "--quiet",
            "--cache-dir", str(tmp_path / "cache"),
            "--bench", str(bench), "--markdown", str(markdown)]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert "E1" in first

    artifact = json.loads(bench.read_text())
    assert artifact["artifact"] == "repro-sweep-bench"
    assert artifact["version"] == 2
    assert artifact["trajectory"][-1]["experiments"][0]["executed"] >= 1
    assert "## Sweep telemetry" in markdown.read_text()
    log_lines = (tmp_path / "cache" / "last-sweep.jsonl").read_text()
    assert '"sweep_start"' in log_lines and '"sweep_end"' in log_lines

    # Second invocation replays entirely from the cache and appends a
    # second trajectory entry rather than overwriting the first.
    assert cli.main(argv) == 0
    capsys.readouterr()
    replay = json.loads(bench.read_text())
    assert len(replay["trajectory"]) == 2
    assert replay["trajectory"][-1]["experiments"][0]["executed"] == 0
    assert replay["trajectory"][-1]["experiments"][0]["cache_hits"] >= 1


def test_cli_sweep_rejects_bad_jobs(capsys):
    assert cli.main(["sweep", "e1", "--fast", "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err
