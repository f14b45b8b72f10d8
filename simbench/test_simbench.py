"""The benchmark's own tests.

Run from the repository root (they build the extensions if needed)::

    PYTHONPATH=src python3 -m pytest simbench -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

import run
import workloads

#: Simulated seconds of window for smoke runs.
TINY = 0.2

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_json() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> tuple[int, list[str], dict]:
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), *args],
                          cwd=run.ROOT, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


def test_benchmark_json_follows_the_grammar():
    spec = benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS)
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer") for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    setup = next(e for e in spec["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in spec["end_to_end"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(name):
    code, lines, result = bench("--workload", name, "--seed", "3",
                                "--seconds", "0", "--trace", "0",
                                "--duration", str(TINY))
    assert code == 0, "\n".join(lines)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = [e["name"] for e in benchmark_json()["end_to_end"]]
    assert list(result["metrics"]) == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.split()[:1] == ["error_share"] for line in lines)


def test_traced_run_reports_every_per_layer_metric():
    code, lines, result = bench("--workload", "chaos", "--seed", "3",
                                "--seconds", "0", "--trace", "1",
                                "--duration", str(TINY))
    assert code == 0, "\n".join(lines)
    declared = [e["name"] for e in benchmark_json()["per_layer"]]
    assert list(result["metrics"]) == declared
    assert "1 untraced + 1 traced" in lines[0]


def test_traced_and_untraced_runs_give_equal_digests():
    records = [run.spawn("knee-py", 5, trace=trace, duration=TINY)
               for trace in (False, True)]
    assert [r["traced"] for r in records] == [False, True]
    assert records[0]["digest"] == records[1]["digest"]
    assert records[1]["layers"]["memory.cpi"]["calls"] > 0


def record(digest: str, **fields) -> dict:
    base = {"digest": digest, "problems": [], "kernel": "compiled",
            "compiled_model": True, "attempted": 10, "errors": 0}
    return {**base, **fields}


def test_digest_check_catches_a_perturbed_output():
    outcome = {"result": {"throughput": 1000.0, "completed": 5},
               "counts": {"sim.events": 10}}
    perturbed = json.loads(json.dumps(outcome))
    perturbed["result"]["throughput"] = 1000.0000000000001
    assert workloads.digest(outcome) != workloads.digest(perturbed)
    knee = workloads.WORKLOADS["knee"]
    good = workloads.digest(outcome)
    records = [record(workloads.digest(perturbed)) for __ in range(2)]
    problems = run.check(knee, 1, records, None, good)
    assert problems and all("failed" in r for r in records)
    records = [record(good), record(workloads.digest(perturbed))]
    assert run.check(knee, 1, records, None, None)
    assert run.check(knee, 1, [record(good)], None, good) == []


def test_unrecorded_seed_is_checked_against_the_default_seed():
    knee = workloads.WORKLOADS["knee"]
    assert run.check(knee, 99, [record("d")], None, None,
                     (record("x"), "x")) == []
    records = [record("d")]
    assert run.check(knee, 99, records, None, None, (record("y"), "x"))
    assert "failed" in records[0]


def test_wrong_backend_fails_the_run():
    knee_py = workloads.WORKLOADS["knee-py"]
    records = [record("d", kernel="python", compiled_model=False)]
    cross = record("e")
    assert run.check(knee_py, 1, records, cross, None)
    records = [record("d")]
    assert run.check(knee_py, 1, records, None, None)


def test_recorded_digests_cover_every_workload():
    table = json.loads((run.HERE / "digests.json").read_text())
    for name in workloads.WORKLOADS:
        assert set(table[name]) == {str(workloads.DEFAULT_SEED),
                                    str(workloads.HELD_OUT_SEED)}
