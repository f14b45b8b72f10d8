"""Consistency invariants across the package: catalogs, exports, wiring."""

import subprocess
import sys
import textwrap

import pytest

import repro
from repro.experiments import e3_core_scaling
from repro.experiments.common import ExperimentSettings
from repro.apps import build_service_specs, load_bundled


def test_public_all_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing {name}"


def test_star_import_is_clean():
    namespace: dict = {}
    exec("from repro import *", namespace)  # noqa: S102 - deliberate
    assert "Deployment" in namespace
    assert "deploy_application" in namespace
    assert "get_app" in namespace


def _steps():
    """service → endpoint → steps, as ``teastore.json`` declares them."""
    return {service.name: {endpoint.name: endpoint.steps
                           for endpoint in service.endpoints}
            for service in load_bundled("teastore").services}


def _single_step(service, endpoint):
    [step] = _steps()[service][endpoint]
    return step


def test_webui_parse_and_render_cover_same_endpoints():
    # Every page parses the request first and renders the template last.
    for page, steps in _steps()["webui"].items():
        assert steps[0]["op"] == "compute", page
        assert steps[-1]["op"] == "compute", page
        assert len(steps) >= 3, page


def test_persistence_ops_have_db_costs():
    for operation, steps in _steps()["persistence"].items():
        calls = [step for step in steps if step["op"] == "call"]
        assert [call["service"] for call in calls] == ["db"], operation
        assert calls[0]["endpoint"] in ("read", "write")
        assert isinstance(calls[0]["payload"], float), operation


def test_all_demand_constants_positive():
    demands = []
    for endpoints in _steps().values():
        for steps in endpoints.values():
            for step in steps:
                demands.extend(value for key, value in step.items()
                               if key.endswith("demand"))
                if step["op"] == "call" and step["service"] == "db":
                    demands.append(step["payload"])  # query cost
    assert len(demands) >= 38
    assert all(value > 0 for value in demands)


def test_image_miss_costlier_than_hit():
    full = _single_step("image", "get")
    preview = _single_step("image", "get_batch")
    assert full["miss_demand"] > full["hit_demand"]
    assert preview["miss_demand"] > preview["hit_demand"]
    assert preview["hit_demand"] < full["hit_demand"]  # thumbnails


def test_webui_endpoints_match_catalog_and_profiles():
    spec = load_bundled("teastore")
    specs = build_service_specs(spec)
    webui_endpoints = set(specs["webui"].endpoints)
    assert webui_endpoints == set(_steps()["webui"])
    # Every Markov state of both profiles is a real WebUI endpoint.
    for name in ("browse", "buy"):
        assert set(spec.session(name).transitions) <= webui_endpoints


def test_cli_covers_every_experiment_module():
    import pkgutil

    import repro.experiments as experiments_package
    from repro.cli import EXPERIMENTS

    modules = {name for __, name, __ in pkgutil.iter_modules(
        experiments_package.__path__)}
    experiment_modules = {name for name in modules
                          if name.startswith("e") and name[1].isdigit()}
    registered = set()
    for experiment_id in EXPERIMENTS:
        if experiment_id.startswith("e"):
            registered.add(experiment_id)
    # e1..e14 all registered.
    assert {f"e{i}" for i in range(1, 15)} <= registered
    assert len(experiment_modules) == 14


def test_e3_default_ladder_on_small_machine():
    settings = ExperimentSettings.fast(users=150, warmup=0.4, duration=0.8)
    result = e3_core_scaling.run(settings)  # default cpu_counts path
    counts = result.column("logical_cpus")
    assert counts == [16, 32, 48, 64]


def test_benchmark_files_exist_for_every_experiment():
    import pathlib
    bench_dir = pathlib.Path(__file__).parent.parent / "benchmarks"
    names = {p.stem for p in bench_dir.glob("test_*.py")}
    for i in range(1, 15):
        assert any(f"e{i}_" in name for name in names), f"no bench for e{i}"


def test_version_is_exported():
    assert repro.__version__ == "1.0.0"


_COUNT_SPEC_PARSES = textwrap.dedent("""
    import importlib.machinery
    import sys

    calls = []

    class WrapLoadFile:
        # Wraps repro.apps.spec.load_file as soon as that module runs,
        # before the rest of ``import repro`` continues.
        def find_spec(self, name, path, target=None):
            if name != "repro.apps.spec":
                return None
            spec = importlib.machinery.PathFinder.find_spec(name, path)
            run = spec.loader.exec_module

            def exec_module(module):
                run(module)
                load_file = module.load_file

                def counted(*args, **kwargs):
                    calls.append(args)
                    return load_file(*args, **kwargs)
                module.load_file = counted
            spec.loader.exec_module = exec_module
            return spec

    sys.meta_path.insert(0, WrapLoadFile())
    import repro
    import repro.chaos
    import repro.cli
    import repro.experiments
    assert "repro.apps.spec" in sys.modules
    print(len(calls))
""")


def test_importing_repro_parses_no_spec():
    out = subprocess.run([sys.executable, "-c", _COUNT_SPEC_PARSES],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"
