"""Every example script still imports: its module body runs (imports,
constants, function definitions) without running ``main``."""

import pathlib
import runpy

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples")
    .glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_module_body_runs(path):
    namespace = runpy.run_path(str(path), run_name="example")
    assert callable(namespace["main"])
