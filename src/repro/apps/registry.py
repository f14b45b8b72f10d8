"""The bundled application registry.

Each bundled application is defined by one committed JSON file under
``specs/`` and nothing else; ``get_app`` parses and validates it by
name, and external tools can consume the same files without importing
Python.  ``verify_bundled`` pins that every committed file parses,
validates, and is byte-stable canonical JSON — CI runs it (through
``repro apps --validate``) as the spec lint gate.
"""

from __future__ import annotations

import pathlib

from repro._errors import ConfigurationError
from repro.apps import spec as spec_mod
from repro.apps.spec import ApplicationSpec

#: The bundled applications, in documentation order.
APP_NAMES = ("teastore", "boutique", "socialnet")

#: Where the bundled JSON specs live.
SPEC_DIR = pathlib.Path(__file__).with_name("specs")


def get_app(name: str, fast: bool = False) -> ApplicationSpec:
    """One bundled application spec (``fast`` applies test-scale sizing).

    This is how every application, TeaStore included, is deployed:
    ``ExperimentSettings.application()`` calls it with the settings'
    app and preset.  To change a calibration value, edit the JSON file,
    or build a variant in code with ``ApplicationSpec.from_dict`` on an
    edited ``to_dict()``.
    """
    return load_bundled(name).sized(fast)


def spec_path(name: str) -> pathlib.Path:
    """The bundled JSON file of one application."""
    if name not in APP_NAMES:
        raise ConfigurationError(
            f"unknown application {name!r}; choose from {APP_NAMES}")
    return SPEC_DIR / f"{name}.json"


def load_bundled(name: str) -> ApplicationSpec:
    """Parse and validate one bundled JSON spec file (errors name
    the file)."""
    path = spec_path(name)
    try:
        return spec_mod.load_file(path)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path.name}: {exc}") from None


def verify_bundled() -> list[str]:
    """Check every bundled JSON file parses, validates, and is byte-stable
    canonical JSON.  Returns problem descriptions (empty = all good)."""
    problems: list[str] = []
    for name in APP_NAMES:
        path = spec_path(name)
        if not path.exists():
            problems.append(f"{name}: missing spec file {path}")
            continue
        try:
            text = path.read_text(encoding="utf-8")
            loaded = spec_mod.loads(text)
        except ConfigurationError as exc:
            problems.append(f"{name}: {exc}")
            continue
        if loaded.dumps() != text:
            problems.append(
                f"{name}: {path.name} is not byte-stable canonical JSON "
                f"(expected the ApplicationSpec.dumps() form)")
    return problems
