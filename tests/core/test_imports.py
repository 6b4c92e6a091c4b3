"""Package re-exports resolve lazily, correctly, and only when used.

Every ``repro`` package ``__init__`` maps its public names to the
submodules that define them and imports a submodule only when one of
its names is first used.  A wrong map entry would surface only at that
first use, so these tests resolve every exported name, each in a fresh
interpreter, the three ways user code can reach it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: What a ``repro serve`` boot must not import: the study and its
#: pipeline, the crawl, the scheduler, and the serve chaos harness.
NOT_AT_SERVE_BOOT = (
    "repro.core", "repro.history", "repro.measurement", "repro.sitekey",
    "repro.perception", "repro.web.browser", "repro.web.crawler",
    "repro.parallel.scheduler", "repro.parallel.supervisor",
    "repro.serve.chaos",
)

#: Resolves every ``__all__`` name of every package one way (argv[1])
#: and prints the problems it found as JSON.
RESOLVE_ALL = r"""
import inspect, json, pkgutil, sys
import repro

way = sys.argv[1]
packages = ["repro"] + [info.name for info in
                        pkgutil.walk_packages(repro.__path__, "repro.")
                        if info.ispkg]
problems = []
for package_name in packages:
    package = sys.modules[package_name]
    eager = set(vars(package))
    names = list(package.__all__)
    if len(set(names)) != len(names):
        problems.append(f"{package_name}: __all__ repeats a name")
    missing = set(names) - set(dir(package))
    if missing:
        problems.append(f"{package_name}: dir() lacks {sorted(missing)}")
    if way == "star":
        star = {}
        try:
            exec(f"from {package_name} import *", star)
        except Exception as exc:
            problems.append(f"{package_name}: import * failed: {exc!r}")
            continue
    for name in names:
        try:
            if way == "attribute":
                value = getattr(package, name)
            elif way == "from":
                scope = {}
                exec(f"from {package_name} import {name}", scope)
                value = scope[name]
            else:
                value = star[name]
        except Exception as exc:
            problems.append(f"{package_name}.{name}: {exc!r}")
            continue
        if name in eager:
            continue
        # The defining module: a class's or function's own module, else
        # any submodule that binds this object under this name.
        home = getattr(value, "__module__", None) if (
            inspect.isclass(value) or inspect.isroutine(value)) else None
        if not (home in sys.modules
                and vars(sys.modules[home]).get(name) is value):
            home = next((module_name for module_name, module
                         in list(sys.modules.items())
                         if module_name.startswith(package_name + ".")
                         and vars(module).get(name) is value), None)
        if home is None or not home.startswith(package_name + "."):
            problems.append(f"{package_name}.{name}: resolved to an "
                            f"object no submodule defines ({home})")
print(json.dumps(problems))
"""


def _python(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code, *args],
                            capture_output=True, text=True, timeout=120,
                            env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout


def _loaded(code: str) -> list[str]:
    """The ``repro`` modules loaded after running ``code`` afresh."""
    return json.loads(_python(
        code + "\nimport json, sys\nprint(json.dumps(sorted("
        "m for m in sys.modules if m.split('.')[0] == 'repro')))"))


@pytest.mark.parametrize("way", ["attribute", "from", "star"])
def test_every_export_resolves_to_its_defining_module(way):
    assert json.loads(_python(RESOLVE_ALL, way)) == []


def test_importing_packages_imports_none_of_their_modules():
    """Only ``repro.obs``, which serving uses whole, imports eagerly."""
    loaded = _loaded(
        "import pkgutil, repro\n"
        "packages = [i.name for i in pkgutil.walk_packages("
        "repro.__path__, 'repro.') if i.ispkg]")
    packages = {"repro", "repro.core", "repro.filters",
                "repro.filters.compiled", "repro.history",
                "repro.measurement", "repro.obs", "repro.parallel",
                "repro.perception", "repro.reporting", "repro.serve",
                "repro.sitekey", "repro.state", "repro.web"}
    assert packages <= set(loaded)
    assert [m for m in loaded
            if m not in packages and not m.startswith("repro.obs.")] == []


def test_serve_boot_imports_only_what_it_runs():
    loaded = _loaded(
        "import repro.cli\n"
        "from repro.obs import OBS, observe\n"
        "from repro.serve import (ReloadError, Reloader, ServeConfig,\n"
        "                         ServeDaemon, SnapshotHolder)\n"
        "from repro.state.snapshots import SnapshotStore\n")
    assert "repro.serve.daemon" in loaded
    assert "repro.serve.reload" in loaded
    unwanted = [m for m in loaded
                if any(m == p or m.startswith(p + ".")
                       for p in NOT_AT_SERVE_BOOT)]
    assert unwanted == []


@pytest.mark.parametrize("module", ["repro.filters.options",
                                    "repro.web.url"])
def test_filters_and_web_url_import_alone(module):
    """``repro.filters`` imports ``repro.web.url`` at module level; with
    lazy package exports that closes no import cycle."""
    assert module in _loaded(f"import {module}")


def test_unknown_name_is_an_attribute_error():
    import repro.filters

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.filters.nope  # noqa: B018
    with pytest.raises(ImportError):
        exec("from repro.web import nope", {})
