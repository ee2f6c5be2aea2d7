"""The package needs only the standard library and numpy, and the bundled
solver only the standard library, so that it can run as a bare file.  The
bundled configs ship inside the package and load from any directory."""

import ast
import os
import re
import subprocess
import sys
from fnmatch import fnmatch
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "prbslice"


def imports(path: Path) -> list[tuple[int, str]]:
    """(relative level, top-level module name) of every import in the file,
    function-local ones included; a bare ``from . import x`` gives ''."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(0, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.level, (node.module or "").split(".")[0]))
    return found


def test_numpy_is_the_only_third_party_import():
    third_party = {
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for level, name in imports(path)
        if level == 0 and name not in sys.stdlib_module_names
    }
    assert {name for _, name in third_party} <= {"numpy"}, third_party


def test_bundled_solver_imports_only_the_standard_library():
    found = imports(PACKAGE / "smtlib_solver.py")
    assert found
    assert [(level, name) for level, name in found
            if level != 0 or name not in sys.stdlib_module_names] == []


def test_only_a_process_reaches_the_bundled_solver():
    # solver.py reads replies itself and runs the bundled solver as a program
    importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""]
                names += [alias.name for alias in node.names]
                if any("smtlib_solver" in name.split(".") for name in names):
                    importers.add(path.name)
    assert importers <= {"smtlib_solver.py"}, importers


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", d).group() for d in deps] == ["numpy"]


def test_bundled_configs_are_package_data():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        setuptools = tomllib.load(fh)["tool"]["setuptools"]
    patterns = setuptools["package-data"]["prbslice"]
    files = [path.relative_to(PACKAGE).as_posix()
             for path in sorted((PACKAGE / "configs").iterdir())]
    assert files
    assert [f for f in files
            if not any(fnmatch(f, pattern) for pattern in patterns)] == []


def test_presets_load_outside_the_repository(tmp_path):
    code = ("from prbslice.presets import preset_config, preset_scenario_spec\n"
            "config = preset_config('5-4-13')\n"
            "spec = preset_scenario_spec('5-4-13')\n"
            "print(config.num_slices, len(spec.per_service))")
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["13", "5"]
