"""Package-level structure: module layering, lazy solver imports and the single version number."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import superhs
from superhs import numerics
from superhs.reporting import TOOL_VERSION

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "superhs"

SYMBOLIC = ("algebra", "calculus", "density", "structures", "sexpr", "reporting")
NUMERIC = {"numpy", "grassmann", "numerics"}


def _imported_modules(path: Path) -> set:
    """Every module name an import statement in the file mentions, split at dots."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            if not node.module:  # from . import name
                names.update(alias.name for alias in node.names)
    return names


def test_symbolic_modules_import_no_numerics():
    # negative control: the scan finds what the solver does import
    assert {"numpy", "grassmann"} <= _imported_modules(PACKAGE / "numerics.py")
    for module in SYMBOLIC:
        bad = _imported_modules(PACKAGE / f"{module}.py") & NUMERIC
        assert not bad, f"superhs.{module} imports {sorted(bad)}"


def test_verify_loads_no_numpy():
    code = (
        "import sys\n"
        "from superhs.cli import main\n"
        "assert main(['verify', '--suite', 'bracket']) == 0\n"
        "assert 'numpy' not in sys.modules, 'verify imported numpy'\n"
        # negative control: the first numeric name loads the solver
        "import superhs\n"
        "superhs.evolve\n"
        "assert 'numpy' in sys.modules\n"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_solver_names_stay_importable_from_the_package():
    names = ("BlowUpError", "GridState", "SolverConfig", "Trajectory", "conserved_quantities",
             "evaluate", "evolve", "initial_state", "residual_check", "rhs_once_integrated", "step")
    for name in names:
        assert getattr(superhs, name) is getattr(numerics, name)
        assert name in dir(superhs)
    from superhs import evaluate, evolve  # noqa: F401
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        superhs.no_such_name


def test_pyproject_version_is_the_tool_version():
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match, "pyproject.toml has no version line"
    assert match.group(1) == TOOL_VERSION
