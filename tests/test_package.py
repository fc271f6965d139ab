"""Package-level structure: module layering, lazy solver imports, no random
numbers in the package, the single version number and the README example."""
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


def _private_names_from(path: Path, module: str) -> set:
    """Underscore names the file imports from ``module`` (relative or absolute)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            names.update(alias.name for alias in node.names if alias.name.startswith("_"))
    return names


def test_structures_imports_no_private_density_names():
    # negative control: the density tests do reach into the lead-table reduction
    assert "_reduce_by_leads" in _private_names_from(ROOT / "tests" / "test_density.py", "density")
    assert not _private_names_from(PACKAGE / "structures.py", "density")


def test_package_draws_no_random_numbers():
    # the checks are fixed identities; seeded sampling lives in the tests
    assert "random" in _imported_modules(ROOT / "tests" / "helpers.py")  # negative control
    for path in sorted(PACKAGE.glob("*.py")):
        assert "random" not in _imported_modules(path), f"superhs.{path.stem} imports random"


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


def test_no_command_loads_openssl(tmp_path):
    # hashlib maps OpenSSL's libcrypto through _hashlib; the config hash uses the builtin digest.
    # No command loads dataclasses, which imports inspect, ast, dis and tokenize; numpy
    # itself imports inspect, so after simulate only dataclasses must stay out.
    (tmp_path / "cfg.json").write_text(
        '{"n_modes": 64, "dt": 0.002, "t_end": 0.02, "n_grassmann": 2, "sample_stride": 5,'
        ' "initial": {"u": [{"level": [], "cos": {"1": 1.0}}],'
        ' "xi": [{"level": [1], "cos": {"1": 0.1}}]}}'
    )
    code = (
        "import sys\n"
        "from superhs.cli import main\n"
        "work = sys.argv[1]\n"
        "assert main(['verify', '--suite', 'bracket', '--out', work + '/r.json']) == 0\n"
        "assert main(['report', work + '/r.json']) == 0\n"
        "loaded = {'dataclasses', 'inspect'} & set(sys.modules)\n"
        "assert not loaded, f'verify or report loaded {sorted(loaded)}'\n"
        "assert main(['simulate', '--config', work + '/cfg.json', '--out-dir', work + '/out']) == 0\n"
        "loaded = {'hashlib', '_hashlib', 'dataclasses'} & set(sys.modules)\n"
        "assert not loaded, f'superhs loaded {sorted(loaded)}'\n"
        # negative controls: hashlib itself loads the OpenSSL binding, and dataclasses
        # loads inspect (dropped first, since numpy has loaded it)
        "import hashlib\n"
        "assert '_hashlib' in sys.modules\n"
        "sys.modules.pop('inspect', None)\n"
        "import dataclasses\n"
        "assert 'inspect' in sys.modules\n"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env={**os.environ, "PYTHONPATH": path},
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


def test_readme_programmatic_example_runs():
    text = (ROOT / "README.md").read_text()
    match = re.search(r"^## Programmatic use\n.*?^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert match, "README.md has no Programmatic use python block"
    assert "assert " in match.group(1)
    exec(compile(match.group(1), "README.md", "exec"), {})
