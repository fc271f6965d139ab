"""Package-level structure: module layering and the single version number."""
import ast
import re
from pathlib import Path

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


def test_pyproject_version_is_the_tool_version():
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match, "pyproject.toml has no version line"
    assert match.group(1) == TOOL_VERSION
