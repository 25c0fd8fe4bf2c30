"""The package runs on the standard library alone."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "superpenner"


def test_every_absolute_import_is_stdlib_or_the_package():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "superpenner" and top not in sys.stdlib_module_names:
                    foreign.append((path.name, node.lineno, name))
    assert foreign == []


def test_pyproject_declares_no_dependencies():
    # read as text: tomllib is not in the standard library before 3.11
    lines = (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    assert [line for line in lines if line.strip().startswith("dependencies")] \
        == ["dependencies = []"]
