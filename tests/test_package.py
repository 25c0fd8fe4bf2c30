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


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _code_strings(tree):
    """The str constants of tree outside its docstrings."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings]


def test_fileio_alone_knows_the_document_format():
    import superpenner
    from superpenner import fileio

    trees = _trees()
    # the graph combinatorics and the algebra import no package module
    for name in ("fatgraph.py", "grassmann.py"):
        assert [node.lineno for node in ast.walk(trees[name])
                if isinstance(node, ast.ImportFrom) and node.level > 0] == [], name
    # the header is spelled once in code, and no message spells it again
    headers = [(name, s) for name, tree in trees.items()
               for s in _code_strings(tree) if "fatgraph v1" in s]
    assert headers == [("fileio.py", "fatgraph v1")]
    kinds = {"vertex", "edge", "orient", "lambda", "mu"}
    tuples = [name for name, tree in trees.items() for node in ast.walk(tree)
              if isinstance(node, (ast.Tuple, ast.List, ast.Set))
              and {getattr(elt, "value", None) for elt in node.elts} == kinds]
    assert tuples == ["fileio.py"]
    moved = {"scan_document", "graph_from_records", "parse_fatgraph", "render_fatgraph",
             "_integer_tokens", "_strip_comment"}
    defined = {node.name for node in trees["fatgraph.py"].body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined & moved == set()
    assert superpenner.parse_fatgraph is fileio.parse_fatgraph
