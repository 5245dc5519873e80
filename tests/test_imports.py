"""Module boundaries: no module of the package imports a private
(underscore) name from a sibling module, and every Perron solve goes
through ``rpf_solve``."""

import ast
from pathlib import Path

import ldplab

PACKAGE = Path(ldplab.__file__).parent


def test_no_module_imports_a_siblings_private_name():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            sibling = node.level > 0 or (node.module or "").split(".")[0] == "ldplab"
            private = [a.name for a in node.names
                       if a.name.startswith("_") and not a.name.endswith("__")]
            if sibling and private:
                offenders.append(f"{path.name}:{node.lineno} imports {', '.join(private)}")
    assert not offenders


def _callers(node, name, scope="<module>"):
    """Innermost enclosing function of each call to ``name`` under ``node``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = node.name
    found = []
    if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                               getattr(node.func, "attr", None)):
        found.append(scope)
    for child in ast.iter_child_nodes(node):
        found += _callers(child, name, scope)
    return found


def test_perron_is_called_only_by_rpf_solve():
    callers = [f"{path.name}:{scope}" for path in sorted(PACKAGE.glob("*.py"))
               for scope in _callers(ast.parse(path.read_text(encoding="utf-8")), "_perron")]
    assert callers == ["thermo.py:rpf_solve"]
