"""Module boundaries: no module of the package imports a private
(underscore) name from a sibling module."""

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
