"""Checks on the package as a whole."""

import ast
from pathlib import Path

import fracwave

PACKAGE = Path(fracwave.__file__).resolve().parent


def test_no_module_imports_a_private_name_of_another():
    # an underscore name belongs to its module: another module that needs
    # it calls the public function that owns the quantity instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "fracwave"
            found += [f"{path.name}:{node.lineno} imports {alias.name}"
                      for alias in node.names
                      if internal and alias.name.startswith("_")]
    assert found == []
