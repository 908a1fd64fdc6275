"""Every exported name resolves, and every imported name is used.

The second check is a stdlib ``ast`` pass over each ``src/symseq`` module:
an imported name must be used in the module or listed in its ``__all__``.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import symseq

SRC = Path(symseq.__file__).parent
MODULES = [symseq] + [
    importlib.import_module(f"symseq.{info.name}")
    for info in pkgutil.iter_modules(symseq.__path__)
]


@pytest.mark.parametrize("mod", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(mod):
    names = getattr(mod, "__all__", [])
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, f"{mod.__name__}.__all__ names missing attributes: {missing}"
    assert len(set(names)) == len(names)


def _unused_imports(path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used | exported]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = _unused_imports(path)
    assert not unused, f"{path.name} imports names it never uses: {unused}"
