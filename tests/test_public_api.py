"""Every exported name resolves, every imported name is used, every
definition is reached, and the partial-sum kernels stay in ``spaces``.

The last three checks are stdlib ``ast`` passes over the ``src/symseq``
modules.  An imported name must be used in its module or listed in its
``__all__``.  A top-level function or class must be reachable by name from
``cli.main`` or from a module-level statement; ``__all__`` strings and
imports do not count, so an export alone keeps nothing alive.
"""

import ast
import dataclasses
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


# The space and lattice grammars are closed: every spec holds plain numbers
# that a JSON descriptor names, so no module types a callable parameter and
# the helper that built lattice weights as a callable stays gone.
def test_no_spec_takes_a_callable():
    for path in sorted(SRC.glob("*.py")):
        names = {alias.name for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        assert "Callable" not in names, path.name
    assert not hasattr(symseq, "block_weights_from_lorentz")
    assert not hasattr(symseq.lattices, "block_weights_from_lorentz")
    assert {f.name for f in dataclasses.fields(symseq.WeightedLq)} == {"q", "ratio", "values", "theta"}


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


# Seq is a public value type that no command needs; perfbench/tracing.py
# wraps its constructor, so it stays although nothing in the package calls it.
_REACHABILITY_ROOTS = {"Seq"}


def _unreached_definitions() -> list[str]:
    defs: dict[str, list[tuple[str, ast.AST]]] = {}
    roots = set(_REACHABILITY_ROOTS)

    def names_in(node) -> set[str]:
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((path.stem, node))
                if path.stem == "cli" and node.name == "main":
                    roots.add("main")
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= names_in(node)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, node in defs.get(name, []):
            todo.extend(names_in(node) - reached)
    return sorted(f"{mod}.{name}" for name, entries in defs.items() if name not in reached
                  for mod, _ in entries)


def test_every_definition_is_reachable():
    unreached = _unreached_definitions()
    assert not unreached, f"no command or module-level statement reaches: {unreached}"


def _sibling_imports(path) -> list[str]:
    """The package modules ``path`` imports from (its relative imports)."""
    return [node.module or "" for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level]


# The w^q partial-sum decision lives in spaces alone: spaces._weight_sums
# picks the kernel, and no other module sums a weight or a power itself.
_SUM_KERNELS = {"_power_partial_sums"}


def test_partial_sum_kernels_stay_in_spaces():
    assert _sibling_imports(SRC / "spaces.py") == []
    assert "operators" not in _sibling_imports(SRC / "lattices.py")
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "spaces":
            continue
        tree = ast.parse(path.read_text())
        defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        called = {n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)
                  for n in ast.walk(tree) if isinstance(n, ast.Call)}
        assert not (defined | called) & _SUM_KERNELS, path.name


# indices reads only the spaces it indexes and the limit estimator: the
# weight-ratio route takes its dyadic profile from the Lorentz space itself.
def test_indices_imports_only_limits_and_spaces():
    assert set(_sibling_imports(SRC / "indices.py")) <= {"_limits", "spaces"}


def _self_calls(path, name: str) -> list[int]:
    """Lines where the top-level function ``name`` calls itself by name."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return [n.lineno for n in ast.walk(node) if isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Name) and n.func.id == name]
    raise AssertionError(f"{path.name} defines no {name}")


# One row contract: every lattice hands all rows to one kernel per family,
# so neither entry point walks the rows or a UN / EX(Orlicz) detour itself.
@pytest.mark.parametrize("name", ["lattice_norm", "unit_norms"])
def test_lattice_entry_points_do_not_recurse(name):
    assert _self_calls(SRC / "lattices.py", name) == []


def _dispatchers(path, cls: str) -> list[str]:
    """Functions in ``path`` that call ``isinstance(..., cls)``, tuples included."""
    found = []
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for call in ast.walk(fn):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "isinstance" and len(call.args) == 2
                    and cls in {n.id for n in ast.walk(call.args[1]) if isinstance(n, ast.Name)}):
                found.append(fn.name)
                break
    return found


# One operator kernel: exact and float vectors share every operator body,
# so exactly one function decides what a dividing operator does.
def test_one_function_dispatches_on_operator_classes():
    assert len(_dispatchers(SRC / "operators.py", "DilateDown")) == 1


# The kernel sizes what it builds, so the CLI knows no operator class: it
# parses the text and applies the result.
def test_the_cli_dispatches_on_no_operator_class():
    from symseq import operators

    tree = ast.parse((SRC / "cli.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "operators"
                for alias in node.names}
    assert imported == {"apply_array", "parse_operator"}
    assert not [(cls, fn) for cls in operators.__all__
                for fn in _dispatchers(SRC / "cli.py", cls)]


def _output_writers(path) -> list[str]:
    """Top-level functions in ``path`` that write stdout or open a file to write:
    ``sys.stdout``, a ``print`` with no ``file=``, or an ``open`` in a mode
    with w, a, x or + (a mode that is not a literal counts as writing)."""
    found = []
    for fn in ast.parse(path.read_text()).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            stdout = (isinstance(node, ast.Attribute) and node.attr == "stdout"
                      and isinstance(node.value, ast.Name) and node.value.id == "sys")
            call = isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            bare_print = call and node.func.id == "print" and not any(
                kw.arg == "file" for kw in node.keywords)
            mode = None
            if call and node.func.id == "open":
                args = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
                mode = "r" if not args else args[0].value if isinstance(args[0], ast.Constant) else "w"
            if stdout or bare_print or (mode is not None and set(mode) & set("wax+")):
                found.append(fn.name)
                break
    return found


# One output path: every subcommand returns its result as data, and
# cli.run alone renders it and writes it to stdout or --out.
def test_only_run_writes_command_output():
    assert _output_writers(SRC / "cli.py") == ["run"]
