"""No dead code in the package, checked on its syntax trees (stdlib `ast`).

A public module-level function or class of `ruledkit` must be reached
from somewhere: an identifier in some `ruledkit` module, a name or a
string in the benchmark's `perfbench/*.py` (the tracer binds functions
by name), or `ruledkit.__all__`. A private one must be reached from
some `ruledkit` module: a test or the benchmark alone does not keep it.
Click commands are reached through their group and are exempt. And no
module but `__init__` may import a name it never uses.
"""

import ast
import pathlib
from collections import Counter

import ruledkit

SRC = pathlib.Path(ruledkit.__file__).parent
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _trees(directory: pathlib.Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(directory.glob("*.py"))}


def _identifiers(tree: ast.AST) -> Counter:
    """How often the tree reads or binds each name and attribute name."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def _strings(tree: ast.AST) -> set[str]:
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def _is_click_command(node) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def unreferenced_definitions() -> list[str]:
    """Module-level functions and classes named nowhere outside their own
    definition: public ones in no `ruledkit` module, benchmark file or
    `ruledkit.__all__`, private ones in no `ruledkit` module."""
    trees = _trees(SRC)
    used = Counter()
    for tree in trees.values():
        used += _identifiers(tree)
    outside = set(ruledkit.__all__)
    for tree in _trees(PERFBENCH).values():
        outside |= set(_identifiers(tree)) | _strings(tree)
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not _is_click_command(node)
                    and (node.name.startswith("_") or node.name not in outside)
                    and used[node.name] == _identifiers(node)[node.name]):
                out.append(f"{module}.{node.name}")
    return out


def unused_imports() -> list[str]:
    out = []
    for module, tree in _trees(SRC).items():
        if module == "__init__":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = alias.name
        used = _identifiers(tree)
        out += [f"{module}: {name}" for local, name in imported.items() if not used[local]]
    return out


def test_every_public_definition_is_referenced():
    assert unreferenced_definitions() == []


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports() == []
