"""No driftkit module imports another's private names, and only ``BinRows`` aligns two rows.

``divergence.BinRows`` is the one reader of a pair; these AST checks keep a
second one from growing back through a private helper. Importing the
private module ``_fork`` itself (``from . import _fork``) is allowed.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "driftkit"
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


def test_no_module_imports_a_private_name_of_another():
    private = [
        f"{stem}: from {node.module} import {alias.name}"
        for stem, tree in sorted(TREES.items())
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module is not None  # ``from . import _fork`` imports a module
        and (node.level > 0 or node.module.split(".")[0] == "driftkit")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def _aligned_calls(tree: ast.AST) -> list[ast.Call]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_aligned"
    ]


def test_only_bin_rows_calls_aligned():
    (reader,) = [
        node
        for node in TREES["divergence"].body
        if isinstance(node, ast.ClassDef) and node.name == "BinRows"
    ]
    inside = {id(call) for call in _aligned_calls(reader)}
    outside = [
        f"{stem}.py:{call.lineno}"
        for stem, tree in sorted(TREES.items())
        for call in _aligned_calls(tree)
        if id(call) not in inside
    ]
    assert inside and outside == []
