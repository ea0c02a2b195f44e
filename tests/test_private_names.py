"""No driftkit module imports another's private names, only ``BinRows`` aligns two rows,
the producers do not intern their panels, and arrays sum with ``exact_sum``.

``divergence.BinRows`` is the one reader of a pair; these AST checks keep a
second one from growing back through a private helper. Importing the
private module ``_fork`` itself (``from . import _fork``) is allowed. The
private-name check reads the test oracle ``tests/reference.py`` too, so
the oracle never checks the library against the library's own helpers. The
producers build their count panels from arrays, so ``CountPanel.intern``
hashes item ids only for hand-built distributions (``popularity.panel_of``)
and the mapping API (``divergence._mapping_rows``). ``divergence.exact_sum``
gives math.fsum's bits without a Python float per value, so fsum is called
only in its fallback for non-finite or overflowing input and in
``forecast``, which sums a few Python floats.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "driftkit"
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
REFERENCE = Path(__file__).with_name("reference.py")


def test_no_module_imports_a_private_name_of_another():
    oracle = {"tests/reference": ast.parse(REFERENCE.read_text(encoding="utf-8"))}
    private = [
        f"{stem}: from {node.module} import {alias.name}"
        for stem, tree in sorted({**TREES, **oracle}.items())
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module is not None  # ``from . import _fork`` imports a module
        and (node.level > 0 or node.module.split(".")[0] == "driftkit")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def _calls(tree: ast.AST, name: str) -> list[ast.Call]:
    """Calls in ``tree`` of a function, method or attribute named ``name``."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
    ]


def test_only_bin_rows_calls_aligned():
    (reader,) = [
        node
        for node in TREES["divergence"].body
        if isinstance(node, ast.ClassDef) and node.name == "BinRows"
    ]
    inside = {id(call) for call in _calls(reader, "_aligned")}
    outside = [
        f"{stem}.py:{call.lineno}"
        for stem, tree in sorted(TREES.items())
        for call in _calls(tree, "_aligned")
        if id(call) not in inside
    ]
    assert inside and outside == []


def test_only_panel_of_and_the_mapping_api_intern():
    allowed = {("popularity", "panel_of"), ("divergence", "_mapping_rows")}
    inside = {
        id(call)
        for stem, name in allowed
        for func in TREES[stem].body
        if isinstance(func, ast.FunctionDef) and func.name == name
        for call in _calls(func, "intern")
    }
    outside = [
        f"{stem}.py:{call.lineno}"
        for stem, tree in sorted(TREES.items())
        for call in _calls(tree, "intern")
        if id(call) not in inside
    ]
    assert inside and outside == []


def test_only_the_exact_sum_fallback_and_forecast_call_fsum():
    (kernel,) = [
        node
        for node in TREES["divergence"].body
        if isinstance(node, ast.FunctionDef) and node.name == "exact_sum"
    ]
    fallback = [call for node in kernel.body if isinstance(node, ast.If) for call in _calls(node, "fsum")]
    allowed = {id(call) for call in fallback + _calls(TREES["forecast"], "fsum")}
    outside = [
        f"{stem}.py:{call.lineno}"
        for stem, tree in sorted(TREES.items())
        for call in _calls(tree, "fsum")
        if id(call) not in allowed
    ]
    assert len(fallback) == 1 and outside == []
