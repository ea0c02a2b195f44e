"""Every name a driftkit module imports is used there, unless the benchmark tracer hooks it.

No linter is part of the test run, so this AST check stands in for an
unused-import rule. `bench/tracing.py` wraps functions at the module
attributes named in its ``HOOKS``; a name imported only so that such a hook
resolves (``analysis.divergence_of``, say) is allowed for exactly that
(module, attr) pair, so the hook-only imports are listed in one place.
"""

import ast
from pathlib import Path

from test_bench_hooks import load_tracing

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "driftkit"


def unused_imports(source: str) -> set[str]:
    """The names that ``source`` imports (``__future__`` aside) and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_imported_name_is_used_or_hooked():
    hooked = {(module, attr) for module, attr, _ in load_tracing().HOOKS}
    unused = sorted(
        f"{path.stem}.{name}"
        for path in PACKAGE.glob("*.py")
        if path.stem != "__init__"
        for name in unused_imports(path.read_text(encoding="utf-8"))
        if (path.stem, name) not in hooked
    )
    assert unused == []
