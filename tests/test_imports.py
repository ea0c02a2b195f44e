"""Every name a driftkit module imports is used there, unless the benchmark tracer hooks it.

No linter is part of the test run, so this AST check stands in for an
unused-import rule. `bench/tracing.py` wraps functions at the module
attributes named in its ``HOOKS``; a name imported only so that such a hook
resolves is allowed for exactly that (module, attr) pair, and only if it is
listed in ``HOOK_ONLY_IMPORTS``. So a new production import kept only for
the tracer fails the test.
"""

import ast
from pathlib import Path

from test_bench_hooks import load_tracing

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "driftkit"

# "module.name" of each import that only a tracer hook reads
HOOK_ONLY_IMPORTS = ["analysis.divergence_of"]


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
    unused = [
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
        for name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert sorted(f"{m}.{name}" for m, name in unused if (m, name) not in hooked) == []
    assert sorted(f"{m}.{name}" for m, name in unused if (m, name) in hooked) == HOOK_ONLY_IMPORTS
