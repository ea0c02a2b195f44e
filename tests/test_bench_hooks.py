"""The benchmark tracer's hooks still resolve, checked in-process.

`bench/tracing.py` wraps driftkit functions at the module attributes named
in its ``HOOKS``; a refactor that renames or drops one leaves that part of a
traced run unmeasured. This loads the tracer from its file and checks every
target without starting the benchmark.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves():
    tracing = load_tracing()
    modules = tracing.driftkit_modules()
    unresolved = [
        f"{name}.{attr}"
        for name, attr, _ in tracing.HOOKS
        if not callable(getattr(modules[name], attr, None))
    ]
    assert unresolved == []

    tracer = tracing.Tracer()
    originals = {(name, attr): getattr(modules[name], attr) for name, attr, _ in tracing.HOOKS}
    try:
        tracer.install(modules)
        assert tracer.missing_hooks == []
    finally:
        tracer.uninstall()
    assert all(getattr(modules[n], a) is fn for (n, a), fn in originals.items())
