"""The benchmark tracer replaces functions by (module, attribute) name, so a
renamed or deleted name breaks `perfbench/run.py --trace 1`. This checks every
name it wraps still resolves, without importing perfbench as a package."""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracer_wraps():
    # compiled from source so nothing is written under perfbench/
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace["WRAPS"]


def test_every_traced_name_resolves():
    wraps = _tracer_wraps()
    assert wraps
    missing = [
        (module, attr)
        for module, attr, _ in wraps
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
