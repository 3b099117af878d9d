"""The benchmark tracer replaces functions by (module, attribute) name, so a
renamed or deleted name breaks `perfbench/run.py --trace 1`. This checks every
name it wraps still resolves, without importing perfbench as a package, and
that a module imports no name it never uses unless the tracer wraps it there.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
PACKAGE = ROOT / "src" / "clawchroma"

# imported only so that the tracer can wrap them at that module
TRACER_ONLY = {
    ("clawchroma.report", "color_in_class"),
    ("clawchroma.report", "omega_of"),
    ("clawchroma.stress", "color_in_class"),
    ("clawchroma.stress", "exact_chromatic"),
    ("clawchroma.stress", "find_branching_component"),
    ("clawchroma.stress", "find_induced_wheel6"),
    ("clawchroma.stress", "is_in_class"),
    ("clawchroma.stress", "random_graph"),
    ("clawchroma.stress", "verify_proper"),
}


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


def _unused_imports(path):
    """Names a module binds by import and never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_unused_imports_are_the_tracers():
    """Package __init__ modules re-export, so they are exempt."""
    wrapped = {(module, attr) for module, attr, _ in _tracer_wraps()}
    unused = set()
    for path in PACKAGE.rglob("*.py"):
        if path.name != "__init__.py":
            module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
            unused |= {(module, name) for name in _unused_imports(path)}
    assert unused == TRACER_ONLY
    assert TRACER_ONLY <= wrapped
