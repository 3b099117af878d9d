"""Kernel backend selection.

The compiled extension (_fastcore, over uint64 masks) is used when it
imported cleanly and the graph fits in 64 vertices; otherwise the pure-Python
kernels take over. Both return identical results (values, witnesses and list
orders), so nothing depends on the backend, although their searches may
differ. Set CLAWCHROMA_PURE=1 to force the pure backend.

_fastcore.c is the Cython output for _fastcore.pyx. setup.py compiles it as
shipped, without Cython, and both files are frozen (so the .pyx docstring's
"same search orders" is older than pure.py's current searches). Kernel
changes go into pure.py and must keep its results; tests/test_backends.py
holds the two backends equal.
"""

from __future__ import annotations

import os

from . import pure

_fast = None
if os.environ.get("CLAWCHROMA_PURE", "").strip() in ("", "0"):
    try:
        from . import _fastcore as _fast  # type: ignore[attr-defined]
    except ImportError:
        _fast = None

backend_name = "compiled" if _fast is not None else "pure"


def _impl(n: int):
    if _fast is not None and n <= 64:
        return _fast
    return pure


def find_claw(adj, n):
    return _impl(n).find_claw(adj, n)


def find_k5_minus_p3(adj, n):
    return _impl(n).find_k5_minus_p3(adj, n)


def clique_number(adj, n, sub):
    return _impl(n).clique_number(adj, n, sub)


def lex_min_max_clique(adj, n, sub):
    return _impl(n).lex_min_max_clique(adj, n, sub)


def max_cliques(adj, n, sub):
    return _impl(n).max_cliques(adj, n, sub)


def dsatur(adj, n, sub):
    return _impl(n).dsatur(adj, n, sub)


def k_color(adj, n, sub, k, clique=0):
    return _impl(n).k_color(adj, n, sub, k, clique)


def scan_in_class(n, start, stop):
    # edge masks exceed one word past n = 11; pure handles any width
    impl = _impl(n) if n <= 11 else pure
    return impl.scan_in_class(n, start, stop)
