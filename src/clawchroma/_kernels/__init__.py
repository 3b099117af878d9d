"""The hot kernels, re-exported from pure.py.

Callers look them up here at call time (``K.<name>``), so replacing a name
in this module, as perfbench's tracer does, reaches every caller.
``backend_name`` names the implementation.
"""

from __future__ import annotations

from .pure import (
    claw_free_has_k5_minus_p3,
    claw_through,
    clique_number,
    dsatur,
    find_claw,
    find_k5_minus_p3,
    has_clique,
    in_class_extensions,
    k5_minus_p3_through,
    k_color,
    lex_min_max_clique,
    max_cliques,
    scan_in_class,
)

backend_name = "pure"
