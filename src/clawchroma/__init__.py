"""clawchroma: structure and coloring of {K1,3, K5-P3}-free graphs.

Recognizes the class, checks the four neighborhood shapes, computes exact
clique numbers and chromatic numbers at desk scale, produces
clique-number-exact colorings under the degree bound delta <= 2*omega - 3,
and verifies the guaranteed structural facts exhaustively over small labeled
graphs.
"""

from ._kernels import backend_name
from .cliques import omega
from .colorer import RepairTrace, class_color, omega_color_strict
from .coloring import (
    Coloring,
    dsatur_greedy,
    exact_chromatic,
    find_branching_component,
    verify_proper,
)
from .generators import blown_up_odd_cycle, line_graph, random_in_class, wheel
from .graph import Graph, build_graph, degree_profile, from_edge_mask
from .recognition import (
    ClassVerdict,
    ForbiddenWitness,
    find_claw,
    find_k5_minus_p3,
    is_in_class,
    verify_neighborhood_all_cliques,
)
from .report import ClassReport, classify_trichotomy, emit_report, find_induced_wheel6
from .stress import StressSummary, run_stress

__version__ = "0.1.0"

__all__ = [
    "backend_name",
    "Graph",
    "build_graph",
    "degree_profile",
    "from_edge_mask",
    "ForbiddenWitness",
    "ClassVerdict",
    "find_claw",
    "find_k5_minus_p3",
    "is_in_class",
    "verify_neighborhood_all_cliques",
    "omega",
    "Coloring",
    "verify_proper",
    "dsatur_greedy",
    "exact_chromatic",
    "find_branching_component",
    "RepairTrace",
    "omega_color_strict",
    "class_color",
    "wheel",
    "blown_up_odd_cycle",
    "line_graph",
    "random_in_class",
    "ClassReport",
    "classify_trichotomy",
    "find_induced_wheel6",
    "emit_report",
    "StressSummary",
    "run_stress",
    "__version__",
]
