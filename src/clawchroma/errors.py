"""Exception types shared across the package.

Every error raised by the library derives from ClawChromaError so CLI and
harness code can distinguish bad input (exit 2) from a violated mathematical
claim (exit 1, see ClaimViolationError).
"""

from __future__ import annotations


class ClawChromaError(Exception):
    """Base class for all library errors."""


class SelfLoopError(ClawChromaError):
    """An edge (v, v) was supplied; graphs here are simple."""


class VertexOutOfRangeError(ClawChromaError):
    """A vertex id is negative or >= n."""


class ParamRangeError(ClawChromaError):
    """A generator or CLI parameter is outside its documented range."""


class ScaleExceededError(ClawChromaError):
    """Input is larger than the documented implementation cap."""


class PartialColoringError(ClawChromaError):
    """A coloring does not assign a color to every vertex."""


class NotInClassError(ClawChromaError):
    """The graph contains a forbidden induced subgraph.

    Carries the witness so callers can report it.
    """

    def __init__(self, witness, message: str | None = None):
        self.witness = witness
        super().__init__(message or f"graph is not in class: {witness}")

    def __reduce__(self):
        return type(self), (self.witness, str(self))


class BoundViolatedError(ClawChromaError):
    """Strict coloring was requested but max degree exceeds 2*omega - 3."""

    def __init__(self, delta: int, omega: int):
        self.delta = delta
        self.omega = omega
        super().__init__(
            f"max degree {delta} exceeds 2*omega - 3 = {2 * omega - 3}"
        )

    def __reduce__(self):
        return type(self), (self.delta, self.omega)


class ParseError(ClawChromaError):
    """A text input (DIMACS or coloring file) could not be parsed."""


class MalformedHeaderError(ParseError):
    """DIMACS input is missing a valid 'p edge N M' line."""


class ClaimViolationError(ClawChromaError):
    """A guaranteed structural claim failed on a concrete graph.

    This is the loud-falsification path: it should never fire, and when it
    does the offending graph is attached for serialization.
    """

    def __init__(self, category: str, graph, message: str):
        self.category = category
        self.graph = graph
        self.message = message
        super().__init__(f"{category}: {message}")

    def __reduce__(self):
        return type(self), (self.category, self.graph, self.message)
