"""Library errors survive pickling, as a worker process's result transfer
needs, with their attributes and message unchanged."""

import pickle

from clawchroma.errors import (
    BoundViolatedError,
    ClaimViolationError,
    NotInClassError,
)
from clawchroma.recognition import ForbiddenWitness

from clawchroma import wheel


def _roundtrip(e):
    back = pickle.loads(pickle.dumps(e))
    assert type(back) is type(e)
    assert str(back) == str(e)
    return back


def test_claim_violation_error_pickles():
    g = wheel(5)
    e = ClaimViolationError("colorer_proper", g, "output coloring improper")
    back = _roundtrip(e)
    assert str(back) == "colorer_proper: output coloring improper"
    assert back.category == "colorer_proper"
    assert back.graph == g
    assert back.message == "output coloring improper"


def test_bound_violated_error_pickles():
    back = _roundtrip(BoundViolatedError(7, 4))
    assert str(back) == "max degree 7 exceeds 2*omega - 3 = 5"
    assert (back.delta, back.omega) == (7, 4)


def test_not_in_class_error_pickles():
    witness = ForbiddenWitness("claw", (0, 1, 2, 3))
    back = _roundtrip(NotInClassError(witness))
    assert str(back) == f"graph is not in class: {witness}"
    assert back.witness == witness
    back = _roundtrip(NotInClassError(witness, "custom message"))
    assert str(back) == "custom message"
    assert back.witness == witness
