import pytest

from clawchroma.coloring import Coloring
from clawchroma.dimacs import (
    parse_coloring,
    parse_dimacs,
    write_coloring,
    write_dimacs,
)
from clawchroma.errors import (
    MalformedHeaderError,
    ParseError,
    PartialColoringError,
    SelfLoopError,
    VertexOutOfRangeError,
)
from clawchroma.graph import degree_profile
from clawchroma.report import classify_trichotomy

from clawchroma import wheel


def test_parse_path():
    g = parse_dimacs("p edge 3 2\ne 1 2\ne 2 3\n")
    assert degree_profile(g) == ((1, 2, 1), 2)


def test_parse_self_loop():
    with pytest.raises(SelfLoopError) as exc:
        parse_dimacs("p edge 2 1\ne 1 1\n")
    assert str(exc.value) == "line 2: self-loop at vertex 1"


def test_parse_vertex_out_of_range():
    # messages name the line and the endpoints as written, 1-based
    cases = [
        ("p edge 2 1\ne 1 3\n", "line 2: edge (1, 3) outside 1..2"),
        ("p edge 3 1\ne 0 1\n", "line 2: edge (0, 1) outside 1..3"),
        ("c x\np edge 3 2\ne 1 2\ne 3 4\n", "line 4: edge (3, 4) outside 1..3"),
    ]
    for text, message in cases:
        with pytest.raises(VertexOutOfRangeError) as exc:
            parse_dimacs(text)
        assert str(exc.value) == message


def test_parse_wheel_and_classify():
    text = write_dimacs(wheel(5))
    g = parse_dimacs(text)
    assert g == wheel(5)
    assert classify_trichotomy(g).chi == 4


def test_comments_and_blank_lines():
    g = parse_dimacs("c a comment\n\np edge 2 1\nc another\ne 1 2\n")
    assert g.edge_count == 1


def test_duplicate_edges_collapse_with_warning(capsys):
    g = parse_dimacs("p edge 3 3\ne 1 2\ne 2 1\ne 1 2\n")
    assert g.edge_count == 1
    assert "warning" in capsys.readouterr().err


def test_header_errors():
    with pytest.raises(MalformedHeaderError):
        parse_dimacs("e 1 2\n")
    with pytest.raises(MalformedHeaderError):
        parse_dimacs("p edge x 1\ne 1 2\n")
    with pytest.raises(MalformedHeaderError):
        parse_dimacs("p edge 2 1\np edge 2 1\n")
    with pytest.raises(MalformedHeaderError):
        parse_dimacs("")
    with pytest.raises(ParseError):
        parse_dimacs("p edge 2 1\nq 1 2\n")
    with pytest.raises(ParseError):
        parse_dimacs("p edge 2 1\ne 1\n")


def test_dimacs_roundtrip():
    g = wheel(5)
    assert parse_dimacs(write_dimacs(g, ["generated"])) == g


def test_coloring_roundtrip():
    c = Coloring((1, 2, 3, 1))
    text = write_coloring(c)
    assert text == "v 1 1\nv 2 2\nv 3 3\nv 4 1\n"
    assert parse_coloring(text, 4) == c


def test_coloring_partial():
    with pytest.raises(PartialColoringError):
        parse_coloring("v 1 1\n", 2)


def test_coloring_parse_errors():
    with pytest.raises(ParseError):
        parse_coloring("v 3 1\n", 2)
    with pytest.raises(ParseError):
        parse_coloring("v 1 0\n", 1)
    with pytest.raises(ParseError):
        parse_coloring("v 1 1\nv 1 2\n", 1)
    with pytest.raises(ParseError):
        parse_coloring("w 1 1\n", 1)
