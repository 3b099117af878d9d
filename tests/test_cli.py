import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from clawchroma import cli
from clawchroma.cli import main
from clawchroma.coloring import verify_proper
from clawchroma.dimacs import parse_coloring, parse_dimacs, write_dimacs
from graphzoo import claw, k4_minus_edge

from clawchroma import wheel

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def wheel_file(tmp_path):
    f = tmp_path / "wheel5.col"
    f.write_text(write_dimacs(wheel(5)))
    return str(f)


@pytest.fixture()
def claw_file(tmp_path):
    f = tmp_path / "claw.col"
    f.write_text(write_dimacs(claw()))
    return str(f)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_in_class(capsys, wheel_file):
    code, out, _ = _run(capsys, ["check", wheel_file])
    assert code == 0 and out == "in-class true\n"


def test_check_excluded(capsys, claw_file):
    code, out, _ = _run(capsys, ["check", claw_file])
    assert code == 0
    assert out == "in-class false\nwitness claw 0 1 2 3\n"


def test_color_strict(capsys, tmp_path):
    f = tmp_path / "g.col"
    f.write_text(write_dimacs(k4_minus_edge()))
    code, out, err = _run(capsys, ["color", str(f), "--strict-omega"])
    assert code == 0
    coloring = parse_coloring(out, 4)
    assert verify_proper(k4_minus_edge(), coloring) is None
    assert coloring.colors_used == 3
    assert "colors-used 3" in err


def test_color_bound_violation_is_input_error(capsys, wheel_file):
    code, _, err = _run(capsys, ["color", wheel_file, "--strict-omega"])
    assert code == 2 and "max degree" in err


def test_color_out_of_class_is_input_error(capsys, claw_file):
    code, _, err = _run(capsys, ["color", claw_file])
    assert code == 2 and "not in class" in err


def test_report_json_golden(capsys, wheel_file):
    code, out, _ = _run(capsys, ["report", wheel_file, "--json"])
    assert code == 0
    assert out == (GOLDEN / "wheel5_report.json").read_text()
    code, again, _ = _run(capsys, ["report", wheel_file, "--json"])
    assert again == out


def test_report_human(capsys, wheel_file):
    code, out, _ = _run(capsys, ["report", wheel_file])
    assert code == 0
    assert "branch wheel_case" in out


def test_gen_wheel_roundtrip(capsys):
    code, out, _ = _run(capsys, ["gen", "wheel", "5"])
    assert code == 0
    assert parse_dimacs(out) == wheel(5)


def test_gen_blowup_report_golden(capsys, tmp_path):
    code, out, _ = _run(capsys, ["gen", "blowup", "2", "2"])
    assert code == 0
    f = tmp_path / "blowup.col"
    f.write_text(out)
    code, out, _ = _run(capsys, ["report", str(f), "--json"])
    assert code == 0
    assert out == (GOLDEN / "blowup22_report.json").read_text()


def test_gen_random_deterministic(capsys):
    code, first, _ = _run(capsys, ["gen", "random", "9", "0.4", "7"])
    assert code == 0
    assert "c seed 7" in first
    code, second, _ = _run(capsys, ["gen", "random", "9", "0.4", "7"])
    assert first == second
    g = parse_dimacs(first)
    assert g.n == 9


def test_gen_bad_params(capsys):
    code, _, err = _run(capsys, ["gen", "wheel", "2"])
    assert code == 2 and "error" in err


def test_verify_proper_and_improper(capsys, tmp_path):
    g = k4_minus_edge()
    gf = tmp_path / "g.col"
    gf.write_text(write_dimacs(g))
    good = tmp_path / "good.sol"
    good.write_text("v 1 1\nv 2 2\nv 3 3\nv 4 3\n")
    code, out, _ = _run(capsys, ["verify", str(gf), str(good)])
    assert code == 0 and out.startswith("proper true")

    bad = tmp_path / "bad.sol"
    bad.write_text("v 1 1\nv 2 1\nv 3 2\nv 4 3\n")
    code, out, _ = _run(capsys, ["verify", str(gf), str(bad)])
    assert code == 1 and "conflict 1 2" in out


def test_verify_partial_is_input_error(capsys, tmp_path):
    g = k4_minus_edge()
    gf = tmp_path / "g.col"
    gf.write_text(write_dimacs(g))
    sol = tmp_path / "partial.sol"
    sol.write_text("v 1 1\n")
    code, _, _ = _run(capsys, ["verify", str(gf), str(sol)])
    assert code == 2


def test_stress_exhaustive_small(capsys):
    code, out, _ = _run(capsys, ["stress", "--exhaustive", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["graphs_checked"] == 1 + 2 + 8 + 64
    assert all(v == 0 for k, v in payload.items() if k.endswith("_violations"))
    code, again, _ = _run(capsys, ["stress", "--exhaustive", "4"])
    assert again == out


def test_stress_random_golden(capsys):
    argv = ["stress", "--random", "5", "8", "300", "20250811"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert out == (GOLDEN / "random_sweep.json").read_text()
    code, again, _ = _run(capsys, argv)
    assert again == out


def test_missing_file_is_input_error(capsys):
    code, _, err = _run(capsys, ["check", "/nonexistent/graph.col"])
    assert code == 2 and "error" in err


@pytest.mark.parametrize("value", ["auto", "-1", "1.5"])
def test_bad_threads_env_is_input_error(capsys, monkeypatch, value):
    monkeypatch.setenv("CLAWCHROMA_THREADS", value)
    code, out, err = _run(capsys, ["stress", "--exhaustive", "3"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "CLAWCHROMA_THREADS" in err


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_repeated_calls_share_the_parser(capsys, wheel_file):
    golden = (GOLDEN / "wheel5_report.json").read_text()
    code, first, _ = _run(capsys, ["report", wheel_file, "--json"])
    assert code == 0 and first == golden
    code, out, _ = _run(capsys, ["color", wheel_file])
    assert code == 0 and out.startswith("v 1 ")
    with pytest.raises(SystemExit) as exc:
        main(["gen", "wheel", "five"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, again, _ = _run(capsys, ["report", wheel_file, "--json"])
    assert code == 0 and again == golden


def test_import_leaves_process_pool_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys, clawchroma.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
        "if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert out == "[]\n"
