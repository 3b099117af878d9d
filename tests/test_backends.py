"""Cross-backend agreement: the compiled kernels must match the pure ones
result-for-result, including witness and clique tie-breaking.

The compiled core is the installed one when it imports. Otherwise the shipped
_fastcore.c is built once per session into a temporary directory and loaded
from there, so the source tree stays clean. The tests skip only when no C
compiler is on PATH; a failed build fails them.
"""

import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from clawchroma import _kernels
from clawchroma._kernels import pure
from clawchroma.generators import SplitMix64, random_graph
from graphzoo import empty

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def fast(tmp_path_factory):
    try:
        from clawchroma._kernels import _fastcore

        return _fastcore
    except ImportError:
        pass
    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(compiler) is None:
        pytest.skip(f"compiled core not built and no C compiler ({compiler}) on PATH")
    out = tmp_path_factory.mktemp("fastcore")
    build = subprocess.run(
        [
            sys.executable,
            "setup.py",
            "build_ext",
            "--build-lib",
            str(out / "lib"),
            "--build-temp",
            str(out / "temp"),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    # the extension is optional, so a failed compile still exits 0
    built = sorted((out / "lib").glob("clawchroma/_kernels/_fastcore*"))
    assert build.returncode == 0 and built, build.stdout + build.stderr
    spec = importlib.util.spec_from_file_location(
        "clawchroma._kernels._fastcore", built[0]
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _random_cases(count, max_n, seed):
    stream = SplitMix64(seed)
    for _ in range(count):
        n = stream.next_below(max_n + 1)
        yield random_graph(n, stream.next_unit(), stream)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kernels_agree_on_random_graphs(fast, seed):
    for g in _random_cases(120, 12, seed):
        adj, n, full = g.adj, g.n, g.full_mask()
        assert pure.find_claw(adj, n) == fast.find_claw(adj, n)
        assert pure.find_k5_minus_p3(adj, n) == fast.find_k5_minus_p3(adj, n)
        assert pure.clique_number(adj, n, full) == fast.clique_number(adj, n, full)
        assert pure.lex_min_max_clique(adj, n, full) == fast.lex_min_max_clique(
            adj, n, full
        )
        assert pure.max_cliques(adj, n, full) == fast.max_cliques(adj, n, full)
        assert pure.dsatur(adj, n, full) == fast.dsatur(adj, n, full)
        w = pure.clique_number(adj, n, full)
        clique = pure.lex_min_max_clique(adj, n, full)
        for k in (max(0, w - 1), w, n):
            assert pure.k_color(adj, n, full, k, clique) == fast.k_color(
                adj, n, full, k, clique
            ), (g.adj, k)


def test_scan_agrees_exhaustively(fast):
    for n in range(6):
        total = 1 << (n * (n - 1) // 2)
        assert pure.scan_in_class(n, 0, total) == fast.scan_in_class(n, 0, total)


def test_dispatcher_routes_large_graphs_to_pure():
    g = empty(80)
    assert _kernels.clique_number(g.adj, g.n, g.full_mask()) == 1
    assert _kernels.find_claw(g.adj, g.n) is None


def test_env_var_forces_pure_backend():
    env = dict(os.environ, CLAWCHROMA_PURE="1")
    out = subprocess.run(
        [sys.executable, "-c", "import clawchroma; print(clawchroma.backend_name)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.stdout.strip() == "pure"
