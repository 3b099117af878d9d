import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


def pytest_addoption(parser):
    parser.addoption(
        "--run-slow",
        action="store_true",
        default=False,
        help="also run the slow tests",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="slow test; enable with --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
