"""The replay scripts under bench/ still run against this checkout: each
reads the program through its public names, so a change to those names
must fail here, not only when the scripts are next run by hand."""
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from arborsign.construct import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name):
    """bench/<name>.py as the module bench_<name>."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(ROOT, "bench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def point_scan():
    return _load("point_scan_corpus")


@pytest.mark.parametrize("n", [9, 20])
def test_point_scan_replay_finds_the_trace_points(point_scan, n):
    """The replayed scans find exactly the points of run(n, 5, 1000), as the
    script's docstring claims."""
    _, found = point_scan.replay(point_scan.corpus(n), point_scan._classifier())
    assert found == [rec.point for rec in run(n, 5, 1000).steps]


def test_frobenius_replay_runs():
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "frobenius_corpus.py"),
                           "--runs", "1"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["calls"] > 0
