"""The benchmark gates every output with the oracles of perfbench/gate.py,
which read the trace's own fields; a trace or payload change that the gate
would refuse must fail here, not only in a benchmark run.

Each CLI process starts through a launcher that makes `import sympy` fail,
so these runs also show that the benchmark's workloads need no runtime
dependency: sympy is the gate's oracle, not the program's."""
import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Runs arborsign.cli as __main__ with sympy unimportable.
LAUNCHER = ("import runpy, sys; sys.modules['sympy'] = None; "
            "runpy.run_module('arborsign.cli', run_name='__main__', alter_sys=True)")


def _load(name):
    """perfbench/<name>.py as the module perfbench_<name>, registered in
    sys.modules as its dataclasses need."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def gate():
    return _load("gate")


def _cli(tmp_path, *argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, *argv],
                          capture_output=True, env=env, cwd=tmp_path, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_tower_outputs_pass_the_benchmark_gate(tmp_path, gate):
    steps, level = 9, 2
    code, out, err = _cli(tmp_path, "simulate", "--steps", str(steps), "--depth", "5",
                          "--height", "1000", "--out", "trace.json")
    assert gate.check_simulate(code, out, steps) is None, err
    trace = json.loads((tmp_path / "trace.json").read_text())
    code, out, err = _cli(tmp_path, "verify", "--trace", "trace.json")
    assert gate.check_verify(code, out) is None, err
    code, out, err = _cli(tmp_path, "audit", "--trace", "trace.json", "--level", str(level))
    assert gate.check_audit(code, out, trace, level) is None, err


def test_certify_round_passes_the_benchmark_gate(tmp_path, gate, monkeypatch):
    monkeypatch.setitem(sys.modules, "gate", gate)  # run.py's own `import gate`
    run = _load("run")
    failures = []
    for kind, argv, q in run.Certify("certify", 1).queries(0):
        code, out, err = _cli(tmp_path, *argv)
        cause = gate.CERTIFY_CHECKS[kind](code, out, q)
        if cause:
            failures.append((argv, cause, err.decode()[-300:]))
    assert failures == []


def test_hard_composite_exits_3_without_sympy(tmp_path):
    """a_8 of x^2 + 2 holds a 142-bit composite with no prime factor that rho
    finds within its budget: a resource bound, not a sympy import."""
    code, out, err = _cli(tmp_path, "disc-seq", "--poly", "x^2+2", "--levels", "9")
    assert (code, out) == (3, b"")
    assert err.decode().splitlines() == [
        "error: cannot factor a 142-bit composite: rho found no factor within 262144 steps"]
