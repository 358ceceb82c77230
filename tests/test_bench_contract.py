"""The benchmark gates every tower output with the oracles of
perfbench/gate.py, which read the trace's own fields; a trace or payload
change that the gate would refuse must fail here, not only in a benchmark
run."""
import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "perfbench_gate", os.path.join(ROOT, "perfbench", "gate.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cli(tmp_path, *argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "arborsign.cli", *argv],
                          capture_output=True, env=env, cwd=tmp_path, timeout=60)
    return proc.returncode, proc.stdout


def test_tower_outputs_pass_the_benchmark_gate(tmp_path):
    gate = _load_gate()
    steps, level = 3, 2
    code, out = _cli(tmp_path, "simulate", "--steps", str(steps), "--depth", "5",
                     "--height", "1000", "--out", "trace.json")
    assert gate.check_simulate(code, out, steps) is None
    trace = json.loads((tmp_path / "trace.json").read_text())
    code, out = _cli(tmp_path, "verify", "--trace", "trace.json")
    assert gate.check_verify(code, out) is None
    code, out = _cli(tmp_path, "audit", "--trace", "trace.json", "--level", str(level))
    assert gate.check_audit(code, out, trace, level) is None
