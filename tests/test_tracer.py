"""The benchmark's tracer binds program names by string; a rename or deletion
in the program must fail here, not only in a benchmark run."""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_binds_the_program(tmp_path):
    out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "tracer.py"), "--out", str(out),
         "--op", "1", "--", "disc-seq", "--poly", "x^2+x+1", "--levels", "3"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert {"exactpoly._squarefree_part", "arboreal._critical_orbit"} <= set(record["caches"])
    assert any(span[3] == "arboreal.disc_class" for span in record["spans"])
