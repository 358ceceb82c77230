"""The benchmark's tracer binds program names by string; a rename or deletion
in the program must fail here, not only in a benchmark run."""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _traced(tmp_path, *argv):
    out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "tracer.py"), "--out", str(out),
         "--op", "1", "--", *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def test_tracer_binds_the_program(tmp_path):
    record = _traced(tmp_path, "disc-seq", "--poly", "x^2+x+1", "--levels", "3")
    assert {"exactpoly._squarefree_part", "arboreal._critical_orbit"} <= set(record["caches"])
    assert any(span[3] == "arboreal.disc_class" for span in record["spans"])


def test_tracer_binds_the_frobenius_scan(tmp_path):
    # the arboreal.frobenius.* metrics count factor_degrees_mod_p spans whose
    # parent is the scan, so both names and the call between them must hold
    record = _traced(tmp_path, "index-report", "--poly", "x^2+1", "--level", "2",
                     "--n", "1", "--primes", "5")
    spans = record["spans"]
    assert any(span[3] == "exactpoly.factor_degrees_mod_p" and span[2] >= 0
               and spans[span[2]][3] == "arboreal.splitting_degree_lower_bound"
               for span in spans)
