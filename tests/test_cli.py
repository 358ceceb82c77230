import json
import math
import os
import subprocess
import sys

import pytest

import arborsign
from arborsign.cli import main
from arborsign.treegroup import group_order


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    return code, payload, captured.err


def cli_process(*argv):
    """Run the CLI in a fresh interpreter; inputs that used to hang get 10 s."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(arborsign.__file__)))
    return subprocess.run([sys.executable, "-m", "arborsign.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=10)


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "t3.json"
    assert main(["simulate", "--steps", "3", "--height", "100", "--out", str(path)]) == 0
    return path


class TestDiscSeq:
    def test_success(self, capsys):
        code, payload, _ = run_cli(capsys, "disc-seq", "--poly", "x^2-3", "--levels", "2")
        assert code == 0
        assert payload == {"classes": [3, 6], "subspace": [2, 3]}

    def test_base_absorbed(self, capsys):
        code, payload, _ = run_cli(
            capsys, "disc-seq", "--poly", "x^2+1", "--levels", "2", "--base", "-1"
        )
        assert code == 0
        assert payload["subspace"] == [-1, 2]

    def test_inseparable_exit_1(self, capsys):
        code, payload, _ = run_cli(capsys, "disc-seq", "--poly", "x^2", "--levels", "1")
        assert code == 1
        assert payload == {"inseparable": 1}

    def test_parse_error_exit_2(self, capsys):
        code, payload, err = run_cli(capsys, "disc-seq", "--poly", "x^^2", "--levels", "1")
        assert code == 2
        assert payload is None
        assert "position" in err

    def test_bad_levels_exit_2(self, capsys):
        assert run_cli(capsys, "disc-seq", "--poly", "x^2-3", "--levels", "0")[0] == 2

    @pytest.mark.parametrize("levels", ["25", "40"])
    def test_levels_past_stream_levels_exit_2(self, levels):
        """--levels 25 used to run past 10 s building a 2^24-bit orbit value."""
        proc = cli_process("disc-seq", "--poly", "x^2+2", "--levels", levels)
        assert proc.returncode == 2 and proc.stdout == "" and "--levels" in proc.stderr

    def test_meta_flag(self, capsys):
        code, payload, _ = run_cli(
            capsys, "--meta", "disc-seq", "--poly", "x^2-3", "--levels", "1"
        )
        assert code == 0
        assert payload["meta"]["tool"] == "arborsign"


class TestIndexReport:
    def test_refutes_exit_1(self, capsys):
        code, payload, _ = run_cli(
            capsys, "index-report", "--poly", "x^2-3", "--base", "3",
            "--level", "1", "--n", "1", "--primes", "10",
        )
        assert code == 1
        assert payload["verdict"] == "REFUTES_INDEX_AT_MOST(1)"
        assert payload["killed"] == [1]

    def test_consistent_exit_0(self, capsys):
        code, payload, _ = run_cli(
            capsys, "index-report", "--poly", "x^2+1",
            "--level", "1", "--n", "1", "--primes", "10",
        )
        assert code == 0
        assert payload["degree_lower_bound"] == 2

    def test_no_good_primes_exit_3(self, capsys):
        code, payload, err = run_cli(
            capsys, "index-report", "--poly", "x^2-3",
            "--level", "1", "--n", "1", "--primes", "1",
        )
        assert code == 3
        assert payload is None and err

    def test_level_zero_exit_2(self, capsys):
        assert run_cli(
            capsys, "index-report", "--poly", "x^2+1", "--level", "0", "--n", "1"
        )[0] == 2

    @pytest.mark.parametrize("poly, level", [("x^2+1", 9), ("x^3-x+1", 5)])
    def test_iterate_at_the_degree_cap_runs(self, poly, level):
        """Degrees 512 and 243, within MAX_ITERATE_DEGREE."""
        proc = cli_process("index-report", "--poly", poly, "--level", str(level),
                           "--n", "2", "--primes", "3")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["level"] == level

    @pytest.mark.parametrize(
        "poly, level", [("x^2+1", 10), ("x^2+1", 30), ("x^3-x+1", 6), ("x^513+1", 1),
                        ("x^2+1", 10**18)],
    )
    def test_iterate_past_the_degree_cap_exit_3(self, poly, level):
        """--level 30 used to compose an iterate of degree 2^30 and a 2^30-bit
        group order; the cap is decided from d and k alone."""
        proc = cli_process("index-report", "--poly", poly, "--level", str(level),
                           "--n", "2", "--primes", "3")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1


class TestSimulateVerifyAudit:
    def test_simulate_summary(self, capsys, tmp_path):
        out = tmp_path / "t1.json"
        code, payload, _ = run_cli(
            capsys, "simulate", "--steps", "1", "--height", "100", "--out", str(out)
        )
        assert code == 0
        assert payload == {"steps": 1, "dim": 1, "retries": 0, "out": str(out)}
        data = json.loads(out.read_text())
        assert data["schema"] == 2
        assert data["final"] == {"F": [-1], "dim": 1}

    def test_simulate_abort_exit_3_with_partial_trace(self, capsys, tmp_path):
        out = tmp_path / "abort.json"
        code = main(["simulate", "--steps", "1", "--height", "1", "--out", str(out)])
        capsys.readouterr()
        assert code == 3
        assert json.loads(out.read_text())["steps"] == []

    @pytest.mark.parametrize("height", ["100", "1"], ids=["completed", "aborted"])
    def test_simulate_unwritable_out_exit_2(self, capsys, tmp_path, height):
        out = tmp_path / "missing" / "t.json"
        code, payload, err = run_cli(
            capsys, "simulate", "--steps", "1", "--height", height, "--out", str(out)
        )
        assert code == 2 and payload is None
        assert err.startswith("error: cannot write trace:") and err.count("\n") == 1

    def test_verify_clean(self, capsys, trace_file):
        code, payload, _ = run_cli(capsys, "verify", "--trace", str(trace_file))
        assert code == 0
        assert payload == {"violations": []}

    def test_verify_tampered_point(self, capsys, trace_file, tmp_path):
        data = json.loads(trace_file.read_text())
        data["steps"][0]["point"] = "1/1"  # square fiber on y^2 = t
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, payload, _ = run_cli(capsys, "verify", "--trace", str(bad))
        assert code == 1
        assert any(v.startswith("(2_1)") for v in payload["violations"])

    def test_verify_truncated_file_exit_2(self, capsys, trace_file, tmp_path):
        bad = tmp_path / "trunc.json"
        bad.write_text(trace_file.read_text()[:40])
        assert run_cli(capsys, "verify", "--trace", str(bad))[0] == 2

    def test_verify_missing_file_exit_2(self, capsys, tmp_path):
        assert run_cli(capsys, "verify", "--trace", str(tmp_path / "nope.json"))[0] == 2

    def test_audit(self, capsys, trace_file):
        code, payload, _ = run_cli(capsys, "audit", "--trace", str(trace_file), "--level", "2")
        assert code == 0
        assert payload["final_dim"] == 3
        assert any(entry["killed"] for entry in payload["polynomials"])

    def test_audit_bad_level_exit_2(self, capsys, trace_file):
        assert run_cli(capsys, "audit", "--trace", str(trace_file), "--level", "-1")[0] == 2

    def test_audit_level_past_stream_levels_exit_2(self, trace_file):
        """--level 40 used to run on past 10 s."""
        for level in ("25", "40"):
            proc = cli_process("audit", "--trace", str(trace_file), "--level", level)
            assert proc.returncode == 2 and "--level" in proc.stderr

    def test_audit_non_squarefree_final_kernel_exit_2(self, capsys, trace_file, tmp_path):
        data = json.loads(trace_file.read_text())
        data["final"]["F"] = [4]
        bad = tmp_path / "bad_final.json"
        bad.write_text(json.dumps(data))
        code, payload, err = run_cli(capsys, "audit", "--trace", str(bad), "--level", "2")
        assert code == 2
        assert payload is None and "perfect square" in err

    @pytest.mark.parametrize("command", [["verify"], ["audit", "--level", "2"]])
    def test_schema_1_trace_exit_2(self, trace_file, tmp_path, command):
        data = json.loads(trace_file.read_text())
        data["schema"] = 1
        old = tmp_path / "schema1.json"
        old.write_text(json.dumps(data))
        proc = cli_process(*command, "--trace", str(old))
        assert proc.returncode == 2
        assert proc.stdout == "" and "unsupported schema 1" in proc.stderr

    def test_integer_past_the_digit_limit_exit_2(self, trace_file, tmp_path):
        """json.load refuses integers of more than 4300 digits with a
        ValueError; it used to escape as a traceback under exit 1."""
        text = trace_file.read_text()
        assert text.count('"witness": -1,') == 1
        bad = tmp_path / "huge.json"
        bad.write_text(text.replace('"witness": -1,', '"witness": ' + "7" * 5000 + ","))
        proc = cli_process("verify", "--trace", str(bad))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and "4300" in proc.stderr

    def test_verify_non_integer_height_exit_2(self, capsys, trace_file, tmp_path):
        data = json.loads(trace_file.read_text())
        data["params"]["height"] = "abc"
        bad = tmp_path / "bad_height.json"
        bad.write_text(json.dumps(data))
        code, payload, err = run_cli(capsys, "verify", "--trace", str(bad))
        assert code == 2
        assert payload is None and "height" in err

    @pytest.mark.parametrize("field, value", [
        ("depth_checked", 0), ("depth_checked", -3), ("depth_checked", 1000),
        ("n", 0), ("n", 100000),
    ])
    @pytest.mark.parametrize("command", [["verify"], ["audit", "--level", "2"]])
    def test_stream_level_out_of_range_exit_2(self, trace_file, tmp_path, field, value, command):
        """Levels below 1 used to end in a traceback, and deep ones in a hang."""
        data = json.loads(trace_file.read_text())
        data["steps"][1]["vast"][field] = value
        bad = tmp_path / "bad_vast.json"
        bad.write_text(json.dumps(data))
        proc = cli_process(*command, "--trace", str(bad))
        assert proc.returncode == 2
        assert proc.stdout == "" and "vast" in proc.stderr

    @pytest.mark.parametrize("poly", ["x + 1", "3"])
    @pytest.mark.parametrize("command", [["verify"], ["audit", "--level", "2"]])
    def test_stream_polynomial_of_degree_below_2_exit_2(self, trace_file, tmp_path, poly,
                                                        command):
        """Such a step used to end in a ValueError traceback under exit 1."""
        data = json.loads(trace_file.read_text())
        data["steps"][1]["vast"]["poly"] = poly
        bad = tmp_path / "bad_poly.json"
        bad.write_text(json.dumps(data))
        proc = cli_process(*command, "--trace", str(bad))
        assert proc.returncode == 2
        assert proc.stdout == "" and "vast.poly" in proc.stderr

    def test_verify_cubic_stream_finds_violations(self, trace_file, tmp_path):
        """A cubic stream read at levels 3..7 used to take the composed
        iterate's discriminant, past 30 s."""
        data = json.loads(trace_file.read_text())
        data["steps"][0]["vast"].update(poly="x^3 + x + 1", n=3)
        bad = tmp_path / "cubic.json"
        bad.write_text(json.dumps(data))
        proc = cli_process("verify", "--trace", str(bad))
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["violations"]

    @pytest.mark.parametrize("depth", ["0", "25", "1000"])
    def test_simulate_depth_out_of_range_exit_2(self, tmp_path, depth):
        out = tmp_path / "never.json"
        proc = cli_process("simulate", "--steps", "1", "--depth", depth, "--out", str(out))
        assert proc.returncode == 2 and proc.stdout == "" and "--depth" in proc.stderr
        assert not out.exists()


class TestVastWitness:
    def test_primes_stream(self, capsys):
        code, payload, _ = run_cli(
            capsys, "vast-witness", "--stream", "primes", "--base", "2,3", "--depth", "10"
        )
        assert code == 0
        assert payload["witness"] == 5

    def test_disc_stream(self, capsys):
        code, payload, _ = run_cli(
            capsys, "vast-witness", "--stream", "disc:x^2+1:1", "--base", "-1", "--depth", "5"
        )
        assert code == 0
        assert payload["witness"] == 2

    def test_depth_exhausted_exit_3(self, capsys):
        code, payload, err = run_cli(
            capsys, "vast-witness", "--stream", "primes", "--base", "2,3,5", "--depth", "3"
        )
        assert code == 3
        assert payload is None and err

    def test_unknown_stream_exit_2(self, capsys):
        assert run_cli(capsys, "vast-witness", "--stream", "???", "--depth", "3")[0] == 2

    @pytest.mark.parametrize("stream", ["disc:x+1:1", "disc:3:1"])
    def test_stream_polynomial_of_degree_below_2_exit_2(self, stream):
        proc = cli_process("vast-witness", "--stream", stream, "--depth", "3")
        assert proc.returncode == 2 and proc.stdout == "" and "deg" in proc.stderr

    @pytest.mark.parametrize("stream, depth", [
        ("disc:x^2+2:40", "1"), ("disc:x^2+2:21", "5"), ("disc:x^2+2:1", "25"),
    ])
    def test_stream_levels_past_bound_exit_2(self, stream, depth):
        """disc:x^2+2:40 used to build a 2^39-bit orbit value."""
        proc = cli_process("vast-witness", "--stream", stream, "--depth", depth)
        assert proc.returncode == 2 and proc.stdout == "" and "24" in proc.stderr

    def test_stream_at_deepest_level(self, capsys):
        code, payload, _ = run_cli(
            capsys, "vast-witness", "--stream", "disc:x^3+x+1:3", "--depth", "2")
        assert code == 0 and payload["depth"] == 2


class TestGroupOrder:
    def test_values(self, capsys):
        code, payload, _ = run_cli(capsys, "group-order", "--arity", "2", "--depth", "3")
        assert code == 0
        assert payload == {
            "arity": 2, "depth": 3, "order": 128, "ambient_supernatural": "2^inf"
        }

    def test_bad_arity_exit_2(self, capsys):
        assert run_cli(capsys, "group-order", "--arity", "1", "--depth", "3")[0] == 2

    def test_depth_13_prints_exact_order(self, capsys):
        code, payload, _ = run_cli(capsys, "group-order", "--arity", "2", "--depth", "13")
        assert code == 0
        assert payload["order"] == 2**8191

    @pytest.mark.parametrize("arity,depth", [(2, 14), (3, 9), (2, 100000)])
    def test_order_past_digit_limit_exit_3(self, arity, depth):
        """Orders of more than 4300 digits cannot be printed as JSON ints; the
        decision comes before the power is computed, so it is quick."""
        proc = cli_process("group-order", "--arity", str(arity), "--depth", str(depth))
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1

    def test_depth_0_of_any_arity(self, capsys):
        code, payload, _ = run_cli(capsys, "group-order", "--arity", "10000", "--depth", "0")
        assert code == 0
        assert payload["order"] == 1
        assert payload["ambient_supernatural"].endswith("9973^inf")

    @pytest.mark.parametrize("arity", [10001, 10**15])
    @pytest.mark.parametrize("depth", [0, 3])
    def test_arity_past_cap_exit_3(self, arity, depth):
        """--arity 10^15 --depth 0 used to hang on 10^15! and a primality scan
        up to 10^15."""
        proc = cli_process("group-order", "--arity", str(arity), "--depth", str(depth))
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1

    def test_digit_limit_matches_order(self, capsys):
        """Exit 3 exactly when the order is at least 10^4300; arity 1558 at
        depth 1 has 4300 digits, and 1559 has 4303."""
        cases = [(d, k) for d in range(2, 7) for k in range(12)] + [(1558, 1), (1559, 1)]
        for d, k in cases:
            code, payload, _ = run_cli(capsys, "group-order", "--arity", str(d), "--depth", str(k))
            e = (d**k - 1) // (d - 1)
            if e * math.log10(math.factorial(d)) > 10**4:  # far past the limit
                assert (code, payload) == (3, None)
            elif group_order(d, k) >= 10**4300:
                assert (code, payload) == (3, None)
            else:
                assert code == 0 and payload["order"] == group_order(d, k)


class TestArgparseContract:
    def test_unknown_command_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        capsys.readouterr()
        assert exc.value.code == 2

    def test_missing_required_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["disc-seq"])
        capsys.readouterr()
        assert exc.value.code == 2
