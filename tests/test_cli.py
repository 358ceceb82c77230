import json
import math
import os
import subprocess
import sys

import pytest

import arborsign
from arborsign import cli
from arborsign.cli import COMMANDS, main, parse_args
from arborsign.construct import ConstructionAborted, ConstructionTrace
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
        assert os.listdir(tmp_path) == ["t1.json"]  # the temporary file is renamed away
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

    def test_simulate_unwritable_out_fails_before_run(self, capsys, tmp_path, monkeypatch):
        """An unwritable --out used to be found only after the whole run."""
        def never(*args):
            raise AssertionError("run was called")

        monkeypatch.setattr(cli, "run", never)
        for out in (tmp_path / "missing" / "t.json", tmp_path):
            code, payload, err = run_cli(capsys, "simulate", "--steps", "50", "--out", str(out))
            assert code == 2 and payload is None
            assert err.startswith("error: cannot write trace:") and err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("aborted", [False, True], ids=["completed", "aborted"])
    def test_simulate_unserializable_trace_exit_3(self, capsys, tmp_path, monkeypatch,
                                                  trace_file, aborted):
        """A witness past the 4300-digit int -> str limit, which towers reach
        from step 86, used to end in a traceback under exit 1 and leave a
        truncated trace file."""
        data = json.loads(trace_file.read_text())
        huge = 7**5201  # 4396 digits, and not a square
        data["steps"][0]["witness"] = data["final"]["F"][0] = huge
        trace = ConstructionTrace.from_json(data)

        def fake_run(*args):
            if aborted:
                raise ConstructionAborted(trace, RuntimeError("window exhausted"))
            return trace

        monkeypatch.setattr(cli, "run", fake_run)
        out = tmp_path / "t.json"
        code, payload, err = run_cli(capsys, "simulate", "--steps", "3", "--out", str(out))
        assert code == 3 and payload is None
        assert err.startswith("error: cannot serialize trace:") and err.count("\n") == 1
        assert os.listdir(tmp_path) == []

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

    def test_primes_stream_stops_at_the_witness(self):
        """The whole depth-element prefix used to be built before the scan:
        past 30 s at depth 10^6, although the witness 5 is the third element."""
        proc = cli_process("vast-witness", "--stream", "primes", "--depth", "1000000",
                           "--base=2,3")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["witness"] == 5

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


# A valid argv tail per subcommand, as (option, value) pairs; --base values
# start with "-" on purpose.
VALID = {
    "disc-seq": [("poly", "x^2-3"), ("levels", "2"), ("base", "-1")],
    "index-report": [("poly", "x^2-3"), ("base", "3"), ("level", "1"), ("n", "1"),
                     ("primes", "10")],
    "simulate": [("steps", "1"), ("depth", "5"), ("height", "100"), ("out", "t.json")],
    "verify": [("trace", "t.json")],
    "audit": [("trace", "t.json"), ("level", "2")],
    "vast-witness": [("stream", "primes"), ("base", "-1,2"), ("depth", "10")],
    "group-order": [("arity", "2"), ("depth", "3")],
}


def spaced(pairs):
    return [word for name, value in pairs for word in (f"--{name}", value)]


def joined(pairs):
    return [f"--{name}={value}" for name, value in pairs]


def shortest_prefix(name, names):
    for k in range(1, len(name) + 1):
        if name in names and sum(n.startswith(name[:k]) for n in names) == 1:
            return name[:k]
    return name


def usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    return captured.err


class TestParser:
    def test_table_covers_every_command(self):
        assert set(VALID) == set(COMMANDS)

    @pytest.mark.parametrize("command", VALID)
    def test_space_and_equals_forms(self, command):
        args = parse_args([command, *spaced(VALID[command])])
        assert args == parse_args([command, *joined(VALID[command])])
        assert args.command == command and args.meta is False
        options = COMMANDS[command][2]
        for name, value in VALID[command]:
            assert getattr(args, name) == options[name][0](value)

    @pytest.mark.parametrize("command", VALID)
    def test_defaults_fill_optional_options(self, command):
        options = COMMANDS[command][2]
        required = [(n, v) for n, v in VALID[command] if options[n][1] is cli.REQUIRED]
        args = parse_args([command, *spaced(required)])
        for name, (_, default) in options.items():
            if default is not cli.REQUIRED:
                assert getattr(args, name) == default

    @pytest.mark.parametrize("command", VALID)
    def test_unique_prefixes(self, command):
        names = [*COMMANDS[command][2], "help"]
        short = [(shortest_prefix(n, names), v) for n, v in VALID[command]]
        assert parse_args([command, *spaced(short)]) == parse_args(
            [command, *spaced(VALID[command])])
        assert parse_args([command, *joined(short)]) == parse_args(
            [command, *spaced(VALID[command])])

    def test_ambiguous_prefix_exit_2(self, capsys):
        err = usage_error(capsys, ["index-report", "--p", "x^2+1", "--level", "1", "--n", "1"])
        assert "--p" in err and "--poly" in err and "--primes" in err

    @pytest.mark.parametrize("base", [["--base", "-1"], ["--base=-1,2"], ["--base", "-1,2"]])
    def test_negative_base(self, capsys, base):
        code, payload, _ = run_cli(capsys, "disc-seq", "--poly", "x^2+1", "--levels", "2", *base)
        assert code == 0
        assert payload["subspace"] == [-1, 2]

    @pytest.mark.parametrize("command", VALID)
    def test_repeated_option_takes_the_last_value(self, command):
        name, value = VALID[command][0]
        args = parse_args([command, f"--{name}", "7", *spaced(VALID[command])])
        assert getattr(args, name) == COMMANDS[command][2][name][0](value)
        args = parse_args([command, *spaced(VALID[command]), f"--{name}=7"])
        assert getattr(args, name) == COMMANDS[command][2][name][0]("7")

    @pytest.mark.parametrize("command", VALID)
    def test_unknown_option_exit_2(self, capsys, command):
        err = usage_error(capsys, [command, *spaced(VALID[command]), "--bogus", "1"])
        assert "--bogus" in err

    @pytest.mark.parametrize("command", VALID)
    def test_stray_argument_exit_2(self, capsys, command):
        err = usage_error(capsys, [command, *spaced(VALID[command]), "extra"])
        assert "extra" in err

    @pytest.mark.parametrize("command", VALID)
    def test_missing_value_exit_2(self, capsys, command):
        pairs = VALID[command]
        name = pairs[-1][0]
        err = usage_error(capsys, [command, *spaced(pairs), f"--{name}"])
        assert f"--{name}" in err
        if len(pairs) > 1:  # a value that starts with "--" is the next option
            err = usage_error(capsys, [command, f"--{pairs[0][0]}", *spaced(pairs[1:])])
            assert f"--{pairs[0][0]}" in err

    @pytest.mark.parametrize("command", VALID)
    def test_missing_required_exit_2(self, capsys, command):
        options = COMMANDS[command][2]
        for name, _ in VALID[command]:
            if options[name][1] is cli.REQUIRED:
                rest = [(n, v) for n, v in VALID[command] if n != name]
                err = usage_error(capsys, [command, *spaced(rest)])
                assert f"--{name}" in err

    @pytest.mark.parametrize("command", [c for c in VALID if c != "verify"])
    def test_non_integer_exit_2(self, capsys, command):
        options = COMMANDS[command][2]
        for name, _ in VALID[command]:
            if options[name][0] is int:
                for bad in ("x", "1.5", ""):
                    pairs = [(n, bad if n == name else v) for n, v in VALID[command]]
                    err = usage_error(capsys, [command, *joined(pairs)])
                    assert f"--{name}" in err

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--meta", "-h"]])
    def test_root_help(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 0 and captured.err == ""
        assert captured.out.startswith("usage: arborsign")
        assert all(command in captured.out for command in COMMANDS)

    @pytest.mark.parametrize("command", VALID)
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_command_help(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, *spaced(VALID[command][:1]), flag])
        captured = capsys.readouterr()
        assert exc.value.code == 0 and captured.err == ""
        assert captured.out.startswith(f"usage: arborsign {command}")
        assert all(f"--{name}" in captured.out for name in COMMANDS[command][2])

    def test_meta_only_before_the_command(self, capsys):
        argv = ["disc-seq", "--poly", "x^2-3", "--levels", "1"]
        assert run_cli(capsys, "--meta", *argv)[1]["meta"]["tool"] == "arborsign"
        assert "--meta" in usage_error(capsys, [*argv, "--meta"])

    @pytest.mark.parametrize("argv", [[], ["--meta"], ["--bogus", "disc-seq"], ["-x"],
                                      ["--meta=1", "disc-seq"]])
    def test_root_usage_errors_exit_2(self, capsys, argv):
        assert usage_error(capsys, argv).startswith("usage: arborsign")
