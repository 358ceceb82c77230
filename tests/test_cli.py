import collections
import importlib
import json
import math
import os
import random
import re
import shutil
import stat
import subprocess
import sys

import pytest
from hypothesis import example, given, strategies as st

import arborsign
from arborsign import cli, construct
from arborsign.cli import COMMANDS, main, parse_args
from arborsign.construct import ConstructionAborted, ConstructionTrace
from arborsign.primes import InputError, ResourceBound
from arborsign.sqclass import kernel
from arborsign.treegroup import group_order


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    return code, payload, captured.err


def cli_env(**extra):
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(arborsign.__file__)),
                **extra)


def cli_process(*argv, **options):
    """Run the CLI in a fresh interpreter; inputs that used to hang get 10 s.
    `options` override those of subprocess.run."""
    options = {"capture_output": True, "text": True, "env": cli_env(), "timeout": 10,
               **options}
    return subprocess.run([sys.executable, "-m", "arborsign.cli", *argv], **options)


@pytest.fixture(scope="module")
def depth_one_trace(tmp_path_factory):
    """run(30, 1, 1000), which retries at steps 2 and 3, as a trace file."""
    trace = construct.run(30, 1, 1000)
    assert trace.retries and construct.verify_trace(trace) == []
    path = tmp_path_factory.mktemp("depth_one") / "trace.json"
    path.write_text(json.dumps(trace.to_json()))
    return path


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

    @pytest.mark.parametrize("base, code, err, payload", [
        ("0", 2, "error: bad base subspace '0': kernel must be nonzero", None),
        ("4", 2, "error: bad base subspace '4': 4 is not squarefree", None),
        ("-4", 2, "error: bad base subspace '-4': -4 is not squarefree", None),
        ("2,8", 2, "error: bad base subspace '2,8': 8 is not squarefree", None),
        ("1", 0, "", {"classes": [3, 6], "subspace": [2, 3]}),
        ("6,6", 0, "", {"classes": [3, 6], "subspace": [2, 3]}),
    ], ids=["0", "4", "-4", "2,8", "1", "6,6"])
    def test_base_kernels_checked(self, capsys, base, code, err, payload):
        """--base takes signed squarefree kernels, 1 and repeats included;
        ClassSubspace.from_kernels refuses zero and any other integer."""
        argv = ["disc-seq", "--poly", "x^2-3", "--levels", "2", "--base", base]
        out = "" if payload is None else json.dumps(payload, indent=2) + "\n"
        assert main_outcome(capsys, argv) == (code, out, err + "\n" if err else "")

    def test_trailing_whitespace_accepted(self, capsys):
        """A trailing blank used to be a parse error at its own position."""
        code, payload, _ = run_cli(capsys, "disc-seq", "--poly", "x^2+1 ", "--levels", "2")
        assert code == 0
        assert payload == {"classes": [-1, 2], "subspace": [-1, 2]}

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

    def test_inseparable_exit_1(self, capsys):
        code, payload, _ = run_cli(
            capsys, "index-report", "--poly", "x^2", "--level", "2", "--n", "1",
        )
        assert code == 1
        assert payload["verdict"] == "INSEPARABLE"

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
        assert data["schema"] == 5
        assert data["final"] == {"F": [-1]}

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
        """An unwritable --out used to be found only after the whole run; an
        empty one still was, after a temporary file in the cwd.  A FIFO, like
        any path that exists and is not a regular file, used to be replaced
        by a regular file holding the trace."""
        def never(*args):
            raise AssertionError("run was called")

        monkeypatch.setattr(construct, "run", never)
        monkeypatch.chdir(tmp_path)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        for out in (tmp_path / "missing" / "t.json", tmp_path, "", fifo):
            code, payload, err = run_cli(capsys, "simulate", "--steps", "50", "--out", str(out))
            assert code == 2 and payload is None
            assert err.startswith("error: cannot write trace:") and err.count("\n") == 1
        assert os.listdir(tmp_path) == ["fifo"]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

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
                raise ConstructionAborted(trace, ResourceBound("no point"))
            return trace

        monkeypatch.setattr(construct, "run", fake_run)
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

    @pytest.mark.parametrize("text", ["4/2"])
    def test_verify_point_text_forms(self, capsys, trace_file, tmp_path, text):
        """Text of the form "num/den" names the point num/den, in lowest terms
        or not."""
        data = json.loads(trace_file.read_text())
        assert data["steps"][0]["point"] == "2/1"
        data["steps"][0]["point"] = text
        other = tmp_path / "forms.json"
        other.write_text(json.dumps(data))
        assert run_cli(capsys, "verify", "--trace", str(other))[:2] == (0, {"violations": []})

    @pytest.mark.parametrize("text, message", [
        ("3/1", "(2_1): point 2/1 was eligible before 3/1"),
        ("7/2", "(2_1): point 2/1 was eligible before 7/2"),
        ("-14/4", "(2_1): point 2/1 was eligible before -7/2"),
    ])
    def test_verify_late_point_names_the_eligible_one(self, capsys, trace_file, tmp_path,
                                                      text, message):
        data = json.loads(trace_file.read_text())
        data["steps"][0]["point"] = text
        bad = tmp_path / "late.json"
        bad.write_text(json.dumps(data))
        code, payload, _ = run_cli(capsys, "verify", "--trace", str(bad))
        assert code == 1 and message in payload["violations"]

    # A point must be a JSON string of the form "num/den" that to_json writes:
    # a number or literal is not read as one, nor is any other text, such as
    # "1e5000", which used to be read as 10^5000 and end in a traceback under
    # exit 1 (and "1e100000" only after most of a minute).  The type reader
    # refuses a point that is not a string, and the point reader other text.
    @pytest.mark.parametrize("text", [
        "1/0", "3/-4", "1/2/3", "x", "", 2, 2.0, True, None,
        "1e5000", "1e100000", pytest.param("2", id="'2'"), " 2/1 ", "+2/1",
        pytest.param("2.0", id="'2.0'"), "2_0/1_0"])
    def test_verify_bad_point_text_exit_2(self, trace_file, tmp_path, text):
        data = json.loads(trace_file.read_text())
        data["steps"][0]["point"] = text
        bad = tmp_path / "bad_point.json"
        bad.write_text(json.dumps(data))
        proc = cli_process("verify", "--trace", str(bad), timeout=5)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (f"error: step 1: point: bad rational {text!r}\n"
                               if isinstance(text, str) else
                               "error: step 1: point must be a string\n")

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
        data["steps"][0]["witness"] = data["final"]["F"][0] = 4
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

    @pytest.mark.parametrize("command", [["verify"], ["audit", "--level", "2"]])
    @pytest.mark.parametrize("opening, inner, closing", [("[", "", "]"), ('{"a": ', "1", "}")],
                             ids=["arrays", "objects"])
    def test_deeply_nested_trace_exit_2(self, tmp_path, command, opening, inner, closing):
        """json.load gives up on deep nesting with a RecursionError; it used
        to escape as a traceback under exit 1."""
        depth = 100_000
        bad = tmp_path / "deep.json"
        bad.write_text(opening * depth + inner + closing * depth)
        proc = cli_process(*command, "--trace", str(bad))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and "nested too deeply" in proc.stderr

    def test_verify_point_past_the_height_cap_exit_2(self, trace_file, tmp_path):
        """The verifier scans every rational up to a recorded point's height,
        so a point of height H costs time in H^2: a one-step trace whose
        cover no point fits and whose point is 4096/1 takes 22-26 s on a
        2-core host, and one at 100000/1 would run for hours.  A point past MAX_POINT_HEIGHT exits 2
        before any scan."""
        data = json.loads(trace_file.read_text())
        data["steps"][0]["point"] = "4097/1"
        bad = tmp_path / "high_point.json"
        bad.write_text(json.dumps(data))
        proc = cli_process("verify", "--trace", str(bad))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: step 1: point height exceeds 4096\n"

    @pytest.mark.parametrize("field, value", [
        ("depth_checked", 0), ("depth_checked", -3), ("depth_checked", 1000),
        ("n", 0), ("n", 100000),
    ])
    @pytest.mark.parametrize("command", [["verify"], ["audit", "--level", "2"]])
    def test_stream_level_out_of_range_exit_2(self, trace_file, tmp_path, field, value, command):
        """Levels below 1 used to end in a traceback, and deep ones in a hang.
        Step 2 names entry 2, (x^2 + 1, n = 2): its vast.n must restate it,
        and its depth reach at most level 24."""
        data = json.loads(trace_file.read_text())
        data["steps"][1]["vast"][field] = value
        bad = tmp_path / "bad_vast.json"
        bad.write_text(json.dumps(data))
        proc = cli_process(*command, "--trace", str(bad))
        line = ("step 2: vast.poly and vast.n must restate entry 2" if field == "n"
                else "step 2: vast.depth_checked must be in 1..23")
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {line}\n")

    @pytest.mark.parametrize("poly", ["x + 1", "3"])
    @pytest.mark.parametrize("command", [["verify"], ["audit", "--level", "2"]])
    def test_stream_polynomial_of_degree_below_2_exit_2(self, trace_file, tmp_path, poly,
                                                        command):
        """Such a step used to end in a ValueError traceback under exit 1.  It
        does not restate the step's entry, so the reader refuses it."""
        data = json.loads(trace_file.read_text())
        data["steps"][1]["vast"]["poly"] = poly
        bad = tmp_path / "bad_poly.json"
        bad.write_text(json.dumps(data))
        proc = cli_process(*command, "--trace", str(bad))
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: step 2: vast.poly and vast.n must restate entry 2\n")

    @pytest.mark.parametrize("fields, line", [
        pytest.param({"vast": {"poly": "x^10 + x + 1", "n": 2, "depth_checked": 5}},
                     "error: step 1: vast.poly and vast.n must restate entry 1\n",
                     id="x^10+x+1"),
        pytest.param({"entry": 302, "vast": {"poly": "x^2 + 2", "n": 24, "depth_checked": 1}},
                     "error: step 1: entry must be in 1..300\n", id="x^2+2-n24"),
        pytest.param({"vast": {"poly": "x^3 + x + 1", "n": 3, "depth_checked": 5}},
                     "error: step 1: vast.poly and vast.n must restate entry 1\n",
                     id="x^3+x+1"),
        pytest.param({"vast": {"poly": "x^2", "n": 1, "depth_checked": 5}},
                     "error: step 1: vast.poly and vast.n must restate entry 1\n", id="x^2"),
        pytest.param({"vast": {"poly": "x^2 + " + "7" * 4000, "n": 1, "depth_checked": 5}},
                     "error: step 1: vast.poly and vast.n must restate entry 1\n",
                     id="x^2+4000-digit-c"),
        pytest.param({"entry": 301, "vast": {"poly": "x^2 + 1", "n": 25, "depth_checked": 1}},
                     "error: step 1: entry must be in 1..300\n", id="x^2+1-n25"),
        pytest.param({"entry": 0}, "error: step 1: entry must be in 1..300\n", id="entry-0"),
    ])
    @pytest.mark.parametrize("command", [["verify"], ["audit", "--level", "2"]],
                             ids=["verify", "audit"])
    def test_stream_no_run_can_select_exit_2(self, trace_file, tmp_path, command, fields, line):
        """Each stream used to be read level by level: x^10 + x + 1 ran past
        100 s in `verify`, (x^2 + 2, n = 24), entry 302, took 36.8 s, the
        cubic's levels 3..7 past 30 s, and x^2 exited 1 as inseparable in
        `audit`.  A step names its entry, which must be one a run can select,
        and vast.poly and vast.n must restate it, so each is now refused
        before any level is read, within 5 s cold."""
        data = json.loads(trace_file.read_text())
        data["steps"][0].update(fields)
        bad = tmp_path / "unselectable.json"
        bad.write_text(json.dumps(data))
        proc = cli_process(*command, "--trace", str(bad), timeout=5)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", line)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda d: d["params"].update(depth=7), id="params-depth-7"),
        pytest.param(lambda d: d["params"].update(steps=2), id="params-steps-2"),
        pytest.param(lambda d: d["retries"].clear(), id="retries-emptied"),
        pytest.param(lambda d: d["retries"].append({"step": 9, "depth": 64}), id="retry-added"),
    ])
    @pytest.mark.parametrize("command", [["verify"], ["audit", "--level", "2"]],
                             ids=["verify", "audit"])
    def test_params_or_retries_contradicting_the_steps_exit_2(self, capsys, tmp_path,
                                                              depth_one_trace, command, edit):
        """run(30, 1) retries at steps 2 and 3.  Each edit used to pass
        `verify` with no violation; the reader now refuses it, as it refuses
        a forged final.F."""
        data = json.loads(depth_one_trace.read_text())
        edit(data)
        bad = tmp_path / "contradicting.json"
        bad.write_text(json.dumps(data))
        code, payload, err = run_cli(capsys, *command, "--trace", str(bad))
        assert (code, payload, err.count("\n")) == (2, None, 1)

    @pytest.mark.parametrize("command", [["verify"], ["audit", "--level", "2"]],
                             ids=["verify", "audit"])
    def test_forged_final_field_exit_2(self, capsys, trace_file, tmp_path, command):
        """final.F lists the witnesses again.  A forged one used to be a
        "(final)" violation under exit 1 in `verify`, and in `audit` the field
        that the killed levels were read over, under exit 0."""
        data = json.loads(trace_file.read_text())
        assert data["final"]["F"] == [-1, 5, 38]
        data["final"]["F"] = [-1, 2, 3]
        bad = tmp_path / "forged_final.json"
        bad.write_text(json.dumps(data))
        code, payload, err = run_cli(capsys, *command, "--trace", str(bad))
        assert (code, payload, err) == (
            2, None, "error: final.F does not list the steps' witnesses in step order\n")

    @pytest.mark.parametrize("section", ["steps", "params", "retries", "final"])
    @pytest.mark.parametrize("command", [["verify"], ["audit", "--level", "2"]],
                             ids=["verify", "audit"])
    def test_missing_section_exit_2(self, capsys, trace_file, tmp_path, command, section):
        """Every schema-4 section is required, and a missing one reads as
        null, which is of no JSON type the reader takes; a trace without
        `retries` used to be read as one with no retries."""
        data = json.loads(trace_file.read_text())
        del data[section]
        bad = tmp_path / "missing_section.json"
        bad.write_text(json.dumps(data))
        code, payload, err = run_cli(capsys, *command, "--trace", str(bad))
        kind = "a list" if section in ("steps", "retries") else "an object"
        assert (code, payload, err) == (2, None, f"error: {section} must be {kind}\n")

    @pytest.mark.parametrize("sections, line", [
        pytest.param({"steps": "", "final": {"F": {}}}, "error: steps must be a list\n",
                     id="steps-string"),
        pytest.param({"steps": {}, "final": {"F": ""}}, "error: steps must be a list\n",
                     id="steps-object"),
        pytest.param({"schema": 4.0}, "error: schema must be an integer\n", id="schema-float"),
    ])
    @pytest.mark.parametrize("command", [["verify"], ["audit", "--level", "2"]],
                             ids=["verify", "audit"])
    def test_wrong_typed_section_exit_2(self, trace_file, tmp_path, command, sections, line):
        """`steps` and `final.F` must be JSON lists and `schema` a JSON
        integer.  A string or object in both lists used to read as a 0-step
        trace, which `verify` passed and `audit` reported under exit 0, and
        a schema of 4.0 was read as 4."""
        data = json.loads(trace_file.read_text())
        data.update(sections)
        bad = tmp_path / "wrong_typed.json"
        bad.write_text(json.dumps(data))
        proc = cli_process(*command, "--trace", str(bad), timeout=5)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", line)

    @pytest.mark.parametrize("path, value, line", [
        pytest.param(("steps", 0, "point"), None,
                     "error: step 1: point must be a string\n", id="point-missing"),
        pytest.param(("steps", 1, "witness"), "5",
                     "error: step 2: witness must be an integer\n", id="witness-string"),
        pytest.param(("final", "F", 0), "5", "error: final.F[0] must be an integer\n",
                     id="final-string"),
    ])
    def test_fault_reported_once_under_its_step(self, capsys, tmp_path, path, value, line):
        """A fault in a step record names its step and the field, and one in
        final.F names the entry; neither is wrapped again as "malformed
        trace: ...", as both used to be, and the one in a step named no
        step.  A value of None deletes the field, which reads as null."""
        data = construct.run(2, 5, 100).to_json()
        *keys, last = path
        node = data
        for key in keys:
            node = node[key]
        if value is None:
            del node[last]
        else:
            node[last] = value
        bad = tmp_path / "fault.json"
        bad.write_text(json.dumps(data))
        assert run_cli(capsys, "verify", "--trace", str(bad)) == (2, None, line)

    @pytest.mark.parametrize("field, line", [
        (("cover",), "error: step 1: unknown key 'cover'\n"),
        (("vast", "poly"), "error: step 1: vast.poly and vast.n must restate entry 1\n"),
    ], ids=["cover", "vast.poly"])
    def test_bad_trace_polynomial_names_its_field(self, capsys, trace_file, tmp_path, field,
                                                  line):
        """Both fields used to exit 2 with the one line
        `step 1: bad polynomial: ...`, which did not say which was bad.  No
        trace text is parsed as a polynomial now: a cover is a key that no
        step holds, and vast.poly must restate the step's entry."""
        data = json.loads(trace_file.read_text())
        node = data["steps"][0]
        for key in field[:-1]:
            node = node[key]
        node[field[-1]] = "abc"
        bad = tmp_path / "bad_poly_text.json"
        bad.write_text(json.dumps(data))
        assert run_cli(capsys, "verify", "--trace", str(bad)) == (2, None, line)

    def test_audit_final_dim_is_the_span_of_the_witnesses(self, capsys, trace_file, tmp_path):
        """With step 2's witness in step 1's class the witnesses span a field
        of dimension 2; `audit` used to report the length of final.F, 3."""
        data = json.loads(trace_file.read_text())
        data["steps"][1]["witness"] = data["final"]["F"][1] = 4 * data["steps"][0]["witness"]
        dependent = tmp_path / "dependent.json"
        dependent.write_text(json.dumps(data))
        code, payload, _ = run_cli(capsys, "audit", "--trace", str(dependent), "--level", "2")
        assert code == 0 and payload["final_dim"] == 2

    @pytest.mark.parametrize("cover, point, steps", [
        *(pytest.param(cover, point, 1, id=f"{cover}-{point}") for cover, point in [
            ("x^2", "2/1"), ("x^2", "4096/1"), ("x^10000", "30/1"), ("2*x^2 + 1", "2/1"),
            ("x^2 + 2*x + 1", "2/1"), ("x + 1/2", "2/1"), ("3", "2/1"),
            # grid covers, but not entry 1
            ("x + 1", "2/1"), ("x^2 + 1", "2/1")]),
        pytest.param("x + 1", "3/1", 2, id="x + 1-3/1-step2")])  # entry 2 is x
    @pytest.mark.parametrize("command", [["verify"], ["audit", "--level", "2"]],
                             ids=["verify", "audit"])
    def test_cover_off_the_grid_exit_2(self, trace_file, tmp_path, command, cover, point,
                                       steps):
        """Step i's cover is entry i of the cover enumeration, which no trace
        records: the last step of a `steps`-step trace gets `cover` and
        `point`, and exits 2 as a step with an unknown key.  `verify` used
        to scan for an off-grid cover's point anyway, up to the point's
        height: a one-step trace with x^2, whose fiber values are all
        squares, at 4096/1 held a cold `verify` for 20.6 s on a 2-core host
        before exit 1, and x^10000 at 30/1 for 22.3 s.  A grid cover at the
        wrong step exited 1 in `verify` and 0 in `audit`."""
        data = json.loads(trace_file.read_text())
        data["steps"], data["final"]["F"] = data["steps"][:steps], data["final"]["F"][:steps]
        data["steps"][-1]["cover"], data["steps"][-1]["point"] = cover, point
        bad = tmp_path / "off_grid.json"
        bad.write_text(json.dumps(data))
        proc = cli_process(*command, "--trace", str(bad), timeout=5)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", f"error: step {steps}: unknown key 'cover'\n")

    @pytest.mark.parametrize("depth", ["0", "25", "1000"])
    def test_simulate_depth_out_of_range_exit_2(self, tmp_path, depth):
        out = tmp_path / "never.json"
        proc = cli_process("simulate", "--steps", "1", "--depth", depth, "--out", str(out))
        assert proc.returncode == 2 and proc.stdout == "" and "--depth" in proc.stderr
        assert not out.exists()


# Text of any code points, lone surrogates included, with the characters that
# json escapes drawn often: control characters, '"', '\\', DEL, a non-BMP one.
JSON_TEXT = st.text(st.characters(exclude_categories=())
                    | st.sampled_from('\x00\x08\t\n\x0c\r\x1f"\\\x7f\x80\ud800\udfff\U0001f600'))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**200, 2**200) | JSON_TEXT,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(JSON_TEXT, children)),
)


class TestJsonWriter:
    """`cli._dumps` writes every payload and trace; `json.dumps` with
    indent=2 is its oracle."""

    @given(JSON_VALUES)
    @example({"": [], "a\x00\x1f\"\\\x7f\U0001f600\ud800\udfff": ({}, (), True, None, -2**100)})
    def test_matches_json_dumps(self, value):
        assert cli._dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [1.5, {1: "a"}, [{"a": {None: 1}}], {"a": (float("nan"),)},
                                       {2**70, 1}, b"x"],
                             ids=["float", "int-key", "none-key", "nested-float", "set", "bytes"])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            cli._dumps(value)

    @pytest.mark.parametrize("height", ["100", "1"], ids=["completed", "aborted"])
    def test_simulate_trace_bytes(self, capsys, tmp_path, height):
        out = tmp_path / "t.json"
        code, _, _ = run_cli(capsys, "simulate", "--steps", "3", "--height", height,
                             "--out", str(out))
        assert code == (0 if height == "100" else 3)
        text = out.read_text()
        trace = ConstructionTrace.from_json(json.loads(text))
        assert text == json.dumps(trace.to_json(), indent=2) + "\n"


# The values a JSON text can hold, floats, NaN and +-Infinity among them.
JSON_READ_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**200, 2**200) | st.floats() | JSON_TEXT,
    lambda children: st.lists(children) | st.dictionaries(JSON_TEXT, children),
)


def same(a, b) -> bool:
    """Whether `a` and `b` are equal and of the same types all through, keys
    in the same order; floats are compared by repr, so NaN is NaN and -0.0
    is not 0.0."""
    if type(a) is not type(b):
        return False
    if type(a) is list:
        return len(a) == len(b) and all(map(same, a, b))
    if type(a) is dict:
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    return repr(a) == repr(b) if type(a) is float else a == b


def as_read(value):
    """`value` as JSON reads it back once written: every tuple a list, and in
    every string each high surrogate followed by a low one the character
    that the pair encodes, as their two escapes read."""
    if isinstance(value, str):
        return value.encode("utf-16-le", "surrogatepass").decode("utf-16-le", "surrogatepass")
    if isinstance(value, (list, tuple)):
        return [as_read(v) for v in value]
    if isinstance(value, dict):
        return {as_read(k): as_read(v) for k, v in value.items()}
    return value


class TestJsonReader:
    """`cli._loads` reads every trace; `json.loads` is its oracle, in value
    and in type: 1, 1.0 and true stay distinct."""

    @given(JSON_READ_VALUES)
    @example([1, 1.0, True, 0, -0.0, float("nan"), float("inf"), -float("inf"), 1e300])
    @example({"\ud800": "\udfff\U0001f600\x00\x1f\"\\/\x7f", "": [{}, [], ""]})
    def test_matches_json_loads(self, value):
        for indent in (None, 2):
            for ensure_ascii in (True, False):
                text = json.dumps(value, indent=indent, ensure_ascii=ensure_ascii)
                assert same(cli._loads(text), json.loads(text))

    @pytest.mark.parametrize("text", [
        '{"a": 1, "b": 2, "a": [3]}', '"\\ud800"', '"\\udc00\\ud800"', '"\\ud800\\u0041"',
        '"\\ud83d\\ude00"', '"\\/\\b\\f\\n\\r\\t\\u00E9"', " \t\n\r-0\r\n", "-0.0", "1E400",
        "-1e-400", "0.5e+1", "[NaN,Infinity,-Infinity]", '{"":{"":[]}}', "7" * 4300,
        "1" + "0" * 5000 + ".5"])
    def test_matches_json_loads_on_other_texts(self, text):
        """A repeated key, where the last one wins, lone and paired
        surrogate escapes, every short escape, whitespace around the value,
        exponents past a float's range, and a 5000-digit float."""
        assert same(cli._loads(text), json.loads(text))

    @pytest.mark.parametrize("text", [
        "[1,]", '{"a" 1}', "01", "-", "1.", ".5", "1e", '"a\x01b"', '"\\q"', '"\\u12"',
        '"\\ud800\\uzzzz"', "﻿{}", "{} x", "1 2", "", " ", "+1", "1_0", "١", "nul",
        "-Inf", '{"a": 1,}', "[1 2]", '"abc', "\x0b1", "7" * 4301, '"ab\\', '"\\u0041',
        '"\\ud800\\', '[1, "x\\'])
    def test_refuses_what_json_refuses(self, text):
        """Trailing commas, a missing colon, leading zeros, numbers cut
        short, a raw control character, a bad escape, a leading BOM,
        trailing data, empty text, an integer past the digit limit, and a
        string cut short after an escape; each refusal worded as json words
        it."""
        with pytest.raises(ValueError) as expected:
            json.loads(text)
        with pytest.raises(ValueError) as refused:
            cli._loads(text)
        assert str(refused.value) == str(expected.value)

    @pytest.mark.parametrize("text", ['{"a" 1}', '"ab\\', "[1,]", "7" * 4301, "[" * 5000],
                             ids=["colon", "escape", "comma", "digits", "nesting"])
    def test_refuses_in_a_fresh_process(self, tmp_path, text):
        """pytest has imported json, which the scanner needs to word its
        refusal; in a fresh process `verify` has not, and still exits 2 with
        one line that words the refusal as json does."""
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        proc = cli_process("verify", "--trace", str(bad))
        assert proc.returncode == 2 and proc.stdout == ""
        if text.startswith("[["):
            assert proc.stderr.startswith("error: trace is nested too deeply: ")
            assert len(proc.stderr.splitlines()) == 1
        else:
            with pytest.raises(ValueError) as expected:
                json.loads(text)
            assert proc.stderr == f"error: trace is not valid JSON: {expected.value}\n"

    def test_refuses_every_truncation(self, trace_file):
        text = trace_file.read_text().rstrip("\n")
        for end in range(len(text)):
            for reader in (json.loads, cli._loads):
                with pytest.raises(ValueError):
                    reader(text[:end])

    @given(JSON_VALUES)
    @example({"\ud800\udfff": ["\udfff\ud800", ("\ud800\U0001f600",)]})
    def test_reads_back_what_the_writer_writes(self, value):
        assert same(cli._loads(cli._dumps(value)), as_read(value))


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

    def test_unknown_stream_exit_2(self, capsys):
        assert run_cli(capsys, "vast-witness", "--stream", "???", "--depth", "3")[0] == 2

    def test_parse_stream(self):
        s = cli._parse_stream("disc:x^2+1:1", 3)
        assert [kernel(c) for c in s.prefix(3)] == [-1, 2, 5]
        assert cli._parse_stream("primes", 3).name == "primes"
        with pytest.raises(ValueError):
            cli._parse_stream("nope", 3)
        with pytest.raises(ValueError):
            cli._parse_stream("disc:x^2+1", 3)

    @pytest.mark.parametrize("stream, depth", [
        ("disc:x^2+1:n>=2", "3"), ("disc:x^2+1:\u22652", "3"), ("disc:x^2+1:", "3"),
        ("disc:x+1:1", "3"), ("nope", "3"), ("disc:x^2+1:0", "3"),
        ("disc:x^2+1:" + "9" * 5000, "1"),
    ], ids=["n>=", "geq", "no-level", "degree-1", "unknown", "level-0", "level-digits"])
    def test_bad_stream_exit_2(self, capsys, stream, depth):
        """<n> is decimal digits: the forms n>=2 and \u22652 used to be read as 2."""
        code, payload, err = run_cli(capsys, "vast-witness", "--stream", stream,
                                     "--depth", depth)
        assert code == 2 and payload is None and err.startswith("error: ")

    @pytest.mark.parametrize("stream", ["disc:x+1:1", "disc:3:1"])
    def test_stream_polynomial_of_degree_below_2_exit_2(self, stream):
        proc = cli_process("vast-witness", "--stream", stream, "--depth", "3")
        assert proc.returncode == 2 and proc.stdout == "" and "deg" in proc.stderr

    @pytest.mark.parametrize("stream, depth", [
        ("disc:x^2+2:40", "1"), ("disc:x^2+2:21", "5"), ("disc:x^2+2:1", "25"),
        ("disc:x^2+1:20", "6"),
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


@pytest.mark.parametrize("argv, bits", [
    (["disc-seq", "--poly", "x^2+2", "--levels", "9"], 142),
    (["disc-seq", "--poly", "x^3+x+1", "--levels", "5"], 508),
    (["vast-witness", "--stream", "disc:x^2+2:9", "--depth", "1"], 331),
    (["index-report", "--poly", "x^2+1", "--level", "1", "--n", "1",
      "--base", "1237940039299929012757878481"], 91),
], ids=["disc-seq-quadratic", "disc-seq-cubic", "vast-witness", "index-report-base"])
def test_factoring_budget_exit_3(argv, bits):
    """Printing a kernel factors it.  A composite whose prime factors are all
    beyond rho's budget used to go to sympy.factorint: 89 s for the first row
    and past 30 s for the next two.  The --base kernel is well formed, so it
    exits 3, not 2."""
    proc = cli_process(*argv)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert f" {bits}-bit " in proc.stderr


# A simulate whose run returns a trace with a witness past the 4300-digit
# int -> str limit, as towers do from step 86.  argv: TRACE, then the CLI's.
UNSERIALIZABLE = """\
import json, sys
from arborsign import cli, construct
with open(sys.argv.pop(1)) as fh:
    data = json.load(fh)
data["steps"][0]["witness"] = data["final"]["F"][0] = 7**5201
construct.run = lambda *args: construct.ConstructionTrace.from_json(data)
cli.entry()
"""
CLI = ["-m", "arborsign.cli"]

# A simulate under a stream bound lowered to 6, so that the run needs a level
# past it.  argv: the CLI's.
STREAM_BOUND = """\
from arborsign import cli, construct
construct.MAX_STREAM_LEVEL = 6
cli.entry()
"""

# One row per cause of exit 3, each primes.ResourceBound subclass and each of
# the CLI's own caps: (interpreter arguments, a fragment of the error line).
# Factoring's budget, the Frobenius scan's prime budget and the point scan
# raise ResourceBound itself; their rows keep the names FactoringBudget,
# NoGoodPrimes and PointSearchExhausted.
# {tmp} is a fresh directory and {trace} a 3-step trace.
RESOURCE_ROWS = {
    "FactoringBudget-rho": ([*CLI, "index-report", "--poly", "x^2+1", "--level", "1", "--n", "1",
                             "--base", "1237940039299929012757878481"], " 91-bit composite"),
    "FactoringBudget-bits": ([*CLI, "vast-witness", "--stream", "disc:x^2+2:20", "--depth", "5"],
                             " 687957-bit cofactor: above the 1024-bit bound"),
    "FactoringBudget-disc-seq": ([*CLI, "disc-seq", "--poly", "x^2+1", "--levels", "24"],
                                 " 1197-bit cofactor: above the 1024-bit bound"),
    "NoGoodPrimes": ([*CLI, "index-report", "--poly", "x^2-3", "--level", "1", "--n", "1",
                      "--primes", "1"], "no good prime among the first 1"),
    "DepthExhausted": ([*CLI, "vast-witness", "--stream", "primes", "--base", "2,3,5",
                        "--depth", "3"], "no witness among the first 3 elements"),
    "PointSearchExhausted": ([*CLI, "simulate", "--steps", "1", "--height", "1",
                              "--out", "{tmp}/t.json"], "construction aborted: no point"),
    "ConstructionAborted": (["-c", STREAM_BOUND, "simulate", "--steps", "9",
                             "--out", "{tmp}/t.json"],
                            "construction aborted: entry 4, levels 3..7 of x^2 + 1: "
                            "past stream level 6"),
    "MAX_ITERATE_DEGREE": ([*CLI, "index-report", "--poly", "x^2+1", "--level", "10",
                            "--n", "2"], "degree 2^10, above 512"),
    "MAX_ARITY": ([*CLI, "group-order", "--arity", "10001", "--depth", "0"],
                  "--arity above 10000"),
    "MAX_ORDER_DIGITS": ([*CLI, "group-order", "--arity", "2", "--depth", "14"],
                         "more than 4300 digits"),
    "unserializable-trace": (["-c", UNSERIALIZABLE, "{trace}", "simulate", "--steps", "3",
                              "--out", "{tmp}/t.json"], "cannot serialize trace: "),
}

# Commands that meet an inseparable iterate print this finding and exit 1.
# No stream a trace may name is inseparable, so `audit` has no row.
INSEPARABLE_ROWS = {
    "disc-seq": ["disc-seq", "--poly", "x^2", "--levels", "1"],
    "vast-witness": ["vast-witness", "--stream", "disc:x^2:1", "--depth", "3"],
}


class TestExitContract:
    """`main` alone maps what a command raises to an exit code, the same way
    for every command; each row runs in a fresh process."""

    def test_every_resource_bound_has_a_row(self):
        """A new ResourceBound subclass needs its own row in RESOURCE_ROWS."""
        names = {cls.__name__ for cls in ResourceBound.__subclasses__()}
        assert {row.split("-")[0] for row in RESOURCE_ROWS} >= names
        assert names == {"DepthExhausted", "ConstructionAborted"}

    @pytest.mark.parametrize("row", RESOURCE_ROWS)
    def test_resource_bound_exit_3(self, trace_file, tmp_path, row):
        args, fragment = RESOURCE_ROWS[row]
        args = [a.format(tmp=tmp_path, trace=trace_file) for a in args]
        proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=cli_env(), timeout=10)
        assert proc.returncode == 3
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and fragment in lines[0]
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("row", INSEPARABLE_ROWS)
    def test_inseparable_exit_1(self, row):
        proc = cli_process(*INSEPARABLE_ROWS[row])
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, '{\n  "inseparable": 1\n}\n', "")


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

    def test_order_too_long_matches_exact_order(self):
        """The estimate agrees with the exact order on each side of the
        limit: every arity 2..12 up to its first depth past it, and arities
        on each side of 4300 + 9 and at the cap, at depths 0 and 1."""
        limit = 10**cli.MAX_ORDER_DIGITS
        cases = [(d, k) for d in (4308, 4309, 10000) for k in (0, 1)]
        for d in range(2, 13):
            k = 0
            while True:
                cases.append((d, k))
                if group_order(d, k) >= limit:
                    break
                k += 1
        for d, k in cases:
            assert cli._order_too_long(d, k) == (group_order(d, k) >= limit), (d, k)


NINES = "9" * 5000  # past the interpreter's 4300-digit limit on int()


class TestPolynomialBounds:
    """A literal past the digit limit used to escape the parser as a plain
    ValueError, a traceback under exit 1, and an exponent had no bound:
    x^1000000 took seconds and x^100000000 exhausted memory."""

    @pytest.mark.parametrize("argv", [
        ["disc-seq", "--poly", "x^2+" + NINES, "--levels", "1"],
        ["disc-seq", "--poly", "x^2+1/" + NINES, "--levels", "1"],
        ["index-report", "--poly", "x^" + NINES, "--level", "1", "--n", "2"],
        ["disc-seq", "--poly", "x^100000000+1", "--levels", "1"],
        ["index-report", "--poly", "x^10001+1", "--level", "1", "--n", "2"],
        ["vast-witness", "--stream", "disc:x^100000000+1:1", "--depth", "1"],
        ["vast-witness", "--stream", f"disc:{NINES}*x^2+1:1", "--depth", "1"],
    ], ids=["constant", "denominator", "exponent-digits", "exponent", "exponent-index-report",
            "stream-exponent", "stream-coefficient"])
    def test_oversized_polynomial_exit_2(self, argv):
        proc = cli_process(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and "position" in proc.stderr

    @pytest.mark.parametrize("field, value, refusal", [
        (("cover",), "x^100000000", "unknown key 'cover'"),
        (("cover",), "x + " + NINES, "unknown key 'cover'"),
        (("vast", "poly"), "x^2 + " + NINES, "vast.poly and vast.n must restate entry 2"),
        (("vast", "poly"), "x^100000000 + 1", "vast.poly and vast.n must restate entry 2"),
    ], ids=["cover-exponent", "cover-constant", "vast-constant", "vast-exponent"])
    @pytest.mark.parametrize("command", [["verify"], ["audit", "--level", "2"]])
    def test_oversized_trace_polynomial_exit_2(self, trace_file, tmp_path, field, value,
                                               refusal, command):
        """No trace text is parsed as a polynomial, so an oversized one is
        refused as a key no step holds or as text that does not restate the
        step's entry, within 5 s cold."""
        data = json.loads(trace_file.read_text())
        node = data["steps"][1]
        for key in field[:-1]:
            node = node[key]
        node[field[-1]] = value
        bad = tmp_path / "oversized.json"
        bad.write_text(json.dumps(data))
        proc = cli_process(*command, "--trace", str(bad), timeout=5)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", f"error: step 2: {refusal}\n")


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


# The bound of every integer option, as -h prints it and exit 2 names it.
BOUNDS = {
    "disc-seq": {"levels": "in 1..24"},
    "index-report": {"level": ">= 1", "n": ">= 1", "primes": ">= 1"},
    "simulate": {"steps": ">= 1", "depth": "in 1..24", "height": "in 1..4096"},
    "verify": {},
    "audit": {"level": "in 1..24"},
    "vast-witness": {"depth": ">= 1"},
    "group-order": {"arity": ">= 2", "depth": ">= 0"},
}


def outside(bound):
    """The integers next to either end of a bound written "in a..b" or ">= a"."""
    if bound.startswith(">= "):
        return [int(bound[3:]) - 1]
    low, high = map(int, bound[3:].split(".."))
    return [low - 1, high + 1]


def typed(command, name, text):
    """The value parse_args reads from `text` for option --name."""
    return text if COMMANDS[command][2][name][1] is cli.TEXT else int(text)


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
        for name, value in VALID[command]:
            assert getattr(args, name) == typed(command, name, value)

    @pytest.mark.parametrize("command", VALID)
    def test_defaults_fill_optional_options(self, command):
        options = COMMANDS[command][2]
        required = [(n, v) for n, v in VALID[command] if options[n][0] is cli.REQUIRED]
        args = parse_args([command, *spaced(required)])
        for name, (default, _) in options.items():
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
        assert getattr(args, name) == typed(command, name, value)
        args = parse_args([command, *spaced(VALID[command]), f"--{name}=7"])
        assert getattr(args, name) == typed(command, name, "7")

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
            if options[name][0] is cli.REQUIRED:
                rest = [(n, v) for n, v in VALID[command] if n != name]
                err = usage_error(capsys, [command, *spaced(rest)])
                assert f"--{name}" in err

    @pytest.mark.parametrize("command", [c for c in VALID if c != "verify"])
    def test_non_integer_exit_2(self, capsys, command):
        options = COMMANDS[command][2]
        for name, _ in VALID[command]:
            if options[name][1] is not cli.TEXT:
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
        lines = captured.out.splitlines()
        for name, (default, _) in COMMANDS[command][2].items():
            [line] = [line for line in lines if line.startswith(f"  --{name} {name.upper()} ")]
            kind = f"integer {BOUNDS[command][name]}" if name in BOUNDS[command] else "text"
            note = "required" if default is cli.REQUIRED else f"default {default!r}"
            assert line.endswith(f" {kind}, {note}")

    @pytest.mark.parametrize("command, name", [(c, n) for c in BOUNDS for n in BOUNDS[c]])
    def test_option_outside_its_bound_exit_2(self, capsys, tmp_path, monkeypatch, command,
                                             name):
        """The bound is checked before the command runs, with one error line."""
        monkeypatch.chdir(tmp_path)
        for value in outside(BOUNDS[command][name]):
            argv = [command, *spaced({**dict(VALID[command]), name: str(value)}.items())]
            assert main_outcome(capsys, argv) == (
                2, "", f"error: --{name} must be {BOUNDS[command][name]}\n")
        assert os.listdir(tmp_path) == []

    def test_meta_only_before_the_command(self, capsys):
        argv = ["disc-seq", "--poly", "x^2-3", "--levels", "1"]
        assert run_cli(capsys, "--meta", *argv)[1]["meta"]["tool"] == "arborsign"
        assert "--meta" in usage_error(capsys, [*argv, "--meta"])

    @pytest.mark.parametrize("argv", [[], ["--meta"], ["--bogus", "disc-seq"], ["-x"],
                                      ["--meta=1", "disc-seq"]])
    def test_root_usage_errors_exit_2(self, capsys, argv):
        assert usage_error(capsys, argv).startswith("usage: arborsign")


# Text that no integer grammar of the program allows, although int() reads
# most of it: non-ASCII digits, an underscore, a plus sign, surrounding
# blanks, nothing, a bare minus and a decimal point.
NOT_INTEGERS = ["\uff11", "\u0663", "1_0", "+1", " 1", "1 ", "", "-", "1.0"]
INTEGER_SITES = ["option", "base", "stream", "numerator", "denominator"]


class TestOneIntegerGrammar:
    """Every integer read from text, at each of the sites that read one, is
    read by exactpoly.parse_integer: ASCII digits after an optional "-"."""

    def argv(self, site, text, trace_file, tmp_path):
        """A command that reads `text` at `site`; None in `text` stands for
        the value the command is valid with."""
        value = "2" if text is None else text
        if site == "option":
            return ["group-order", "--arity", value, "--depth", "1"]
        if site == "base":
            return ["disc-seq", "--poly", "x^2-3", "--levels", "1", "--base", f"-1,{value}"]
        if site == "stream":
            return ["vast-witness", "--stream", f"disc:x^2+1:{value}", "--depth", "1"]
        data = json.loads(trace_file.read_text())
        num, den = data["steps"][0]["point"].split("/")
        if text is not None:
            data["steps"][0]["point"] = f"{text}/{den}" if site == "numerator" else f"{num}/{text}"
        path = tmp_path / "point.json"
        path.write_text(json.dumps(data))
        return ["verify", "--trace", str(path)]

    @pytest.mark.parametrize("site", INTEGER_SITES)
    def test_the_written_form_is_read(self, capsys, trace_file, tmp_path, site):
        code, out, err = main_outcome(capsys, self.argv(site, None, trace_file, tmp_path))
        assert code == 0 and json.loads(out) and err == ""

    @pytest.mark.parametrize("site", INTEGER_SITES)
    @pytest.mark.parametrize("text", NOT_INTEGERS)
    def test_other_text_exit_2(self, capsys, trace_file, tmp_path, site, text):
        """Exit 2, nothing on stdout and one error line on stderr, after the
        usage line for an option value (a usage error).  In process, the
        trace reader raises InputError."""
        argv = self.argv(site, text, trace_file, tmp_path)
        code, out, err = main_outcome(capsys, argv)
        lines = err.splitlines()
        assert (code, out) == (2, "")
        if argv[0] == "verify":
            with pytest.raises(InputError, match="^step 1: point: bad rational "):
                ConstructionTrace.from_json(json.loads((tmp_path / "point.json").read_text()))
        if site == "option":
            assert len(lines) == 2 and lines[0].startswith("usage: arborsign group-order")
            assert lines[1].endswith(f"error: option --arity: not an integer: {text!r}")
        else:
            assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["disc-seq", "--poly", "x^2-3", "--levels", "\uff11"],
        ["group-order", "--arity", "\u0663", "--depth", " 2 "],
        ["index-report", "--poly", "x^2-3", "--level", "1", "--n", "+1"],
        ["disc-seq", "--poly", "x^2-3", "--levels", "1", "--base", ","],
        ["disc-seq", "--poly", "x^\uff12-3", "--levels", "1"],
    ])
    def test_lookalikes_exit_2_from_a_process(self, argv):
        """Each of these exited 0 when int() and str.isdecimal read integers."""
        proc = cli_process(*argv)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "error: " in proc.stderr.splitlines()[-1]


# (argv, main's exit code): one of each code
EXIT_CODES = [
    (["group-order", "--arity", "2", "--depth", "1"], 0),
    (["index-report", "--poly", "x^2", "--level", "2", "--n", "1"], 1),
    (["group-order", "--arity", "1"], 2),
    (["group-order", "--arity", "2", "--depth", "14"], 3),
]


def main_outcome(capsys, argv):
    """(exit code, stdout, stderr) of `main` in process."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestProcessEntry:
    """`python -m arborsign.cli` and the `arborsign` script run `cli.entry`,
    which flushes stdout and stderr and ends the process with `os._exit`,
    skipping the interpreter's shutdown, unless a tracer or profiler is set;
    `main` does neither."""

    def test_main_returns_each_code_in_process(self):
        """`main` returns 0, 1, 2 and 3 to its caller, and the interpreter
        carries on after each: a fresh one calls it four times, then prints."""
        argvs = [EXIT_CODES[0][0], EXIT_CODES[1][0],
                 ["group-order", "--arity", "1", "--depth", "1"], EXIT_CODES[3][0]]
        script = ("from arborsign.cli import main\n"
                  f"codes = [main(argv) for argv in {argvs!r}]\n"
                  "print('carried on', codes)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=cli_env(), timeout=10)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "carried on [0, 1, 2, 3]"

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("argv, code", EXIT_CODES)
    def test_module_run_skips_atexit(self, argv, code, traced):
        """An atexit handler registered before the module runs never runs:
        the process ends in `os._exit`, with main's code.  Under a trace
        function the process exits through sys.exit, which runs it."""
        script = ("import atexit, runpy, sys\n"
                  "atexit.register(print, 'atexit handler ran', file=sys.stderr)\n"
                  f"sys.argv = ['arborsign', *{argv!r}]\n"
                  f"if {traced}:\n"
                  "    sys.settrace(lambda *event: None)\n"
                  "runpy.run_module('arborsign.cli', run_name='__main__')\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=cli_env(), timeout=10)
        assert proc.returncode == code
        assert ("atexit handler ran" in proc.stderr) == traced

    @pytest.mark.parametrize("argv, code", [
        *EXIT_CODES,
        # 6.9 kB, less than the 8 kB stdout buffer: written only by the flush
        (["group-order", "--arity", "1558", "--depth", "1"], 0),
    ])
    def test_output_to_files_is_flushed(self, capsys, tmp_path, argv, code):
        """Regular files get block-buffered stdout (PYTHONUNBUFFERED unset),
        which only the flush before `os._exit` writes out."""
        expected = main_outcome(capsys, argv)
        assert expected[0] == code
        with open(tmp_path / "out", "wb") as out, open(tmp_path / "err", "wb") as err:
            proc = subprocess.run([sys.executable, "-m", "arborsign.cli", *argv], stdout=out,
                                  stderr=err, env=cli_env(PYTHONUNBUFFERED=""), timeout=10)
        written = ((tmp_path / "out").read_text(), (tmp_path / "err").read_text())
        assert (proc.returncode, *written) == expected

    @pytest.mark.parametrize("argv", [EXIT_CODES[0][0], EXIT_CODES[3][0]])
    def test_profiler_output_is_written(self, tmp_path, argv):
        """Under cProfile the process exits through sys.exit, so the profile
        is written at exit.  cProfile's runner catches that SystemExit, so the
        process exits 0 whatever main's code."""
        pstats = pytest.importorskip("pstats")
        profile = tmp_path / "P"
        proc = subprocess.run([sys.executable, "-m", "cProfile", "-o", str(profile),
                               "-m", "arborsign.cli", *argv],
                              capture_output=True, env=cli_env(), timeout=30)
        assert proc.returncode == 0
        assert pstats.Stats(str(profile)).total_calls > 0

    def test_script_runs_the_entry(self):
        tomllib = pytest.importorskip("tomllib")
        root = os.path.dirname(os.path.dirname(os.path.dirname(cli.__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["arborsign"]
        module, _, name = target.partition(":")
        assert getattr(importlib.import_module(module), name) is cli.entry

    @pytest.mark.parametrize("command", COMMANDS)
    def test_process_matches_main(self, capsys, trace_file, tmp_path, monkeypatch, command):
        shutil.copy(trace_file, tmp_path / "t.json")
        monkeypatch.chdir(tmp_path)
        argv = [command, *spaced(VALID[command])]
        code = main(argv)
        out = capsys.readouterr().out
        proc = cli_process(*argv, text=False, cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (code, out.encode())

    @pytest.mark.parametrize("argv, code", [
        (["group-order", "--arity", "2", "--depth", "1"], 0),
        (["index-report", "--poly", "x^2", "--level", "2", "--n", "1"], 1),
        (["-h"], 0),
    ])
    def test_closed_stdout_in_process(self, capsys, monkeypatch, argv, code):
        """Writing to a stdout whose reader went away, `main` returns the
        command's code, and -h still raises SystemExit(0), with nothing on
        stderr."""
        class Closed:
            def write(self, text):
                raise BrokenPipeError

        monkeypatch.setattr(sys, "stdout", Closed())
        if argv == ["-h"]:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
        else:
            assert main(argv) == code
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("argv, code, read", [
        # 6.6 kB of output, more than the pipe holds: the write outlives the reader
        (["group-order", "--arity", "1500", "--depth", "1"], 0, 1),
        (["index-report", "--poly", "x^2", "--level", "2", "--n", "1"], 1, 0),
        (["-h"], 0, 0),
    ])
    def test_closed_stdout_pipe(self, argv, code, read, unbuffered):
        fcntl = pytest.importorskip("fcntl")
        r, w = os.pipe()
        if hasattr(fcntl, "F_SETPIPE_SZ"):
            fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 4096)
        proc = subprocess.Popen([sys.executable, "-m", "arborsign.cli", *argv], stdout=w,
                                stderr=subprocess.PIPE, env=cli_env(PYTHONUNBUFFERED=unbuffered))
        os.close(w)
        with os.fdopen(r, "rb") as reader:
            assert len(reader.read(read)) == read
        _, err = proc.communicate(timeout=10)
        assert (proc.returncode, err) == (code, b"")


# A seeded fuzz of the certify commands' option values.  Most polynomials are
# well formed, of degree <= 3 with small coefficients; some get a stray
# character or are cut short.  The integer options stay where the commands
# answer in milliseconds, or fall just outside their bounds.

def fuzz_poly(rng):
    degree = rng.randint(0, 3)
    text = ""
    for k in range(degree, -1, -1):
        c = rng.randint(-4, 4) if k < degree else rng.choice([1, 1, -1, 2, rng.randint(-4, 4)])
        if not c:
            continue
        mag = "" if abs(c) == 1 and k else rng.choice([str(abs(c)), f"{abs(c)}/{rng.randint(1, 3)}"])
        power = "" if k == 0 else "x" if k == 1 else f"x^{k}"
        body = "*".join(part for part in (mag, power) if part)
        if not text:
            text = ("-" if c < 0 else "") + body
        else:
            sign = "-" if c < 0 else "+"
            text += rng.choice([f" {sign} ", sign]) + body
    text = text or "0"
    r = rng.random()
    if r < 0.1:
        pos = rng.randint(0, len(text))
        text = text[:pos] + rng.choice("x^*/+-. 0a\t()é\n") + text[pos:]
    elif r < 0.15:
        text = text[:rng.randint(0, len(text))]
    return text


# Text that int() reads but the program's one integer grammar does not.
INT_LOOKALIKES = ["\uff11", "\u0663", "1_0", "+1", " 1"]


def fuzz_base(rng):
    tokens = [rng.choice([str(rng.randint(-12, 12)), str(rng.randint(-12, 12)), "a", "", "1.5",
                          " 3", "x", str(rng.randint(-10**6, 10**6)), *INT_LOOKALIKES])
              for _ in range(rng.randint(0, 3))]
    return rng.choice([",", ", "]).join(tokens)


def fuzz_stream(rng):
    r = rng.random()
    if r < 0.3:
        return "primes"
    if r < 0.35:
        return rng.choice(["prime", "disc", "disc:x^2+1", "", "primes:1", "disc::1"])
    n = rng.choice(["1", "1", "2", "3", "0", "01", "", "x", "-1", "99999", "25",
                    rng.choice(INT_LOOKALIKES)])
    return f"disc:{fuzz_poly(rng)}:{n}"


def fuzz_int(rng, low, high, outside=()):
    """Mostly an integer in low..high; sometimes one below low, one of
    `outside`, or text that is no integer."""
    r = rng.random()
    if r < 0.06:
        return rng.choice(["x", "1.5", "", "-", *INT_LOOKALIKES])
    if r < 0.12:
        return str(rng.choice([low - 1, -5, *outside]))
    return str(rng.randint(low, high))


def fuzz_argv(rng):
    command = rng.choice(["disc-seq", "index-report", "vast-witness", "group-order"])
    if command == "disc-seq":
        options = {"poly": fuzz_poly(rng), "levels": fuzz_int(rng, 1, 3, [25, 10**30]),
                   "base": fuzz_base(rng)}
    elif command == "index-report":
        options = {"poly": fuzz_poly(rng), "base": fuzz_base(rng),
                   "level": fuzz_int(rng, 1, 2, [10]), "n": fuzz_int(rng, 1, 4),
                   "primes": fuzz_int(rng, 1, 8)}
    elif command == "vast-witness":
        options = {"stream": fuzz_stream(rng), "base": fuzz_base(rng),
                   "depth": fuzz_int(rng, 1, 4, [24])}
    else:
        options = {"arity": fuzz_int(rng, 2, 6, [10001]), "depth": fuzz_int(rng, 0, 4, [14])}
    argv = [command]
    for name, value in options.items():
        if rng.random() < 0.04:  # a missing option
            continue
        argv += [f"--{name}={value}"] if rng.random() < 0.5 else [f"--{name}", value]
    if rng.random() < 0.03:
        argv += ["--bogus", "1"]
    return argv


def integer_texts(argv):
    """The texts that `argv`, a fuzz_argv case, gives in an integer's place:
    integer option values, --base items and a disc stream's level."""
    options = COMMANDS[argv[0]][2]
    texts, i = [], 1
    while i < len(argv):
        name, eq, value = argv[i][2:].partition("=")
        if not eq:
            i, value = i + 1, argv[i + 1]
        if name == "base" and value:
            texts += value.split(",")
        elif name == "stream" and value.startswith("disc:") and value.count(":") == 2:
            texts.append(value.split(":")[2])
        elif name in options and options[name][1] is not cli.TEXT:
            texts.append(value)
        i += 1
    return texts


def test_certify_fuzz_keeps_the_exit_code_contract(capsys, monkeypatch):
    """Every case exits 0 or 1 with a JSON object on stdout and nothing on
    stderr, or 2 or 3 with nothing on stdout and one stderr line, the usage
    line before it for a usage error.  A case that gives any text other than
    ASCII digits after an optional "-" in an integer's place exits 2.  Every
    code occurs, and at least a quarter of the cases reach their command's
    handler."""
    reached = []
    for name, (handler, help_, options) in COMMANDS.items():
        def spy(args, handler=handler):
            reached.append(args.command)
            return handler(args)
        monkeypatch.setitem(COMMANDS, name, (spy, help_, options))
    rng, codes, cases = random.Random(20261020), collections.Counter(), 2000
    for _ in range(cases):
        argv = fuzz_argv(rng)
        try:
            code, usage = main(argv), False
        except SystemExit as exc:
            code, usage = exc.code, True
        out, err = capsys.readouterr()
        codes[code] += 1
        if not all(re.fullmatch("-?[0-9]+", text) for text in integer_texts(argv)):
            assert code == 2, argv
        if code in (0, 1):
            assert not usage and err == "", argv
            assert isinstance(json.loads(out), dict), argv
        else:
            assert code in (2, 3) and out == "", argv
            lines = err.splitlines(keepends=True)
            if usage:
                assert code == 2 and len(lines) == 2, argv
                assert lines[0].startswith("usage: arborsign "), argv
            else:
                assert len(lines) == 1 and lines[0].startswith("error: "), argv
    assert set(codes) == {0, 1, 2, 3}, codes
    assert len(reached) >= cases / 4


# What the trace text fuzz deletes, inserts or replaces: the characters of
# JSON's grammar, digits, letters of its literals and of polynomials, JSON
# whitespace and a raw control character.
TRACE_FUZZ_CHARS = '{}[]",:-+.eE0123456789 \n\t\\/untrfalsNIxy^*\x01'


def test_trace_text_fuzz_keeps_the_exit_code_contract(capsys, trace_file, tmp_path):
    """500 seeded cases each delete, insert or replace one character of the
    3-step trace's text, and `verify` and `audit --level 2` read it in
    process.  Each exits 0 or 1 with a JSON object on stdout and nothing on
    stderr, or 2 with nothing on stdout and one `error:` line on stderr;
    nothing raises.  Every one of the three codes occurs."""
    text = trace_file.read_text()
    rng, codes = random.Random(20261021), collections.Counter()
    fuzzed = tmp_path / "fuzzed.json"
    for _ in range(500):
        pos, op, char = rng.randrange(len(text)), rng.choice("dir"), rng.choice(TRACE_FUZZ_CHARS)
        case = text[:pos] + {"d": "", "i": char + text[pos], "r": char}[op] + text[pos + 1:]
        fuzzed.write_text(case)
        for argv in (["verify"], ["audit", "--level", "2"]):
            code = main([*argv, "--trace", str(fuzzed)])
            out, err = capsys.readouterr()
            codes[code] += 1
            if code in (0, 1):
                assert err == "" and isinstance(json.loads(out), dict), case
            else:
                assert code == 2 and out == "", case
                assert len(err.splitlines()) == 1 and err.startswith("error: "), case
    assert set(codes) == {0, 1, 2}, codes
