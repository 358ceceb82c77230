import contextlib
import copy
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import count, islice, product

import pytest
from hypothesis import example, given, settings, strategies as st

from arborsign.construct import (
    MAX_POINT_HEIGHT,
    MAX_STREAM_LEVEL,
    ConstructionAborted,
    ConstructionState,
    ConstructionTrace,
    StepRecord,
    VastSpec,
    counterexample_audit,
    cover_entry,
    rationals_by_height,
    run,
    step,
    vast_entry,
    verify_trace,
    _cover_grid,
    _unpair,
    _vast_c,
)
from arborsign import arboreal, cli, construct, exactpoly, primes
from arborsign.arboreal import disc_class
from arborsign.exactpoly import RatPoly
from arborsign.primes import InputError, ResourceBound
from arborsign.sqclass import (
    ClassSubspace,
    class_of,
    cover_fiber_integral,
    disjoint_over,
    primes_stream,
)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(construct.__file__)))


@pytest.fixture(scope="module")
def trace3():
    return run(3, 5, 100)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "trace.json"


@pytest.fixture
def levels(monkeypatch):
    """The stream level of every disc_class call, in order."""
    read = []

    def spy(f, n):
        read.append(n)
        return disc_class(f, n)

    monkeypatch.setattr(arboreal, "disc_class", spy)
    return read


def _vast_ci(c):
    """The inverse of _vast_c: the ci with _vast_c(ci) = c; None for c = 0,
    -1, -2.  The oracle of the vast list's parameters."""
    if abs(c) >= 3:
        return 2 * abs(c) - 4 + (c < 0)
    return c - 1 if c > 0 else None


def _resolve_spec_index(f, n):
    """The index of (f, n) if a run can select it, else None: the inverse of
    vast_entry, less every entry from (x^2 + 1, n = MAX_STREAM_LEVEL + 1) on,
    read when called.  A run tests every earlier entry first, and cannot
    test that one, whose first level is past the stream bound.  The oracle
    of the entries the trace reader takes."""
    if n < 1 or f.den != 1 or f.nums[1:] != (0, 1):
        return None
    ci = _vast_ci(f.nums[0])
    if ci is None:
        return None
    # (ci, n - 1) lies on diagonal s; (x^2 + 1, MAX_STREAM_LEVEL + 1) opens
    # diagonal MAX_STREAM_LEVEL
    s = ci + n - 1
    return s * (s + 1) // 2 + ci + 1 if s < construct.MAX_STREAM_LEVEL else None


def restated(j, depth):
    """The JSON of a step's stream fields naming entry j at `depth`, its
    vast.poly and vast.n restating vast_entry(j)."""
    spec = vast_entry(j)
    return {"entry": j, "vast": {"poly": str(spec.f), "n": spec.n, "depth_checked": depth}}


def reader_takes(j):
    """Whether the trace reader takes a step naming entry j at depth 1, its
    stream fields restating vast_entry(j), or entry 1's for j < 1."""
    try:
        StepRecord.from_json({"witness": -1, "point": "2/1", **restated(max(j, 1), 1),
                              "entry": j}, 1)
    except InputError:
        return False
    return True


def schema4(data):
    """The schema-4 rendering of the schema-5 trace `data`: each step records
    its cover after its witness, and no entry."""
    steps = [{"witness": s["witness"], "cover": str(cover_entry(i)),
              **{k: v for k, v in s.items() if k not in ("witness", "entry")}}
             for i, s in enumerate(data["steps"], start=1)]
    return {**data, "schema": 4, "steps": steps}


def orbit_infinite(c):
    """Whether x^2 + c has an infinite critical orbit, by simulating it: the
    oracle for the closed-form vast list."""
    seen = set()
    v = 0
    while True:
        v = v * v + c
        if v == 0 or v in seen:
            return False
        seen.add(v)
        if v * v > abs(v) + abs(c):  # escape radius: orbit now diverges
            return True


class TestEnumerations:
    def test_unpair_sweeps_diagonals(self):
        seen = [_unpair(j) for j in range(15)]
        assert seen[:6] == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
        assert len(set(seen)) == 15

    def test_cover_entries_repeat_each_grid_polynomial(self):
        x = RatPoly.parse("x")
        assert cover_entry(1) == x
        # the first grid polynomial recurs at every entry whose diagonal pair
        # starts with grid index 0
        recurs = [j for j in range(1, 60) if cover_entry(j) == x]
        assert recurs == [j for j in range(1, 60) if _unpair(j - 1)[0] == 0]
        assert len(recurs) >= 3

    def test_cover_grid_is_squarefree(self):
        from arborsign.exactpoly import discriminant

        for j in range(1, 80):
            h = cover_entry(j)
            assert h.den == h.nums[-1] == 1 and 1 <= h.degree <= 2
            assert discriminant(h) != 0 if h.degree == 2 else True

    def test_cover_grid_is_complete(self):
        """Every monic squarefree integer polynomial of degree <= 2 with
        coefficients in -6..6 is among the first 2,000 grid entries."""
        small = {RatPoly((b, 1)) for b in range(-6, 7)}
        small |= {RatPoly((b, a, 1)) for a, b in product(range(-6, 7), repeat=2) if a * a != 4 * b}
        # x + b, and x^2 + a x + b less the five with a^2 = 4b: (a, b) = (0, 0),
        # (+-2, 1) and (+-4, 4)
        assert len(small) == 13 + 13 * 13 - 5
        assert small <= set(islice(_cover_grid(), 2000))

    def test_vast_entries_skip_finite_orbits(self):
        fs = [vast_entry(j).f for j in range(1, 40)]
        assert all(f.den == 1 and f.nums[1:] == (0, 1) for f in fs)
        cs = {f.nums[0] for f in fs}
        # 0, -1, -2 have finite critical orbits and must never appear
        assert not cs & {0, -1, -2}
        assert 1 in cs and 2 in cs and -3 in cs

    def test_vast_c_lists_the_infinite_orbits_in_order(self):
        oracle = (c for v in count(1) for c in (v, -v) if orbit_infinite(c))
        assert [_vast_c(ci) for ci in range(5000)] == list(islice(oracle, 5000))

    def test_vast_ci_inverts_vast_c(self):
        for c in range(-3000, 3001):
            ci = _vast_ci(c)
            assert (ci is not None) == orbit_infinite(c)
            assert ci is None or _vast_c(ci) == c

    def test_resolve_reads_the_bound_when_called(self, monkeypatch):
        """Under a bound of 8 the first refused entry is 37, (x^2 + 1, n = 9),
        for the oracle and the reader alike."""
        monkeypatch.setattr(construct, "MAX_STREAM_LEVEL", 8)
        assert vast_entry(37)[1:] == (RatPoly.parse("x^2 + 1"), 9)
        for j in range(1, 2001):
            spec = vast_entry(j)
            assert _resolve_spec_index(spec.f, spec.n) == (j if j < 37 else None)
            assert reader_takes(j) == (j < 37)

    def test_entries_one_based(self):
        with pytest.raises(ValueError):
            cover_entry(0)
        with pytest.raises(ValueError):
            vast_entry(0)

    def test_verifier_resolves_every_entry_a_trace_can_select(self):
        """A step selects an entry only after testing every earlier one, and
        no run can test entry 301, the first whose level n exceeds
        MAX_STREAM_LEVEL, so the reader takes exactly the entries before it:
        for every entry 0..2,000, a step naming it at depth 1 is read exactly
        when the oracle resolves that entry's stream.  Entry 302, (x^2 + 2,
        n = 24), is within the stream bound at depth 1, but refused."""
        past = next(j for j in range(1, 1000) if vast_entry(j).n > MAX_STREAM_LEVEL)
        assert (str(vast_entry(past).f), past) == ("x^2 + 1", 301)
        assert (str(vast_entry(302).f), vast_entry(302).n) == ("x^2 + 2", MAX_STREAM_LEVEL)
        assert not reader_takes(0)
        for j in range(1, 2001):
            spec = vast_entry(j)
            assert spec.index == j
            assert _resolve_spec_index(spec.f, spec.n) == (j if j < past else None)
            assert reader_takes(j) == (_resolve_spec_index(spec.f, spec.n) is not None)
        # not in the enumeration: x^2 - 1 and x^2 - 2 have finite critical orbits
        for text in ("x^2 + x + 3", "x^2 - 1", "x^2 - 2", "x^2 + 1/2", "2x^2 + 1", "x^3 + 2"):
            assert _resolve_spec_index(RatPoly.parse(text), 1) is None

    def test_rationals_by_height_order(self):
        got = list(rationals_by_height(2))
        assert got == [(0, 1), (1, 1), (-1, 1), (2, 1), (-2, 1), (1, 2), (-1, 2)]
        # no duplicates at any height
        all10 = list(rationals_by_height(10))
        assert len(all10) == len(set(all10))

    def test_rationals_by_height_matches_sorted_oracle(self):
        """Each height-H prefix is every point (num, den) in lowest terms with
        den >= 1 and max(|num|, den) <= H, sorted by the height key."""
        for H in range(1, 41):
            oracle = sorted(((num, den) for den in range(1, H + 1)
                             for num in range(-H, H + 1) if math.gcd(num, den) == 1),
                            key=lambda p: construct._height_key(*p))
            assert list(rationals_by_height(H)) == oracle

    def test_resumed_enumeration_is_a_suffix(self):
        full = list(rationals_by_height(30))
        for i, q in enumerate(full):
            assert list(rationals_by_height(30, q)) == full[i + 1:]
        assert list(rationals_by_height(30, (31, 1))) == []
        assert list(rationals_by_height(30, (-5, 31))) == []

    def test_points_in_lowest_terms(self):
        for num, den in rationals_by_height(30):
            q = Fraction(num, den)
            assert (q.numerator, q.denominator) == (num, den)


class TestStep:
    def test_first_step_record(self):
        state = step(ConstructionState(ClassSubspace(), ClassSubspace(), (), 5), height=100)
        rec = state.steps[-1]
        assert rec.to_json() == {
            "witness": -1,
            "point": "2/1",
            "entry": 1,
            "vast": {"poly": "x^2 + 1", "n": 1, "depth_checked": 5},
        }
        assert state.F.kernels() == [-1]
        assert len(state.steps) == 1

    def test_growth_invariants(self, trace3):
        assert len(trace3.steps) == 3
        points = [rec.point for rec in trace3.steps]
        assert len(points) == len(set(points))
        entries = [rec.entry for rec in trace3.steps]
        assert len(entries) == len(set(entries))

    def test_point_search_exhausted_aborts(self):
        with pytest.raises(ConstructionAborted) as exc:
            run(1, 5, 1)
        assert type(exc.value.cause) is ResourceBound
        assert str(exc.value.cause) == "no point of height <= 1"
        assert exc.value.trace.steps == ()

    @pytest.mark.parametrize("depths", [
        pytest.param((1, 2, 4, 8, 16), id="1"),
        pytest.param((5, 10, 20), id="5"),
        pytest.param((24,), id="24"),
    ])
    def test_depth_retries_stop_at_the_stream_bound(self, depths):
        """With no witness at any depth, the depth retries, which have no cap
        of their own, end at the first selection that needs a level past
        MAX_STREAM_LEVEL, before it reads one.  The selection reads through
        VastSpec.subspace and disc_stream as a run does, but the class at
        level n is the n-th prime's: the real level-24 class of x^2 + 1 takes
        minutes.  Unbounded, the retries never end, so a fresh process with
        a timeout runs them."""
        script = textwrap.dedent(f"""\
            import json
            from arborsign import arboreal, construct, sqclass
            def exhaust(*args):
                raise construct.DepthExhausted("no class outside the span")
            construct.vast_witness = exhaust
            primes, read = sqclass.primes_stream(), []
            def disc_class(f, n):
                read.append(n)
                return primes.at(n)
            arboreal.disc_class = disc_class
            try:
                construct.run(1, {depths[0]}, 1000)
            except construct.ConstructionAborted as exc:
                print(json.dumps([type(exc.cause).__name__, str(exc.cause),
                                  list(exc.trace.retries), len(exc.trace.steps), max(read)]))
            """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
        assert proc.returncode == 0, proc.stderr
        cause, message, retries, steps, deepest = json.loads(proc.stdout)
        assert cause == "ResourceBound"
        assert message == f"entry 1, levels 1..{2 * depths[-1]} of x^2 + 1: past stream level 24"
        assert retries == [{"step": 1, "depth": d} for d in depths]
        assert steps == 0
        assert deepest == depths[-1]

    def test_engine_writes_only_traces_its_verifier_reads(self, monkeypatch, levels):
        """Under a stream bound of 8, a 20-step run reads no level past 8 and
        aborts at the first selection that would; its partial trace reads
        back and verifies under the same bound."""
        monkeypatch.setattr(construct, "MAX_STREAM_LEVEL", 8)
        with pytest.raises(ConstructionAborted) as exc:
            run(20, 5, 1000)
        assert max(levels) == 8
        assert type(exc.value.cause) is primes.ResourceBound
        assert "past stream level 8" in str(exc.value.cause)
        trace = exc.value.trace
        assert 1 <= len(trace.steps) < 20
        again = ConstructionTrace.from_json(trace.to_json())
        assert again == trace
        levels.clear()
        assert verify_trace(again) == []
        assert max(levels) == 8

    @pytest.mark.parametrize("n, digest4, digest", [
        pytest.param(10, "b6db8e1a22df76822daa10f05e84022930f0779f3a2a0e4a965a01228465b51f",
                     "4cdce1a5a5f147462cda06e6da4acc36a42e30d364160b43217ba63b096cd211",
                     id="10"),
        pytest.param(20, "39e5f597ff91c8c1a7acd32ad6630317be7b1d715ba10dd4d1745020472fa918",
                     "a30eeea3926ea028847716492bf70c0c86729040fce0d72788051fef5d2f7637",
                     id="20"),
        pytest.param(30, "372921367ca39851d8a0ad1d38e0bf96fad12e5ff6ad2b77cc22f9fc970bceac",
                     "9cbfa66e8f25b53ab7ef5496880a742f5fc8421a93db7d9ffd9311ed48382dd4",
                     id="30"),
        pytest.param(50, "c05aa0a78fe999a01693fa76d0efecbf1894bab1012a046a93e394d32d3587fa",
                     "680a07164520cb3f128e15ac2f0f51c9d9541957a9da05eddad3c33162b9a242",
                     id="50"),
        pytest.param(70, "fe418a0a68e6675f0f3c9e477e2f28957b97a6350111ebc03dae76761bc86ecb",
                     "2af0c79e91983d4dfc1a786fc607c01a13332c6b044116e3ca9307aceeb73bad",
                     id="70"),
    ])
    def test_trace_bytes_pinned(self, n, digest4, digest):
        """Every cover recurs at least twice in 20 steps, so the resumed point
        search is pinned along with the rest of the trace.  From step 42 on, a
        selection scans past entry 64, so the 50- and 70-step pins cover
        selections that start after the previous step's entry deep in the
        list as well.  The pins run
        with the process-wide enumeration lists already warm from earlier
        tests and runs, so they pin determinism across warm lists as well.
        The schema-4 rendering keeps schema 4's pins, so no choice moved
        with the schema."""
        trace = run(n, 5, 1000)
        blob = json.dumps(trace.to_json()).encode()
        assert hashlib.sha256(blob).hexdigest() == digest
        assert hashlib.sha256(json.dumps(schema4(trace.to_json())).encode()).hexdigest() == digest4
        assert verify_trace(trace) == []
        again = ConstructionTrace.from_json(json.loads(blob))
        assert json.dumps(again.to_json()).encode() == blob
        assert again == trace

    @pytest.mark.slow
    def test_trace_bytes_pinned_100(self):
        """The 100-step tower, deselected by default (`pytest -m slow` runs
        it).  Its trace holds integers past the default int-to-text limit
        of 4,300 digits, which is lifted for the encoding only."""
        trace = run(100, 5, 1000)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            blob = json.dumps(trace.to_json()).encode()
            blob4 = json.dumps(schema4(trace.to_json())).encode()
        finally:
            sys.set_int_max_str_digits(limit)
        digest4 = "c71954c83fd715f4830aab44b1eeefe3ddaa55df17db49f03ab2dae3683152b0"
        assert hashlib.sha256(blob4).hexdigest() == digest4
        digest = "85afa918dfc64f8ad71de9380acf97c6021c8ae6141d523908012e01f6fe8341"
        assert hashlib.sha256(blob).hexdigest() == digest
        assert verify_trace(trace) == []

    def test_run_validation(self):
        with pytest.raises(ValueError):
            run(0, 5, 100)
        with pytest.raises(ValueError):
            run(1, 0, 100)
        with pytest.raises(ValueError):
            run(1, 5, 0)
        with pytest.raises(ValueError):
            run(1, 5, MAX_POINT_HEIGHT + 1)


class TestRecordsImmutable:
    RECORDS = {
        "VastSpec": lambda trace: vast_entry(1),
        "ConstructionState": lambda trace: ConstructionState(ClassSubspace(), ClassSubspace(), (), 5),
        "StepRecord": lambda trace: trace.steps[0],
        "ConstructionTrace": lambda trace: trace,
        "ClassStream": lambda trace: primes_stream(),
    }

    @pytest.mark.parametrize("name", RECORDS)
    def test_fields_and_attributes_cannot_be_set(self, trace3, name):
        record = self.RECORDS[name](trace3)
        assert type(record).__name__ == name
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None

    def test_a_step_holds_its_stream_choice_once(self):
        """A step's stream choice is its entry number in the record; the
        state keeps no entry of its own, and the record no cover: the cover
        of step i is cover_entry(i)."""
        assert ConstructionState._fields == ("F", "M", "steps", "depth")
        assert StepRecord._fields == ("witness", "point", "entry", "depth_checked")


class TestTraceSerialization:
    def test_round_trip(self, trace3):
        again = ConstructionTrace.from_json(trace3.to_json())
        assert again == trace3

    def test_deterministic_json(self, trace3):
        a = json.dumps(trace3.to_json(), sort_keys=True)
        b = json.dumps(run(3, 5, 100).to_json(), sort_keys=True)
        assert a == b

    def test_schema_5_fields(self):
        """Schema 5 records no height bound, step number, cover, retry
        constant or final dimension; a step names its vast entry, which
        vast.poly and vast.n restate."""
        data = run(30, 1, 1000).to_json()
        assert set(data) == {"schema", "params", "steps", "retries", "final"}
        assert data["schema"] == 5
        assert data["params"] == {"steps": 30, "depth": 1}
        assert data["retries"] == [{"step": 2, "depth": 1}, {"step": 3, "depth": 2}]
        assert data["final"] == {"F": [step["witness"] for step in data["steps"]]}
        for step in data["steps"]:
            assert list(step) == ["witness", "point", "entry", "vast"]
            assert list(step["vast"]) == ["poly", "n", "depth_checked"]
            spec = vast_entry(step["entry"])
            assert (step["vast"]["poly"], step["vast"]["n"]) == (str(spec.f), spec.n)
        assert [step["entry"] for step in data["steps"][:4]] == [1, 2, 3, 7]

    def test_rejects_wrong_schema(self, trace3):
        with pytest.raises(InputError, match="^unsupported schema 4$"):
            ConstructionTrace.from_json(schema4(trace3.to_json()))
        data = trace3.to_json()
        data["schema"] = 99
        with pytest.raises(InputError, match="^unsupported schema 99$"):
            ConstructionTrace.from_json(data)
        data["schema"], data["params"]["window"] = 2, 64  # a schema-2 trace
        with pytest.raises(InputError, match="^unsupported schema 2$"):
            ConstructionTrace.from_json(data)
        data = schema4(trace3.to_json())  # a schema-3 trace
        data["schema"], data["params"]["height"], data["final"]["dim"] = 3, 100, 3
        for m, step in enumerate(data["steps"], start=1):
            step["m"], step["cover"] = m, {"id": m, "h": step["cover"]}
        with pytest.raises(InputError, match="^unsupported schema 3$"):
            ConstructionTrace.from_json(data)
        with pytest.raises(InputError, match="^trace must be an object$"):
            ConstructionTrace.from_json([])

    def test_rejects_malformed_step(self, trace3):
        data = trace3.to_json()
        del data["steps"][0]["point"]
        with pytest.raises(InputError, match="^step 1: point must be a string$"):
            ConstructionTrace.from_json(data)

    ORDER = "final.F does not list the steps' witnesses in step order"
    COVER = "step 2: unknown key 'cover'"
    RESTATE = "step 2: vast.poly and vast.n must restate entry 2"
    DEPTH = f"step 2: vast.depth_checked must be in 1..{MAX_STREAM_LEVEL - 1}"
    HEIGHT = f"step 2: point height exceeds {MAX_POINT_HEIGHT}"
    PARAMS = "params must be an object of steps, depth, in that order"
    RETRY = "retries[0] must be an object of step, depth, in that order"
    # (path, value, the reader's refusal of the trace with that node set)
    REFUSALS = [
        (("final", "F"), [4], ORDER),
        (("final", "F"), [0], ORDER),
        (("final", "F"), ["3"], "final.F[0] must be an integer"),
        (("final", "F"), [True], "final.F[0] must be an integer"),
        (("steps", 1, "cover"), "abc", COVER),
        (("steps", 1, "cover"), 0, COVER),
        (("steps", 1, "cover"), 1.5, COVER),
        (("retries",), ["abc"], "retries[0] must be an object"),
        (("steps", 1, "vast", "n"), 0, RESTATE),
        # depth 5 reads one level past the bound, but the restatement is read first
        (("steps", 1, "vast", "n"), MAX_STREAM_LEVEL - 3, RESTATE),
        (("steps", 1, "vast", "n"), 100000, RESTATE),
        (("steps", 1, "vast", "depth_checked"), 0, DEPTH),
        (("steps", 1, "vast", "depth_checked"), -3, DEPTH),
        (("steps", 1, "vast", "depth_checked"), 1000, DEPTH),
        (("steps", 1, "vast", "poly"), "x + 1", RESTATE),
        (("steps", 1, "vast", "poly"), "3", RESTATE),
        (("final", "F"), [9], ORDER),
        (("final", "F"), [-1, 1.5], "final.F[1] must be an integer"),
        (("steps", 1, "point"), "2", "step 2: point: bad rational '2'"),
        (("steps", 1, "point"), 2.0, "step 2: point must be a string"),
        (("steps", 1, "witness"), 0, "step 2: witness must be nonzero: zero has no square class"),
        (("steps", 1, "witness"), "5", "step 2: witness must be an integer"),
        (("steps", 1, "witness"), True, "step 2: witness must be an integer"),
        (("steps", 1, "vast", "poly"), 1.7, "step 2: vast.poly must be a string"),
        (("steps", 1, "vast"), "2", "step 2: vast must be an object"),
        (("steps", 1, "vast", "n"), True, "step 2: vast.n must be an integer"),
        (("steps", 1, "vast", "n"), 1.0, "step 2: vast.n must be an integer"),
        (("steps", 1, "vast", "depth_checked"), "5",
         "step 2: vast.depth_checked must be an integer"),
        (("steps", 1), {"witness_kernel": 5}, "step 2: unknown key 'witness_kernel'"),
        (("final", "F"), "3", "final.F must be a list"),
        (("steps", 1, "point"), f"{MAX_POINT_HEIGHT + 1}/1", HEIGHT),
        (("steps", 1, "point"), f"{2 * MAX_POINT_HEIGHT + 2}/2", HEIGHT),
        (("steps", 1, "point"), f"-1/{MAX_POINT_HEIGHT + 1}", HEIGHT),
        # params and each retry hold the form to_json writes
        (("params",), [["steps", 3], ["depth", 5]], "params must be an object"),
        (("params",), {"depth": 5, "steps": 3}, PARAMS),
        (("params",), {"steps": 3, "depth": 5, "height": 100}, PARAMS),
        (("params", "steps"), 0, "params: steps, depth must be >= 1"),
        (("params", "steps"), "3", "params.steps must be an integer"),
        (("params", "depth"), True, "params.depth must be an integer"),
        (("params", "depth"), 5.0, "params.depth must be an integer"),
        (("retries",), [{"step": "one"}], RETRY),
        (("retries",), [{"step": 1, "depth": 0}], "retries[0]: step, depth must be >= 1"),
        (("retries",), [{"step": 1}], RETRY),
        (("retries",), [{"depth": 5, "step": 1}], RETRY),
        (("retries",), "", "retries must be a list"),
        (("retries",), {}, "retries must be a list"),
        # each section holds its JSON type; the empty path sets several
        # sections, here two wrong-typed empty ones that used to read as
        # a 0-step trace
        ((), {"steps": "", "final": {"F": {}}}, "steps must be a list"),
        ((), {"steps": {}, "final": {"F": ""}}, "steps must be a list"),
        (("steps",), None, "steps must be a list"),
        (("schema",), 4.0, "schema must be an integer"),
    ]
    REFUSAL = {repr(row[:2]): row[2] for row in REFUSALS}

    @pytest.mark.parametrize("path, value", [row[:2] for row in REFUSALS])
    def test_rejects_bad_final_params_retries(self, trace3, path, value):
        data = trace3.to_json()
        node = data
        for key in path[:-1]:
            node = node[key]
        if path:
            node[path[-1]] = value
        else:
            data.update(value)
        message = self.REFUSAL[repr((path, value))]
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            ConstructionTrace.from_json(data)

    def test_accepts_deepest_stream_level(self, trace3):
        """At depth 23 every step of trace3 is within the stream bound, and
        step 2, (x^2 + 1, n = 2), reads level 24; at depth 24 it reads past
        it."""
        data = trace3.to_json()
        depth = MAX_STREAM_LEVEL - data["steps"][1]["vast"]["n"] + 1
        data["params"]["depth"] = depth
        for step in data["steps"]:
            step["vast"]["depth_checked"] = depth
        trace = ConstructionTrace.from_json(data)
        assert [s.depth_checked for s in trace.steps] == [depth] * 3
        data["params"]["depth"] = data["steps"][1]["vast"]["depth_checked"] = depth + 1
        with pytest.raises(InputError,
                           match=f"^step 2: vast.depth_checked must be in 1[.][.]{depth}$"):
            ConstructionTrace.from_json(data)

    @pytest.mark.parametrize("path, value, message", [
        (("steps", 1, "entry"), 0, "step 2: entry must be in 1..300"),
        (("steps", 1, "entry"), 301, "step 2: entry must be in 1..300"),
        (("steps", 1, "entry"), "2", "step 2: entry must be an integer"),
        (("steps", 1, "entry"), None, "step 2: entry must be an integer"),
        (("steps", 1, "vast", "poly"), "x^2 + 2",
         "step 2: vast.poly and vast.n must restate entry 2"),
        (("steps", 1, "vast", "n"), 1, "step 2: vast.poly and vast.n must restate entry 2"),
        (("steps", 1, "vast", "poly"), 2, "step 2: vast.poly must be a string"),
        (("steps", 1, "cover"), "x", "step 2: unknown key 'cover'"),
        (("steps", 1, "vast", "entry"), 2, "step 2: vast: unknown key 'entry'"),
        (("final", "dim"), 3, "final: unknown key 'dim'"),
        (("height",), 100, "trace: unknown key 'height'"),
    ], ids=["entry-0", "entry-301", "entry-string", "entry-null", "poly", "n", "poly-int",
            "cover", "vast-key", "final-key", "root-key"])
    def test_step_entry_and_keys(self, trace3, path, value, message):
        """A step names its entry, 1..300, and vast.poly and vast.n must
        restate it; no object holds a key that to_json does not write.  A
        missing key still reads as null."""
        data = trace3.to_json()
        *keys, last = path
        node = data
        for key in keys:
            node = node[key]
        node[last] = value
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            ConstructionTrace.from_json(data)

    CONTRADICT = "params and retries contradict each other or the steps"

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda d: d["params"].update(depth=7), CONTRADICT, id="params-depth"),
        pytest.param(lambda d: d["params"].update(steps=2), CONTRADICT, id="params-steps"),
        pytest.param(lambda d: d["retries"].clear(),
                     "step 2: vast.depth_checked contradicts params and retries", id="no-retries"),
        pytest.param(lambda d: d["retries"].append({"step": 9, "depth": 64}), CONTRADICT,
                     id="retry-depth"),
        pytest.param(lambda d: d["retries"].append({"step": 9, "depth": 4}),
                     "step 9: vast.depth_checked contradicts params and retries", id="retry-step"),
        pytest.param(lambda d: d["retries"].append({"step": 31, "depth": 4}), CONTRADICT,
                     id="retry-after-the-last-step"),
        pytest.param(lambda d: d.update(retries=[{"step": 3, "depth": 1},
                                                 {"step": 2, "depth": 2}]),
                     CONTRADICT, id="retries-out-of-order"),
    ])
    def test_depths_keep_the_run_rule(self, edit, message):
        """run(30, 1) retries at steps 2 and 3, at depths 1 and 2, and checks
        step i at 1 * 2^(retries at steps <= i).  Params or retries that
        contradict the steps' depths are refused, as `verify` used to pass
        them."""
        data = run(30, 1, 1000).to_json()
        ConstructionTrace.from_json(data)
        edit(data)
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            ConstructionTrace.from_json(data)

    @pytest.mark.parametrize("witnesses", [0, 2, 5])
    def test_aborted_runs_keep_the_run_rule(self, monkeypatch, witnesses):
        """Under a stream bound of 8, with no witness found after the first
        `witnesses` selections, a run retries at the step after its last
        until it reads past the bound, and its partial trace reads back."""
        monkeypatch.setattr(construct, "MAX_STREAM_LEVEL", 8)
        found, real = [], construct.vast_witness

        def spy(*args):
            if len(found) == witnesses:
                raise construct.DepthExhausted("no class outside the span")
            found.append(real(*args))
            return found[-1]

        monkeypatch.setattr(construct, "vast_witness", spy)
        with pytest.raises(ConstructionAborted) as exc:
            run(30, 1, 1000)
        trace = exc.value.trace
        assert trace.retries[-1]["step"] == len(trace.steps) + 1
        assert ConstructionTrace.from_json(trace.to_json()) == trace

    def test_rejects_bad_rational(self, trace3):
        data = trace3.to_json()
        data["steps"][0]["point"] = "1/0"
        with pytest.raises(InputError, match="^step 1: point: bad rational '1/0'$"):
            ConstructionTrace.from_json(data)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.builds("{}{}/{}".format, st.sampled_from(["", "-", "+"]),
                  st.integers(0, 10**30), st.integers(-3, 10**30)),
        st.from_regex(r"\s?[-+]?[0-9_]{0,4}(\.[0-9_]{0,3})?([eE][-+]?[0-9]{1,2})?"
                      r"(\s?/\s?[-+]?[0-9_]{0,4})?\s?", fullmatch=True),
        st.text(alphabet="0123456789-+/. _", max_size=10),
    ))
    @example("2/4")
    @example("3")
    @example("1.5")
    @example(" 3/4 ")
    @example("-0/7")
    @example("007/014")
    @example("\u0663/\u0664")
    @example("1/0")
    @example("3/-4")
    @example("1/2/3")
    @example("1" * 4301 + "/1")
    def test_point_text_read_as_fraction_reads_it(self, text):
        """A trace's point text is read only in the form to_json writes: an
        optional minus sign, ASCII digits, "/", ASCII digits.  Text of that
        form means what fractions.Fraction(text) means; any other text, and
        text of that form Fraction rejects, is a format error."""
        parts = text.removeprefix("-").split("/")
        written = len(parts) == 2 and all(p.isascii() and p.isdigit() for p in parts)
        try:
            q = Fraction(text) if written else None
        except (ValueError, ZeroDivisionError):
            q = None
        if q is None:
            with pytest.raises(InputError, match=f"^point: bad rational {re.escape(repr(text))}$"):
                construct._point_parse(text, "point")
        else:
            assert construct._point_parse(text, "point") == (q.numerator, q.denominator)


    @settings(max_examples=300)
    @given(st.one_of(
        st.text(alphabet="0123456789-/+ _.e\u0663\u0664\uff11\u00b2\u00a0\t\n", max_size=12),
        st.from_regex(r"-?[0-9]{1,5}/[0-9]{1,5}", fullmatch=True),
        st.none(), st.integers(), st.lists(st.just("1/2"), max_size=1),
    ))
    @example("-1/2")
    @example("-/2")
    @example("--1/2")
    @example("1/2\n")
    @example("\uff11/2")
    @example("\u00b2/2")
    def test_point_verdict_matches_the_regex_form(self, text):
        """The point reader agrees with the old `-?[0-9]+/[0-9]+` fullmatch,
        kept here as the oracle: the same points, the same refusals."""
        import re

        try:
            if type(text) is not str or not re.fullmatch(r"-?[0-9]+/[0-9]+", text):
                raise ValueError(text)
            num, den = map(int, text.split("/"))
            if den == 0:
                raise ValueError(text)
        except ValueError:
            refusal = (f"point: bad rational {re.escape(repr(text))}" if type(text) is str
                       else "point must be a string")
            with pytest.raises(InputError, match=f"^{refusal}$"):
                construct._point_parse(text, "point")
        else:
            g = math.gcd(num, den)
            assert construct._point_parse(text, "point") == (num // g, den // g)


# Any JSON value; integers stay within 64 bits, so that the square class of a
# final.F entry never needs more than trial division and rho.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**64, 2**64)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10,
)


def json_paths(node, path=()):
    """The path of every node of a JSON document, the root's () first."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from json_paths(child, (*path, key))


def replaced(doc, path, value):
    """A copy of `doc` with the node at `path` replaced by `value`; the root's
    replacement is returned as the new document."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def one_node_replaced(doc, data):
    """`doc` with one node, drawn from `data`, replaced by a drawn JSON
    value."""
    path = data.draw(st.sampled_from(list(json_paths(doc))), label="path")
    return replaced(doc, path, data.draw(JSON_VALUES, label="value"))


def other_json_types(node):
    """One value of each JSON type that is not `node`'s: null, true, an
    integer, a float and the text equal to an integer leaf, a one-element
    list of a string leaf, an empty list and an empty object."""
    number = node if type(node) is int else 4
    string = node if type(node) is str else "x"
    values = [None, True, number, float(number), str(number), [string], [], {}]
    return [v for v in values if type(v) is not type(node)]


class TestTraceFuzz:
    def test_every_node_refuses_every_other_type(self, trace3):
        """Each node of a valid trace, the root, each container, each leaf
        and each list entry, replaced by a value of a JSON type that to_json
        does not write there, is refused as a value of the wrong type."""
        doc = trace3.to_json()
        paths = list(json_paths(doc))
        assert len(paths) > 30 and ("final", "F", 2) in paths
        for path in paths:
            node = doc
            for key in path:
                node = node[key]
            for value in other_json_types(node):
                with pytest.raises(InputError,
                                   match="must be (an integer|a string|a list|an object)$"):
                    ConstructionTrace.from_json(replaced(doc, path, value))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_field_replaced_by_any_json(self, trace3, data):
        """A valid trace with one node, the root included, replaced by any
        JSON value is read or refused with InputError: no KeyError,
        TypeError or AttributeError escapes."""
        doc = one_node_replaced(trace3.to_json(), data)
        try:
            ConstructionTrace.from_json(doc)
        except InputError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_verify_and_audit_keep_the_exit_code_contract(self, trace3, fuzz_file, data):
        """The same documents, written to a file, are verified and audited
        through the CLI: each command returns 0 or 1 with a JSON payload on
        stdout, or 2 or 3 with nothing on stdout, and raises nothing."""
        doc = one_node_replaced(trace3.to_json(), data)
        fuzz_file.write_text(json.dumps(doc))
        for argv in (["verify", "--trace", str(fuzz_file)],
                     ["audit", "--trace", str(fuzz_file), "--level", "2"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assert code in (0, 1, 2, 3)
            if code in (0, 1):
                json.loads(out.getvalue())
            else:
                assert out.getvalue() == ""


def mutate(trace, **changes):
    data = trace.to_json()
    for path, value in changes.items():
        keys = path.split("__")
        node = data
        for k in keys[:-1]:
            node = node[int(k)] if k.isdigit() else node[k]
        last = keys[-1]
        node[int(last) if last.isdigit() else last] = value
    return ConstructionTrace.from_json(data)


def renamed(trace, i, j, depth=5):
    """`trace` with step i naming entry j at `depth`, read back."""
    data = trace.to_json()
    data["steps"][i - 1].update(restated(j, depth))
    return ConstructionTrace.from_json(data)


class TestVerify:
    def test_valid_trace_passes(self, trace3):
        assert verify_trace(trace3) == []

    def test_repeated_point_violates_1m(self, trace3):
        bad = mutate(trace3, steps__1__point=trace3.to_json()["steps"][0]["point"])
        assert any(v.startswith("(1_2)") for v in verify_trace(bad))

    def test_square_fiber_violates_2m(self, trace3):
        # point 1 on the cover y^2 = t has a perfect-square fiber
        bad = mutate(trace3, steps__0__point="1/1")
        assert any(v.startswith("(2_1)") for v in verify_trace(bad))

    def test_wrong_cover_violates_3m(self, trace3):
        """(3_m) holds by construction: a trace records no cover, and a step
        that names one is refused before any verification."""
        with pytest.raises(InputError, match="^step 1: unknown key 'cover'$"):
            mutate(trace3, steps__0__cover="x + 1")

    def test_skipped_stream_violates_4m(self, trace3):
        bad = renamed(trace3, 1, 3)
        found = [v for v in verify_trace(bad) if v.startswith("(4_")]
        assert found == ["(4_1): entry 1 was eligible before entry 3",
                         "(4_2): stream entry 2 is not after entry 3"]

    def test_entry_no_run_can_select_violates_4m(self, trace3, tmp_path, monkeypatch):
        """Entry 302, (x^2 + 2, n = 24), is within the stream bound at depth
        1, but no run selects it, and reading its level-24 stream takes tens
        of seconds.  Under a bound of 8, where entry 38, (x^2 + 2, n = 8), is
        the same case, the reader refuses it before any level is read, and
        `verify` exits 2."""
        monkeypatch.setattr(construct, "MAX_STREAM_LEVEL", 8)
        assert vast_entry(38)[1:] == (RatPoly.parse("x^2 + 2"), 8)
        data = trace3.to_json()
        data["steps"][0].update(restated(38, 1))
        with pytest.raises(InputError, match=r"^step 1: entry must be in 1\.\.36$"):
            ConstructionTrace.from_json(data)
        path = tmp_path / "t.json"
        path.write_text(json.dumps(data))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["verify", "--trace", str(path)]) == 2

    def test_earlier_entry_past_the_bound_violates_4m(self, trace3, monkeypatch, levels):
        """Every step at depth 8 under a stream bound of 8, step 2 names
        entry 3, so the scan reaches entry 2, whose levels 2..9 pass it: a
        violation, reported without reading a level past the bound."""
        monkeypatch.setattr(construct, "MAX_STREAM_LEVEL", 8)
        data = trace3.to_json()
        data["params"]["depth"] = 8
        for step in data["steps"]:
            step["vast"]["depth_checked"] = 8
        data["steps"][1].update(restated(3, 8))
        bad = ConstructionTrace.from_json(data)
        found = [v for v in verify_trace(bad) if v.startswith("(4_2)")]
        assert found == ["(4_2): entry 2, levels 2..9 of x^2 + 1: past stream level 8"]
        assert max(levels) == 8

    def test_unreachable_witness_violates_5m(self, tmp_path):
        """Step 2 of run(3, 1, 1000) renamed to entry 1 at its depth 2: the
        stream's first two classes are -1 and 5, both in the field of step 2,
        so no witness is reachable and `verify` reports it beside the order."""
        path = tmp_path / "t.json"
        path.write_text(json.dumps(renamed(run(3, 1, 1000), 2, 1, depth=2).to_json()))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["verify", "--trace", str(path)]) == 1
        assert json.loads(out.getvalue())["violations"] == [
            "(4_2): stream entry 1 is not after entry 1",
            "(5_2): no witness reachable in the recorded stream: no witness among the "
            "first 2 elements of disc:x^2 + 1:1"]

    def test_wrong_witness_violates_5m(self, trace3):
        bad = mutate(trace3, steps__0__witness=7, final__F__0=7)
        found = [v for v in verify_trace(bad) if v.startswith("(5_1)")]
        assert found == ["(5_1): witness is not the first eligible stream class, "
                         "the one at level 1 of the recorded stream"]

    def test_witness_in_the_same_class_passes(self, trace3):
        """A witness is any integer of its class; the recorded one is the
        engine's representative, so a square multiple verifies too."""
        data = trace3.to_json()
        for rec in data["steps"]:
            rec["witness"] *= 9
        data["final"]["F"] = [rec["witness"] for rec in data["steps"]]
        assert verify_trace(ConstructionTrace.from_json(data)) == []

    def test_tampered_final_field_refused(self, trace3):
        data = trace3.to_json()
        data["final"]["F"] = data["final"]["F"][:-1] + [97]
        order = "final.F does not list the steps' witnesses in step order"
        with pytest.raises(InputError, match=f"^{re.escape(order)}$"):
            ConstructionTrace.from_json(data)



def value(h, q):
    """h(q) over Fraction: the oracle for the engine's integer fiber values."""
    return sum(Fraction(k, h.den) * q**i for i, k in enumerate(h.nums))


def full_scan_entries(trace):
    """The (2_i) entries of verify_trace, from a scan of every rational in the
    height order up to the recorded point's height at every step.  A repeated
    point, which the scan skips as a prior point, gets no (2_i) entry of its
    own unless a fresh point of its height is eligible: (1_i) reports it."""
    steps = trace.steps
    out, F, fibers = [], ClassSubspace(), []
    for i, rec in enumerate(steps, start=1):
        F = F.extend(rec.witness)
        over = F.compositum(ClassSubspace.span(fb for fb in fibers if fb is not None))
        point = Fraction(*rec.point)
        prior = [Fraction(*s.point) for s in steps[: i - 1]]
        height = max(abs(point.numerator), point.denominator)
        for num, den in rationals_by_height(height):
            q = Fraction(num, den)
            if q in prior:
                continue
            eligible = cover_fiber_integral(cover_entry(i), num, den, over)
            if q == point:
                if not eligible:
                    out.append(f"(2_{i}): recorded point is not integral")
                break
            if eligible:
                out.append(f"(2_{i}): point {q.numerator}/{q.denominator} was eligible "
                           f"before {point.numerator}/{point.denominator}")
                break
        v = value(cover_entry(i), point)
        fibers.append(class_of(v) if v else None)
    return out


def persistence_faults(trace):
    """What the construction keeps out of a valid trace and verify_trace does
    not test apart: a degenerate fiber (j, None), a witness that does not
    enlarge the field (None, i), and a fiber class of step j in the field of
    step i >= j, (j, i).  Each fiber class is tested against every field."""
    fields, faults = [ClassSubspace()], []
    for i, rec in enumerate(trace.steps, start=1):
        fields.append(fields[-1].extend(rec.witness))
        if fields[i].dim == fields[i - 1].dim:
            faults.append((None, i))
    for j, rec in enumerate(trace.steps, start=1):
        v = value(cover_entry(j), Fraction(*rec.point))
        if v == 0:
            faults.append((j, None))
            continue
        faults += [(j, i) for i in range(j, len(fields)) if fields[i].member(class_of(v))]
    return faults


@pytest.fixture(scope="module")
def trace20():
    return run(20, 5, 1000)


def point_mutants(trace, count, seed):
    """`trace` with one step's point shifted, copied from another step,
    swapped with another step's or set to a low point."""
    rng = random.Random(seed)
    low = [Fraction(*p) for p in rationals_by_height(8)]
    n = len(trace.steps)
    for _ in range(count):
        points = [Fraction(*rec.point) for rec in trace.steps]
        i, j = rng.sample(range(n), 2)
        kind = rng.randrange(4)
        if kind == 0:  # shift by a small rational
            points[i] += Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
        elif kind == 1:  # copy another step's point
            points[i] = points[j]
        elif kind == 2:  # swap two points
            points[i], points[j] = points[j], points[i]
        else:  # a low point, before the resume point of most covers
            points[i] = rng.choice(low)
        data = trace.to_json()
        for rec, q in zip(data["steps"], points):
            rec["point"] = f"{q.numerator}/{q.denominator}"
        yield ConstructionTrace.from_json(data)


class TestVerifyResume:
    """verify_trace resumes each point scan after the last passed scan of the
    same cover; its (2_i) entries must equal those of full scans."""

    def test_valid_trace(self, trace20):
        assert full_scan_entries(trace20) == [] == verify_trace(trace20)

    def test_mutated_points_match_full_scans(self, trace20):
        found = 0
        for bad in point_mutants(trace20, 16, seed=6):
            expected = full_scan_entries(bad)
            got = [v for v in verify_trace(bad) if v.startswith("(2_")]
            assert got == expected
            found += bool(expected)
        assert found == 16  # every mutant breaks some (2_i)


def with_witness(trace, i, witness):
    """`trace` with the witness of step i, and its final.F entry, replaced."""
    data = trace.to_json()
    data["steps"][i - 1]["witness"] = data["final"]["F"][i - 1] = witness
    return ConstructionTrace.from_json(data)


def fiber_int(trace, j):
    """An integer in the fiber class of step j."""
    v = value(cover_entry(j), Fraction(*trace.steps[j - 1].point))
    return v.numerator * v.denominator


class TestVerifyPersistence:
    """verify_trace does not test persistence apart: a fiber class pulled
    into a later field, a degenerate fiber or a witness that does not
    enlarge the field each break (1_m), (2_m) or (5_m) at some step."""

    @pytest.mark.parametrize("j, i", [(3, 8), (1, 20), (19, 20)])
    def test_fiber_pulled_into_the_field_breaks_5m(self, trace20, j, i):
        bad = with_witness(trace20, i, fiber_int(trace20, j))
        assert (j, i) in persistence_faults(bad)
        got = verify_trace(bad)
        assert (f"(5_{i}): witness is not the first eligible stream class, "
                f"the one at level 4 of the recorded stream") in got
        assert not [line for line in got if "fell into" in line]

    def witness_mutants(self, trace, count, seed):
        """Witnesses pulled from a fiber class, from an earlier witness or
        from a product of the two, or swapped with another step's."""
        rng = random.Random(seed)
        n = len(trace.steps)
        for _ in range(count):
            j, i = sorted(rng.sample(range(1, n + 1), 2))
            w_j, fiber_j = trace.steps[j - 1].witness, fiber_int(trace, j)
            kind = rng.randrange(4)
            if kind == 0:
                yield with_witness(trace, i, fiber_j)
            elif kind == 1:
                yield with_witness(trace, i, w_j)
            elif kind == 2:
                yield with_witness(trace, i, trace.steps[i - 1].witness * fiber_j)
            else:
                swapped = with_witness(trace, i, w_j)
                yield with_witness(swapped, j, trace.steps[i - 1].witness)

    def degenerate_mutants(self, trace):
        """Each step whose cover has an integer root, moved to that root."""
        for i in range(1, len(trace.steps) + 1):
            for t in range(-8, 9):
                if value(cover_entry(i), Fraction(t)) == 0:
                    yield mutate(trace, **{f"steps__{i - 1}__point": f"{t}/1"})
                    break

    def test_every_persistence_fault_is_a_violation(self, trace20):
        """Over point, witness and degenerate-point mutants, a trace the
        every-field oracle finds a persistence fault in always has a
        violation of the steps; final.F is kept equal to the witnesses."""
        mutants = [*point_mutants(trace20, 16, seed=6),
                   *self.witness_mutants(trace20, 24, seed=35),
                   *self.degenerate_mutants(trace20)]
        faulty = 0
        for bad in mutants:
            if persistence_faults(bad):
                faulty += 1
                assert verify_trace(bad)
        assert faulty == 32


def entry_indices(trace):
    """The enumeration entry of each step's stream, looked up from the
    (poly, n) that the JSON form names."""
    index = {(str(vast_entry(j).f), vast_entry(j).n): j for j in range(1, 129)}
    return [index[(s["vast"]["poly"], s["vast"]["n"])] for s in trace.to_json()["steps"]]


def full_scan_vast_entries(trace):
    """The "(4_i): entry j was eligible before entry idx" entries of
    verify_trace, from a test of every unused earlier entry at every step."""
    F, used, out = ClassSubspace(), set(), []
    for i, (rec, idx) in enumerate(zip(trace.steps, entry_indices(trace)), start=1):
        for j in range(1, idx):
            if j not in used and disjoint_over(F, vast_entry(j).subspace(rec.depth_checked)):
                out.append(f"(4_{i}): entry {j} was eligible before entry {idx}")
                break
        used.add(idx)
        F = F.extend(rec.witness)
    return out


def eligible_before(violations):
    return [v for v in violations if "was eligible before entry" in v]


class TestVastSkip:
    """A run selects the first entry after the previous step's that is
    disjoint from F, at a depth that never drops, so every entry up to the
    previous step's meets every later field; verify_trace tests only the
    entries between two steps' entries, which must never hide an eligible
    entry."""

    def test_later_entry_than_the_first_eligible_reported(self, trace20):
        recorded = entry_indices(trace20)
        for i in (4, 12, 20):
            idx = recorded[i - 1]
            later = next(j for j in range(idx + 1, 129) if j not in recorded)
            bad = renamed(trace20, i, later)
            got = eligible_before(verify_trace(bad))
            assert got == full_scan_vast_entries(bad)
            assert f"(4_{i}): entry {idx} was eligible before entry {later}" in got

    @pytest.mark.parametrize("make, line, code", [
        pytest.param(lambda t: renamed(t, 5, 7),
                     "(4_5): stream entry 7 is not after entry 7", 1, id="repeat"),
        pytest.param(lambda t: renamed(t, 5, 2),
                     "(4_5): stream entry 2 is not after entry 7", 1, id="back"),
        pytest.param(lambda t: t._replace(steps=tuple(
                         rec._replace(depth_checked=1) if i == 10 else rec
                         for i, rec in enumerate(t.steps, start=1))),
                     "(4_10): depth_checked 1 is below the previous step's 5", 2,
                     id="lowered-depth"),
    ])
    def test_order_and_depth_violations(self, trace20, tmp_path, make, line, code):
        """Step 4 records entry 7 at depth 5.  A step that names it again,
        goes back to an earlier entry, or checks less deeply than the step
        before breaks (4_m) once.  `verify` exits 1 on the first two; the
        reader refuses the third, whose depths no params and retries give,
        so the trace is built in process and `verify` exits 2 on it."""
        assert entry_indices(trace20)[1:5] == [2, 3, 7, 9]
        bad = make(trace20)
        assert [v for v in verify_trace(bad) if v.startswith("(4_")] == [line]
        path = tmp_path / "t.json"
        path.write_text(json.dumps(bad.to_json()))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["verify", "--trace", str(path)]) == code

    @pytest.mark.parametrize("args", [(40, 1, 1000), (30, 2, 1000)], ids=["40-1", "30-2"])
    def test_entries_increase_and_depths_never_drop(self, args):
        """Both runs retry deeper; across the retries the selected entries
        strictly increase, depth_checked never drops, and a test of every
        unselected earlier entry at every step finds none eligible."""
        trace = run(*args)
        assert trace.retries
        entries = entry_indices(trace)
        depths = [rec.depth_checked for rec in trace.steps]
        assert all(a < b for a, b in zip(entries, entries[1:]))
        assert all(a <= b for a, b in zip(depths, depths[1:]))
        assert full_scan_vast_entries(trace) == []

    def test_engine_tests_each_entry_once_per_depth(self, monkeypatch):
        """Were each selection to scan from entry 1, run(9) would make 35
        disjointness tests; scanning after the previous step's entry, it
        tests no (entry, depth) twice."""
        tested, calls = [], []
        subspace, disjoint = VastSpec.subspace, construct.disjoint_over

        def spy_subspace(spec, depth):
            tested.append((spec.index, depth))
            return subspace(spec, depth)

        def spy_disjoint(*args):
            calls.append(args)
            return disjoint(*args)

        monkeypatch.setattr(VastSpec, "subspace", spy_subspace)
        monkeypatch.setattr(construct, "disjoint_over", spy_disjoint)
        run(9, 5, 1000)
        assert len(calls) == len(tested) == len(set(tested))

    def test_the_reader_parses_no_polynomial(self, monkeypatch):
        """A step names its entry, and the reader only compares vast.poly
        with the entry's text: reading a 20-step trace, as the engine, the
        verifier and the audit, parses no polynomial."""
        parsed = []
        parse = exactpoly._parse_poly

        def spy(text):
            parsed.append(text)
            return parse(text)

        monkeypatch.setattr(exactpoly, "_parse_poly", spy)
        assert RatPoly.parse("x^2 + 1") == vast_entry(1).f  # the spy sees every parse
        assert parsed == ["x^2 + 1"]
        parsed.clear()
        trace = run(20, 5, 1000)
        again = ConstructionTrace.from_json(json.loads(json.dumps(trace.to_json())))
        assert again == trace
        assert verify_trace(again) == []
        counterexample_audit(again, 2)
        assert parsed == []


def test_thirty_steps_factor_nothing(monkeypatch):
    """Schema 2 records witnesses as the integers the engine holds, so no
    stage of the pipeline factors: under schema 1 the 336-bit witness of a
    30-step run alone took about 100 s of factoring."""

    def refuse(n):
        raise AssertionError(f"factorint called on a {n.bit_length()}-bit integer")

    exactpoly._squarefree_part.cache_clear()
    monkeypatch.setattr(primes, "factorint", refuse)
    trace = run(30, 5, 1000)
    again = ConstructionTrace.from_json(json.loads(json.dumps(trace.to_json())))
    assert again == trace
    assert verify_trace(again) == []
    report = counterexample_audit(again, 2)
    assert report["final_dim"] == 30
    assert max(rec.witness.bit_length() for rec in trace.steps) == 336


def first_use_polynomials(trace):
    """The distinct stream polynomials that the JSON form names, in
    first-use order."""
    return list(dict.fromkeys(s["vast"]["poly"] for s in trace.to_json()["steps"]))


class TestAudit:
    def test_assigned_polynomials(self, trace3):
        polys = [e["poly"] for e in counterexample_audit(trace3, 2)["polynomials"]]
        assert "x^2 + 1" in polys
        assert len(polys) == len(set(polys))
        assert polys == first_use_polynomials(trace3)

    def test_report_shape(self, trace3):
        report = counterexample_audit(trace3, 2)
        assert report["level"] == 2
        assert report["final_dim"] == 3
        assert [e["poly"] for e in report["polynomials"]] == first_use_polynomials(trace3)
        for entry in report["polynomials"]:
            assert entry["index_lower_bound"] == 2 ** len(entry["killed"])
            assert entry["intersection_dim"] >= 1

    def test_level_validated(self, trace3):
        with pytest.raises(ValueError):
            counterexample_audit(trace3, 0)
