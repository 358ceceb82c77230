import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from arborsign.construct import (
    DEFAULT_WINDOW,
    MAX_RETRIES,
    MAX_STREAM_LEVEL,
    ConstructionAborted,
    ConstructionState,
    ConstructionTrace,
    NoEligibleVastSpec,
    PointSearchExhausted,
    StepRecord,
    TraceFormatError,
    VastSpec,
    counterexample_audit,
    cover_entry,
    rationals_by_height,
    run,
    step,
    vast_entry,
    verify_trace,
    _SPEC_RESOLVE_CAP,
    _resolve_spec_index,
    _unpair,
)
from arborsign import cli, construct, exactpoly, primes
from arborsign.exactpoly import RatPoly
from arborsign.sqclass import (
    ClassSubspace,
    SquareClass,
    class_of,
    cover_fiber_integral,
    disjoint_over,
    primes_stream,
)


@pytest.fixture(scope="module")
def trace3():
    return run(3, 5, 100)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "trace.json"


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

    def test_vast_entries_skip_finite_orbits(self):
        fs = [vast_entry(j).f for j in range(1, 40)]
        assert all(f.den == 1 and f.nums[1:] == (0, 1) for f in fs)
        cs = {f.nums[0] for f in fs}
        # 0, -1, -2 have finite critical orbits and must never appear
        assert not cs & {0, -1, -2}
        assert 1 in cs and 2 in cs and -3 in cs

    def test_entries_one_based(self):
        with pytest.raises(ValueError):
            cover_entry(0)
        with pytest.raises(ValueError):
            vast_entry(0)

    def test_verifier_resolves_every_entry_a_trace_can_select(self):
        """A step selects an entry only after testing every earlier one, so
        the verifier's bound must lie past the first entry whose level n
        exceeds MAX_STREAM_LEVEL, and every entry up to it must resolve."""
        past = next(j for j in range(1, _SPEC_RESOLVE_CAP + 1)
                    if vast_entry(j).n > MAX_STREAM_LEVEL)
        assert (str(vast_entry(past).f), past) == ("x^2 + 1", 301)
        for j in (1, past - 1, past, _SPEC_RESOLVE_CAP):
            spec = vast_entry(j)
            assert spec.index == j
            assert _resolve_spec_index(spec.f, spec.n) == j
        assert _resolve_spec_index(RatPoly((3, 1, 1)), 1) is None

    def test_rationals_by_height_order(self):
        got = list(rationals_by_height(2))
        assert got == [(0, 1), (1, 1), (-1, 1), (2, 1), (-2, 1), (1, 2), (-1, 2)]
        # no duplicates at any height
        all10 = list(rationals_by_height(10))
        assert len(all10) == len(set(all10))

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
        state, rec = step(ConstructionState.initial(5), height=100)
        assert rec.to_json() == {
            "m": 1,
            "witness": -1,
            "cover": {"id": 1, "h": "x"},
            "point": "2/1",
            "vast": {"poly": "x^2 + 1", "n": 1, "depth_checked": 5},
        }
        assert state.F.kernels() == [-1]
        assert len(state.points) == 1

    def test_growth_invariants(self, trace3):
        assert trace3.dim == 3
        points = [rec.point for rec in trace3.steps]
        assert len(points) == len(set(points))
        specs = [(rec.vast_poly, rec.vast_n) for rec in trace3.steps]
        assert len(specs) == len(set(specs))

    def test_point_search_exhausted_aborts(self):
        with pytest.raises(ConstructionAborted) as exc:
            run(1, 5, 1)
        assert isinstance(exc.value.cause, PointSearchExhausted)
        assert exc.value.trace.steps == ()

    @pytest.mark.parametrize("kinds", ["depth", "window", "alternate"])
    def test_retries_share_one_budget(self, monkeypatch, kinds):
        """Depth and window retries draw on one budget of MAX_RETRIES; the
        next exhaustion aborts with it as the cause."""
        raised = []

        def exhaust_depth(*args):
            raised.append(construct.DepthExhausted("no class outside the span"))
            raise raised[-1]

        def exhaust_window(*args):
            # a selection at the doubled depths would compute 320 stream levels
            if kinds == "depth" or (kinds == "alternate" and len(raised) % 2 == 0):
                return vast_entry(1), frozenset()
            raised.append(NoEligibleVastSpec("no eligible stream", frozenset()))
            raise raised[-1]

        monkeypatch.setattr(construct, "vast_witness", exhaust_depth)
        monkeypatch.setattr(construct, "_select_vast", exhaust_window)
        with pytest.raises(ConstructionAborted) as exc:
            run(1, 5, 1000)
        trace = exc.value.trace
        assert len(raised) == MAX_RETRIES + 1
        assert exc.value.cause is raised[-1]
        assert trace.steps == ()
        assert len(trace.retries) == MAX_RETRIES
        depth, window = 5, DEFAULT_WINDOW
        for retry, cause in zip(trace.retries, raised):
            if isinstance(cause, construct.DepthExhausted):
                assert retry == {"step": 1, "reason": "depth_exhausted",
                                 "depth": depth, "new_depth": depth * 2}
                depth *= 2
            else:
                assert retry == {"step": 1, "reason": "window_exhausted",
                                 "window": window, "new_window": window * 2}
                window *= 2
        assert {type(c) for c in raised} == {
            "depth": {construct.DepthExhausted}, "window": {NoEligibleVastSpec},
            "alternate": {construct.DepthExhausted, NoEligibleVastSpec}}[kinds]

    @pytest.mark.parametrize("n, digest", [
        pytest.param(10, "af97fde6fa80bdc243fe058046c9fcf83bce351fb09e5407b63c94c86bdadfdc",
                     id="10"),
        pytest.param(20, "14ba90fe4e7b3782f01cb41dbff2796642ba174b8fac15f71d2e68af81905143",
                     id="20"),
        pytest.param(30, "f17bbf5ee55f40480168f0222b67722e8ae6d97327054e994703d31d06d98697",
                     id="30"),
        pytest.param(50, "c9552f7cee26dfeeb65d5444d3751f87e3901e8ca90b37846a9ab9444d4f5cc1",
                     id="50"),
        pytest.param(70, "5572f2d83b27fc7c9dc0c81477add9ed244ee500b63fc72e2059b94f64c0ef44",
                     id="70"),
    ])
    def test_trace_bytes_pinned(self, n, digest):
        """Every cover recurs at least twice in 20 steps, so the resumed point
        search is pinned along with the rest of the trace.  The 50-step run
        doubles its window at step 42, so the entries a step skips as already
        shown not disjoint from F are pinned across a retry too.  The pins run
        with the process-wide enumeration lists already warm from earlier
        tests and runs, so they pin determinism across warm lists as well."""
        trace = run(n, 5, 1000)
        blob = json.dumps(trace.to_json()).encode()
        assert hashlib.sha256(blob).hexdigest() == digest
        assert verify_trace(trace) == []

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
        finally:
            sys.set_int_max_str_digits(limit)
        digest = "9271ffc02a15f5c434376ed701187b4eed8cfbc7643374a1a905f26d0363f2e8"
        assert hashlib.sha256(blob).hexdigest() == digest
        assert verify_trace(trace) == []

    def test_run_validation(self):
        with pytest.raises(ValueError):
            run(0, 5, 100)
        with pytest.raises(ValueError):
            run(1, 0, 100)
        with pytest.raises(ValueError):
            run(1, 5, 0)


class TestRecordsImmutable:
    RECORDS = {
        "VastSpec": lambda trace: vast_entry(1),
        "ConstructionState": lambda trace: ConstructionState.initial(5),
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


class TestTraceSerialization:
    def test_round_trip(self, trace3):
        again = ConstructionTrace.from_json(trace3.to_json())
        assert again == trace3

    def test_deterministic_json(self, trace3):
        a = json.dumps(trace3.to_json(), sort_keys=True)
        b = json.dumps(run(3, 5, 100).to_json(), sort_keys=True)
        assert a == b

    def test_schema_2_fields(self, trace3):
        data = trace3.to_json()
        assert data["schema"] == 2
        assert data["final"] == {"F": [rec.witness for rec in trace3.steps], "dim": 3}

    def test_rejects_wrong_schema(self, trace3):
        data = trace3.to_json()
        data["schema"] = 99
        with pytest.raises(TraceFormatError):
            ConstructionTrace.from_json(data)
        with pytest.raises(TraceFormatError):
            ConstructionTrace.from_json([])

    def test_rejects_malformed_step(self, trace3):
        data = trace3.to_json()
        del data["steps"][0]["point"]
        with pytest.raises(TraceFormatError):
            ConstructionTrace.from_json(data)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("final", "F"), [4]),
            (("final", "F"), [0]),
            (("final", "F"), ["3"]),
            (("final", "F"), [True]),
            (("params", "height"), "abc"),
            (("params", "height"), 0),
            (("params", "height"), 1.5),
            (("retries",), ["abc"]),
            (("steps", 1, "vast", "n"), 0),
            (("steps", 1, "vast", "n"), MAX_STREAM_LEVEL - 3),  # depth 5: one level over
            (("steps", 1, "vast", "n"), 100000),
            (("steps", 1, "vast", "depth_checked"), 0),
            (("steps", 1, "vast", "depth_checked"), -3),
            (("steps", 1, "vast", "depth_checked"), 1000),
            (("steps", 1, "vast", "poly"), "x + 1"),
            (("steps", 1, "vast", "poly"), "3"),
            (("final", "F"), [9]),
            (("final", "F"), [-1, 1.5]),
            (("steps", 1, "m"), "2"),
            (("steps", 1, "m"), 2.0),
            (("steps", 1, "witness"), 0),
            (("steps", 1, "witness"), "5"),
            (("steps", 1, "witness"), True),
            (("steps", 1, "cover", "id"), 1.7),
            (("steps", 1, "cover", "id"), "2"),
            (("steps", 1, "vast", "n"), True),
            (("steps", 1, "vast", "n"), 1.0),
            (("steps", 1, "vast", "depth_checked"), "5"),
            (("steps", 1), {"m": 2, "witness_kernel": 5}),
            (("final", "dim"), "3"),
        ],
    )
    def test_rejects_bad_final_params_retries(self, trace3, path, value):
        data = trace3.to_json()
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(TraceFormatError):
            ConstructionTrace.from_json(data)

    def test_accepts_deepest_stream_level(self, trace3):
        data = trace3.to_json()
        vast = data["steps"][1]["vast"]
        vast["depth_checked"] = MAX_STREAM_LEVEL - vast["n"] + 1
        trace = ConstructionTrace.from_json(data)
        assert trace.steps[1].depth_checked == vast["depth_checked"]

    def test_rejects_bad_rational(self, trace3):
        data = trace3.to_json()
        data["steps"][0]["point"] = "1/0"
        with pytest.raises(TraceFormatError):
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
        """A trace's point text means what fractions.Fraction(text) means,
        and text Fraction rejects is a format error."""
        try:
            q = Fraction(text)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(TraceFormatError):
                construct._point_parse(text)
        else:
            assert construct._point_parse(text) == (q.numerator, q.denominator)


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


def one_node_replaced(doc, data):
    """`doc` with one node, drawn from `data`, replaced by a drawn JSON value;
    the root's replacement is returned as the new document."""
    path = data.draw(st.sampled_from(list(json_paths(doc))), label="path")
    value = data.draw(JSON_VALUES, label="value")
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class TestTraceFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_field_replaced_by_any_json(self, trace3, data):
        """A valid trace with one node, the root included, replaced by any
        JSON value is read or refused with TraceFormatError: no KeyError,
        TypeError or AttributeError escapes."""
        doc = one_node_replaced(trace3.to_json(), data)
        try:
            ConstructionTrace.from_json(doc)
        except TraceFormatError:
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
        bad = mutate(trace3, steps__0__cover={"id": 2, "h": "x + 1"})
        assert any(v.startswith("(3_1)") for v in verify_trace(bad))

    def test_skipped_stream_violates_4m(self, trace3):
        rec = trace3.to_json()["steps"][0]["vast"]
        bad = mutate(trace3, steps__0__vast={**rec, "poly": "x^2 + 2"})
        assert any(v.startswith("(4_1)") or v.startswith("(5_1)") for v in verify_trace(bad))

    def test_wrong_witness_violates_5m(self, trace3):
        bad = mutate(trace3, steps__0__witness=7)
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

    def test_tampered_final_field_reported(self, trace3):
        data = trace3.to_json()
        data["final"]["F"] = data["final"]["F"][:-1] + [97]
        bad = ConstructionTrace.from_json(data)
        assert any(v.startswith("(final)") for v in verify_trace(bad))

    def test_tampered_final_dim_reported(self, trace3):
        bad = mutate(trace3, final__dim=1)
        assert verify_trace(bad) == ["(final): recorded dim 1 is not the number of witnesses, 3"]
        assert counterexample_audit(bad, 2)["final_dim"] == 3


def value(h, q):
    """h(q) over Fraction: the oracle for the engine's integer fiber values."""
    return sum(Fraction(k, h.den) * q**i for i, k in enumerate(h.nums))


def full_scan_entries(trace):
    """The (2_i) entries of verify_trace, from a scan of every rational in the
    height order at every step, and a test of every fiber class against every
    later field."""
    steps, height = trace.steps, trace.params["height"]
    fields = [ClassSubspace()]
    for rec in steps:
        fields.append(fields[-1].extend(SquareClass(rec.witness)))
    out, fibers = [], []
    for i, rec in enumerate(steps, start=1):
        v = value(rec.cover_h, Fraction(*rec.point))
        if v == 0:
            out.append(f"(2_{i}): fiber above the recorded point is degenerate")
        fibers.append(class_of(v) if v else None)
    for i, rec in enumerate(steps, start=1):
        over = ClassSubspace.span([fb for fb in fibers[: i - 1] if fb is not None])
        over = fields[i].compositum(over)
        point = Fraction(*rec.point)
        prior = [Fraction(*s.point) for s in steps[: i - 1]]
        reached = False
        for num, den in rationals_by_height(height):
            q = Fraction(num, den)
            if q in prior:
                continue
            eligible = cover_fiber_integral(rec.cover_h, num, den, over)
            if q == point:
                reached = True
                if not eligible:
                    out.append(f"(2_{i}): recorded point is not integral")
                break
            if eligible:
                out.append(f"(2_{i}): point {q} was eligible before {point}")
                break
        if not reached and not any(v.startswith(f"(2_{i})") for v in out):
            out.append(f"(2_{i}): recorded point not reached in the height ordering")
        for j, fb in enumerate(fibers[:i], start=1):
            if fb is not None and fields[i].member(fb):
                out.append(f"(2_{i}): fiber class of step {j} fell into the field")
    return out


@pytest.fixture(scope="module")
def trace20():
    return run(20, 5, 1000)


class TestVerifyResume:
    """verify_trace resumes each point scan after the last passed scan of the
    same cover; its (2_i) entries must equal those of full scans."""

    def mutants(self, trace, count, seed):
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

    def test_valid_trace(self, trace20):
        assert full_scan_entries(trace20) == [] == verify_trace(trace20)

    def test_mutated_points_match_full_scans(self, trace20):
        found = 0
        for bad in self.mutants(trace20, 16, seed=6):
            expected = full_scan_entries(bad)
            got = [v for v in verify_trace(bad) if v.startswith("(2_")]
            assert got == expected
            found += bool(expected)
        assert found == 16  # every mutant breaks some (2_i)


class TestVerifyPersistence:
    """verify_trace tests each fiber class once against the last field and
    bisects for the first field that holds it; its entries must equal those
    of a test against every field."""

    @pytest.mark.parametrize("j, i", [(3, 8), (1, 20), (19, 20)])
    def test_fiber_pulled_into_the_field_repeats_at_every_later_step(self, trace20, j, i):
        rec = trace20.steps[j - 1]
        v = value(rec.cover_h, Fraction(*rec.point))
        bad = mutate(trace20, **{f"steps__{i - 1}__witness": v.numerator * v.denominator})
        got = [line for line in verify_trace(bad) if line.startswith("(2_")]
        assert got == full_scan_entries(bad)
        line = f"fiber class of step {j} fell into the field"
        assert [v for v in got if v.endswith(line)] == [f"(2_{k}): {line}" for k in range(i, 21)]


def entry_indices(trace):
    """The enumeration entry of each step's stream."""
    index = {(vast_entry(j).f, vast_entry(j).n): j for j in range(1, 129)}
    return [index[(rec.vast_poly, rec.vast_n)] for rec in trace.steps]


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
        F = F.extend(SquareClass(rec.witness))
    return out


def eligible_before(violations):
    return [v for v in violations if "was eligible before entry" in v]


class TestVastSkip:
    """An entry whose truncated subspace meets F meets every larger field at
    that depth or deeper, so the engine and verify_trace skip it from then
    on; the skip must never hide an eligible entry."""

    def test_later_entry_than_the_first_eligible_reported(self, trace20):
        recorded = entry_indices(trace20)
        for i in (4, 12, 20):
            idx = recorded[i - 1]
            later = next(j for j in range(idx + 1, 129) if j not in recorded)
            spec = vast_entry(later)
            bad = mutate(trace20, **{f"steps__{i - 1}__vast": {
                "poly": str(spec.f), "n": spec.n, "depth_checked": 5}})
            got = eligible_before(verify_trace(bad))
            assert got == full_scan_vast_entries(bad)
            assert f"(4_{i}): entry {idx} was eligible before entry {later}" in got

    def test_depth_drop_retests_entries_met_deeper(self, trace20):
        # Step 4 records entry 7, so the verifier finds entry 5 not disjoint
        # from the field of three steps at depth 5.  At depth 1 it is disjoint
        # from the field of nine steps, and entry 17 comes after it.
        F3 = ClassSubspace.span(SquareClass(rec.witness) for rec in trace20.steps[:3])
        recorded = entry_indices(trace20)
        assert (recorded[3], recorded[9]) == (7, 17)
        assert not disjoint_over(F3, vast_entry(5).subspace(5))
        data = trace20.to_json()
        for rec in data["steps"][9:]:
            rec["vast"]["depth_checked"] = 1
        bad = ConstructionTrace.from_json(data)
        got = eligible_before(verify_trace(bad))
        assert got == full_scan_vast_entries(bad)
        assert got[0] == "(4_10): entry 5 was eligible before entry 17"

    def test_engine_tests_each_entry_once_per_depth(self, monkeypatch):
        """Without the skip, run(9) makes 35 disjointness tests; with it, no
        (entry, depth) is tested twice."""
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
    assert max(w.bit_length() for w in trace.final) == 336


def first_use_polynomials(trace):
    """The distinct stream polynomials of the steps, in first-use order."""
    return list(dict.fromkeys(str(rec.vast_poly) for rec in trace.steps))


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
