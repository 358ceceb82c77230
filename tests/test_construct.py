import hashlib
import json
import random
from fractions import Fraction

import pytest

from arborsign.construct import (
    MAX_STREAM_LEVEL,
    ConstructionAborted,
    ConstructionState,
    ConstructionTrace,
    CoverEnumeration,
    PointSearchExhausted,
    StepRecord,
    TraceFormatError,
    VastEnumeration,
    assigned_polynomials,
    counterexample_audit,
    default_enumerations,
    rationals_by_height,
    run,
    step,
    verify_trace,
    _unpair,
)
from arborsign import exactpoly, primes
from arborsign.exactpoly import RatPoly
from arborsign.sqclass import ClassSubspace, SquareClass, class_of, cover_fiber_integral


@pytest.fixture(scope="module")
def trace3():
    return run(3, 5, 100)


class TestEnumerations:
    def test_unpair_sweeps_diagonals(self):
        seen = [_unpair(j) for j in range(15)]
        assert seen[:6] == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
        assert len(set(seen)) == 15

    def test_cover_entries_repeat_each_grid_polynomial(self):
        B = CoverEnumeration()
        first = B.entry(1)
        assert first.h == RatPoly.parse("x") and first.repetition == 0
        # the same grid polynomial recurs with increasing repetition counts
        reps = [e.repetition for e in (B.entry(j) for j in range(1, 60)) if e.grid_index == 0]
        assert reps == list(range(len(reps))) and len(reps) >= 3

    def test_cover_grid_is_squarefree(self):
        B = CoverEnumeration()
        from arborsign.exactpoly import discriminant

        for j in range(1, 80):
            h = B.entry(j).h
            assert h.lc == 1 and 1 <= h.degree <= 2
            assert discriminant(h) != 0 if h.degree == 2 else True

    def test_vast_entries_skip_finite_orbits(self):
        A = VastEnumeration()
        cs = {A.entry(j).f.coeff(0) for j in range(1, 40)}
        # 0, -1, -2 have finite critical orbits and must never appear
        assert not cs & {Fraction(0), Fraction(-1), Fraction(-2)}
        assert Fraction(1) in cs and Fraction(2) in cs and Fraction(-3) in cs

    def test_entries_one_based(self):
        B, A = default_enumerations()
        with pytest.raises(ValueError):
            B.entry(0)
        with pytest.raises(ValueError):
            A.entry(0)

    def test_rationals_by_height_order(self):
        got = list(rationals_by_height(2))
        assert got == [
            Fraction(0), Fraction(1), Fraction(-1),
            Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2),
        ]
        # no duplicates at any height
        all10 = list(rationals_by_height(10))
        assert len(all10) == len(set(all10))

    def test_resumed_enumeration_is_a_suffix(self):
        full = list(rationals_by_height(30))
        for i, q in enumerate(full):
            assert list(rationals_by_height(30, q)) == full[i + 1:]
        assert list(rationals_by_height(30, 31)) == []
        assert list(rationals_by_height(30, Fraction(-5, 31))) == []


class TestStep:
    def test_first_step_record(self):
        B, A = default_enumerations()
        state, rec = step(ConstructionState.initial(5), B, A, height=100)
        assert rec.to_json() == {
            "m": 1,
            "witness": -1,
            "cover": {"id": 1, "h": "x"},
            "point": "2/1",
            "vast": {"poly": "x^2 + 1", "n": 1, "depth_checked": 5},
        }
        assert state.F.kernels() == [-1]
        assert state.m == 1

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

    @pytest.mark.parametrize("n, digest", [
        pytest.param(10, "af97fde6fa80bdc243fe058046c9fcf83bce351fb09e5407b63c94c86bdadfdc",
                     id="10"),
        pytest.param(20, "14ba90fe4e7b3782f01cb41dbff2796642ba174b8fac15f71d2e68af81905143",
                     id="20"),
    ])
    def test_trace_bytes_pinned(self, n, digest):
        """Every cover recurs at least twice in 20 steps, so the resumed point
        search is pinned along with the rest of the trace."""
        blob = json.dumps(run(n, 5, 1000).to_json()).encode()
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_run_validation(self):
        with pytest.raises(ValueError):
            run(0, 5, 100)
        with pytest.raises(ValueError):
            run(1, 0, 100)
        with pytest.raises(ValueError):
            run(1, 5, 0)


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


def full_scan_entries(trace):
    """The (2_i) entries of verify_trace, from a scan of every rational in the
    height order at every step."""
    steps, height = trace.steps, trace.params["height"]
    fields = [ClassSubspace()]
    for rec in steps:
        fields.append(fields[-1].extend(SquareClass(rec.witness)))
    out, fibers = [], []
    for i, rec in enumerate(steps, start=1):
        v = rec.cover_h(rec.point)
        if v == 0:
            out.append(f"(2_{i}): fiber above the recorded point is degenerate")
        fibers.append(class_of(v) if v else None)
    for i, rec in enumerate(steps, start=1):
        over = ClassSubspace.span([fb for fb in fibers[: i - 1] if fb is not None])
        over = fields[i] + over
        prior = [s.point for s in steps[: i - 1]]
        reached = False
        for q in rationals_by_height(height):
            if q in prior:
                continue
            eligible = cover_fiber_integral(rec.cover_h, q, over)
            if q == rec.point:
                reached = True
                if not eligible:
                    out.append(f"(2_{i}): recorded point is not integral")
                break
            if eligible:
                out.append(f"(2_{i}): point {q} was eligible before {rec.point}")
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
        low = list(rationals_by_height(8))
        n = len(trace.steps)
        for _ in range(count):
            points = [rec.point for rec in trace.steps]
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
    report = counterexample_audit(again, assigned_polynomials(again), 2)
    assert report["final_dim"] == 30
    assert max(w.bit_length() for w in trace.final) == 336


class TestAudit:
    def test_assigned_polynomials(self, trace3):
        polys = assigned_polynomials(trace3)
        assert RatPoly.parse("x^2 + 1") in polys
        assert len(polys) == len(set(polys))

    def test_report_shape(self, trace3):
        report = counterexample_audit(trace3, assigned_polynomials(trace3), 2)
        assert report["level"] == 2
        assert report["final_dim"] == 3
        for entry in report["polynomials"]:
            assert entry["assigned"]
            assert entry["index_lower_bound"] == 2 ** len(entry["killed"])
            assert entry["intersection_dim"] >= 1

    def test_unassigned_polynomial_flagged(self, trace3):
        report = counterexample_audit(trace3, [RatPoly.parse("x^2 - 5")], 2)
        entry = report["polynomials"][0]
        assert entry == {"poly": "x^2 - 5", "assigned": False, "unprocessed": True}

    def test_level_validated(self, trace3):
        with pytest.raises(ValueError):
            counterexample_audit(trace3, [], 0)
