"""Acceptance suite: ten numbered end-to-end criteria.

Each test checks one criterion at its stated tolerance and prints exactly one
PASS/FAIL line straight to the terminal (bypassing capture), so a plain
pytest run shows the verdict table.  Oracles here are independent of the
library: determinants, exhaustive group enumeration, and re-factorization.
"""
import contextlib
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
import sympy

import arborsign
from arborsign.arboreal import (
    disc_class,
    disc_class_sequence,
    index_report,
    splitting_degree_lower_bound,
)
from arborsign.construct import (
    ConstructionTrace,
    assigned_polynomials,
    counterexample_audit,
    run,
    verify_trace,
)
from arborsign.exactpoly import RatPoly, discriminant, iterate
from arborsign.sqclass import ClassSubspace
from arborsign.supernat import INF, SupernaturalNumber
from arborsign.treegroup import (
    all_portraits,
    compose,
    group_order,
    leaf_permutation,
    perm_sign,
    random_portrait,
    sign_level,
)

from test_exactpoly import random_poly, sylvester_discriminant

X2M3 = RatPoly.parse("x^2 - 3")
X2P1 = RatPoly.parse("x^2 + 1")


@contextlib.contextmanager
def reported(capsys, num, desc):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE {num:2d} FAIL  {desc}")
        raise
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:2d} PASS  {desc}")


# ---------------------------------------------------------------------------
# Shared artifacts for criteria 4-10.  Built from scratch on every call;
# criterion 10 compares them with a build in a separate process.
# ---------------------------------------------------------------------------


def build_artifacts():
    t0 = time.perf_counter()
    trace = run(10, 5, 1000)
    run_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    seqs = {
        "x^2 - 3": disc_class_sequence(X2M3, 4).kernels(),
        "x^2 + 1": disc_class_sequence(X2P1, 4).kernels(),
    }
    seq_seconds = time.perf_counter() - t0

    bounds = {
        "level1_primes10": splitting_degree_lower_bound(X2P1, 1, 10),
        "level2_primes50": splitting_degree_lower_bound(X2P1, 2, 50),
    }
    certs = {
        "refute_level1": index_report(
            X2M3, ClassSubspace.from_kernels([3]), 1, 1, 10
        ).to_json(),
        "refute_level2": index_report(
            X2M3, ClassSubspace.from_kernels([3, 6]), 2, 1, 10
        ).to_json(),
    }
    violations = verify_trace(trace)
    audit = counterexample_audit(trace, assigned_polynomials(trace), 2)
    blob = json.dumps(
        {
            "disc_sequences": seqs,
            "degree_bounds": bounds,
            "certificates": certs,
            "trace": trace.to_json(),
            "violations": violations,
            "audit": audit,
        },
        sort_keys=True,
    ).encode()
    return {
        "trace": trace,
        "run_seconds": run_seconds,
        "seq_seconds": seq_seconds,
        "violations": violations,
        "audit": audit,
        "blob": blob,
    }


@pytest.fixture(scope="module")
def artifacts():
    return build_artifacts()


def blob_from_fresh_process() -> bytes:
    """The artifact blob built by a new interpreter, with cold caches and its
    own hash seed."""
    paths = [
        os.path.dirname(os.path.abspath(__file__)),
        os.path.dirname(os.path.dirname(arborsign.__file__)),
        os.environ.get("PYTHONPATH", ""),
    ]
    code = (
        "import sys; from test_acceptance import build_artifacts; "
        "sys.stdout.buffer.write(build_artifacts()['blob'])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p)),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_01_group_orders(capsys):
    with reported(capsys, 1, "group orders match exhaustive enumeration"):
        t0 = time.perf_counter()
        for k, expected in [(1, 2), (2, 8), (3, 128)]:
            assert group_order(2, k) == expected
            assert sum(1 for _ in all_portraits(2, k)) == expected
        assert group_order(3, 2) == 1296
        assert time.perf_counter() - t0 < 5


def test_criterion_02_sign_soundness(capsys):
    with reported(capsys, 2, "sign closed form = expanded leaf sign, 0 mismatches"):
        mismatches = 0
        for g in all_portraits(2, 3):
            for n in (1, 2, 3):
                if sign_level(g, n) != perm_sign(leaf_permutation(g, n)):
                    mismatches += 1
        rng = random.Random(2026)
        for _ in range(500):
            g = random_portrait(3, 2, rng)
            for n in (1, 2):
                if sign_level(g, n) != perm_sign(leaf_permutation(g, n)):
                    mismatches += 1
        assert mismatches == 0


def test_criterion_03_discriminant_oracles(capsys):
    with reported(capsys, 3, "disc = Sylvester determinant and closed forms, 1000x each"):
        rng = random.Random(31337)
        for _ in range(1000):
            f = random_poly(rng, 5, fractions=True, min_deg=1)
            assert discriminant(f) == sylvester_discriminant(f)
        for _ in range(1000):
            a = Fraction(rng.randint(-9, 9) or 2, rng.randint(1, 4))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            assert discriminant(RatPoly((c, b, a))) == b * b - 4 * a * c
        for _ in range(1000):
            p = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
            assert discriminant(RatPoly((q, 0, p, 0, 1))) == 16 * q * (p * p - 4 * q) ** 2


def test_criterion_04_iterate_disc_sequences(capsys, artifacts):
    with reported(capsys, 4, "disc sequences [3,6] / [-1,2]; depth 4 < 10 s, refactored"):
        assert disc_class_sequence(X2M3, 2).kernels() == [3, 6]
        assert disc_class_sequence(X2P1, 2).kernels() == [-1, 2]
        assert artifacts["seq_seconds"] < 10
        for f in (X2M3, X2P1):
            for n in range(1, 5):
                k = disc_class(f, n).kernel
                # independent check: k is squarefree and disc/k is a square
                assert all(e == 1 for e in sympy.factorint(abs(k)).values())
                ratio = discriminant(iterate(f, n)) / k
                assert ratio > 0
                num, den = ratio.numerator, ratio.denominator
                assert math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den


def test_criterion_05_degree_bound_truncation(capsys):
    with reported(capsys, 5, "degree bounds 2 and 4; lcm evidence capped by exponent 4"):
        assert splitting_degree_lower_bound(X2P1, 1, 10) == 2 == group_order(2, 1)
        level2 = splitting_degree_lower_bound(X2P1, 2, 50)
        assert level2 == 4
        assert level2 <= 8 == group_order(2, 2)
        # oracle: the order-8 level-2 image is all of Aut T_2(2); its largest
        # element order (= exponent) caps any single Frobenius lcm below 8
        def element_order(g):
            from arborsign.treegroup import Portrait

            e, h, n = Portrait.identity(2, 2), g, 1
            while h != e:
                h, n = compose(h, g), n + 1
            return n

        exponent = max(element_order(g) for g in all_portraits(2, 2))
        assert exponent == 4
        assert level2 <= exponent < group_order(2, 2)
        cert = index_report(X2P1, ClassSubspace(), 2, 1, 50)
        assert cert.verdict == "UNKNOWN"
        assert cert.degree_lower_bound == 4 and cert.group_order == 8


def test_criterion_06_nonsurjectivity_mechanism(capsys):
    with reported(capsys, 6, "killed signs refute index 1 at level 1; bound 4 at level 2"):
        cert1 = index_report(X2M3, ClassSubspace.from_kernels([3]), 1, 1, 10)
        assert cert1.verdict == "REFUTES_INDEX_AT_MOST(1)"
        assert sorted(cert1.killed) == [1]
        assert cert1.index_lower_bound == 2
        cert2 = index_report(X2M3, ClassSubspace.from_kernels([3, 6]), 2, 1, 10)
        assert sorted(cert2.killed) == [1, 2]
        assert cert2.index_lower_bound == 4
        assert cert2.verdict == "REFUTES_INDEX_AT_MOST(1)"


def test_criterion_07_construction_round_trip(capsys, artifacts):
    with reported(capsys, 7, "10-step run < 60 s; verify clean; dim 10; 2^10 | 2^inf"):
        assert artifacts["run_seconds"] < 60
        assert artifacts["violations"] == []
        assert artifacts["trace"].dim == 10
        assert SupernaturalNumber.from_integer(2**10).divides(SupernaturalNumber({2: INF}))


def _mutations(trace, rng):
    """Seeded single-field semantic mutations of a trace's JSON form."""
    base = trace.to_json()
    n_steps = len(base["steps"])
    while True:
        data = json.loads(json.dumps(base))
        i = rng.randrange(n_steps)
        step = data["steps"][i]
        kind = rng.choice(["point", "witness", "cover", "vast"])
        if kind == "point":
            new = f"{rng.randint(2, 40)}/1"
            if new == step["point"]:
                continue
            step["point"] = new
        elif kind == "witness":
            # a new integer in the recorded class would be the same witness
            new = rng.choice([7, -7, 11, 13, -13, 17, 19, 23, -1, 2, 3])
            product = new * step["witness"]
            if product > 0 and math.isqrt(product) ** 2 == product:
                continue
            step["witness"] = new
            data["final"]["F"][i] = new  # so that only (5_m) and its consequences catch it
        elif kind == "cover":
            if rng.random() < 0.5:
                step["cover"]["id"] += rng.choice([-1, 1, 5])
                if step["cover"]["id"] < 1:
                    continue
            else:
                new = rng.choice(["x + 3", "x - 2", "x^2 + x + 1"])
                if new == step["cover"]["h"]:
                    continue
                step["cover"]["h"] = new
        else:
            # stay shallow: deeper stream levels would mean factoring
            # doubly-exponential orbit values, which the verifier would do
            # faithfully but not in test time
            if step["vast"]["n"] > 1 and rng.random() < 0.5:
                step["vast"]["n"] -= 1
            elif step["vast"]["n"] <= 2:
                new = rng.choice(["x^2 + 5", "x^2 - 5", "x^2 + 6", "x^2 + 1"])
                if new == step["vast"]["poly"]:
                    continue
                step["vast"]["poly"] = new
            else:
                continue
        yield kind, i, ConstructionTrace.from_json(data)


def test_criterion_08_fuzz_soundness(capsys, artifacts):
    with reported(capsys, 8, "100 semantic mutations, each caught; zero false passes"):
        rng = random.Random(20260824)
        gen = _mutations(artifacts["trace"], rng)
        false_passes = []
        for _ in range(100):
            kind, i, mutated = next(gen)
            if not verify_trace(mutated):
                false_passes.append((kind, i))
        assert false_passes == []


def test_criterion_09_audit_growth(capsys, artifacts):
    with reported(capsys, 9, "audit: every assigned poly intersects F_final, index >= 2"):
        report = artifacts["audit"]
        assert report["final_dim"] == 10
        entries = [e for e in report["polynomials"] if e["assigned"]]
        assert entries
        for entry in entries:
            assert entry["intersection_dim"] >= 1
            assert entry["index_lower_bound"] >= 2
            assert entry["killed"]


def test_criterion_10_determinism(capsys, artifacts):
    with reported(capsys, 10, "two independent executions, byte-identical artifacts"):
        assert artifacts["blob"] == blob_from_fresh_process()
