"""Stdlib primality and factoring against sympy as the oracle."""
import math
import os
import subprocess
import sys

import pytest
import sympy

import arborsign
from arborsign import primes

# Fixed primes of 70-95 bits: above the deterministic Miller-Rabin range when
# multiplied, and too large for the rho budget to split off.
BIG_PRIMES = [
    596189259135830631461,
    12221186039420459626493,
    182142283075825860935681,
    4327019982754864159894769,
    43061666554912055414826271,
    708805862199784705046178899,
    28939631014498387707557666761,
]

PSEUDOPRIMES = [
    # strong pseudoprimes to base 2
    2047, 3277, 4033, 4681, 8321, 3215031751,
    # ... to every prime base up to 23, 37 and 41
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
    # composite Mersenne numbers 2^p - 1 are strong pseudoprimes to base 2;
    # these lie above the Miller-Rabin range, so only the Lucas half rejects them
    2**83 - 1, 2**97 - 1, 2**101 - 1,
    # strong Lucas pseudoprimes with Selfridge's parameters
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
    # Carmichael numbers, the last of Chernick's form (6k+1)(12k+1)(18k+1)
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
    5394826801, 232250619601, 9746347772161, 3133574043600846239338955401,
]


# a_9 = 2 * 19 * A9_P96 * A9_P236 for x^2 + 2, as sympy.factorint gives it
# (in about 95 s on a 2-core host)
A9_P96 = 52620199682331825683759180339
A9_P236 = 66750716662090170276974222628466557246502370193449249855587545971364539


def critical_orbit_value(c: int, n: int) -> int:
    a = 0
    for _ in range(n):
        a = a * a + c
    return a


def oracle(n: int) -> dict[int, int]:
    return {int(p): int(e) for p, e in sorted(sympy.factorint(n).items())}


class TestIsPrime:
    def test_every_small_integer(self):
        assert [n for n in range(-3, 10**5) if primes.is_prime(n) != sympy.isprime(n)] == []

    def test_pseudoprimes_are_composite(self):
        for n in PSEUDOPRIMES:
            assert not sympy.isprime(n)
            assert not primes.is_prime(n), n

    def test_mersenne_pseudoprimes_pass_base_2(self):
        for p in (83, 97, 101):
            n = 2**p - 1
            assert n > primes._MR_BOUND
            assert primes._strong_probable_prime(n, 2)

    def test_big_primes_and_products(self):
        for p in BIG_PRIMES:
            assert sympy.isprime(p) and primes.is_prime(p)
        for i, p in enumerate(BIG_PRIMES):
            for q in BIG_PRIMES[i:]:
                assert not primes.is_prime(p * q)
                assert not primes.is_prime(p * q * 3)
        for p in (89, 107, 127, 521):
            assert primes.is_prime(2**p - 1)

    def test_next_prime(self):
        for n in [-5, 0, 1, 2, 3, 7, 13, 89, 1000, 7918, 10**9, 2**61 - 2, BIG_PRIMES[0]]:
            assert primes.next_prime(n) == sympy.nextprime(n), n


class TestFactorint:
    def test_small_integers(self):
        for n in range(1, 3000):
            assert primes.factorint(n) == oracle(n)

    def test_orbit_values(self):
        # every prime factor of these is below the rho budget
        for c in (-3, -2, -1, 1, 2, 3):
            for n in range(1, 8):
                a = abs(critical_orbit_value(c, n))
                if a:
                    assert primes.factorint(a) == oracle(a), (c, n)

    def test_rho_splits_mid_size_factors(self):
        mid = [sympy.nextprime(2**b + 1000 * b) for b in (20, 24, 28, 31)]
        n = math.prod(mid) * BIG_PRIMES[-1] * 7**3
        assert primes.factorint(n) == {7: 3, **{p: 1 for p in mid}, BIG_PRIMES[-1]: 1}

    def test_hard_composite_exceeds_the_budget(self):
        """p * q has both prime factors past rho's reach (about 36 bits)."""
        p, q = sympy.nextprime(2**44 + 99), sympy.nextprime(2**46 + 77)
        assert (p * q).bit_length() == 91
        with pytest.raises(primes.FactoringBudget, match=r"\b91-bit\b"):
            primes.factorint(12 * p * q)

    def test_a9_of_x2_plus_2_exceeds_the_budget(self):
        """a_9 of x^2 + 2 is 2 * 19 * P96 * P236, checked by sympy.isprime and
        the product; rho splits off 2 and 19 and gives up on P96 * P236."""
        a9 = critical_orbit_value(2, 9)
        assert a9.bit_length() == 336
        assert all(sympy.isprime(p) for p in (A9_P96, A9_P236))
        assert 2 * 19 * A9_P96 * A9_P236 == a9
        assert (A9_P96 * A9_P236).bit_length() == 331
        with pytest.raises(primes.FactoringBudget, match=r"\b331-bit\b"):
            primes.factorint(a9)

    def test_cofactor_past_the_bit_bound_is_refused_before_any_test(self, monkeypatch):
        """A cofactor of more than MAX_FACTOR_BITS bits is refused before it
        reaches is_prime: a 687,957-bit orbit value of x^2 + 2 at level 20
        used to hang in a strong probable-prime test."""
        assert primes.MAX_FACTOR_BITS == 1024
        n = 6 * 1009**103  # 1009 lies past trial division
        assert (1009**103).bit_length() == 1028

        def never(m):
            raise AssertionError(f"is_prime({m.bit_length()} bits) was called")

        monkeypatch.setattr(primes, "is_prime", never)
        with pytest.raises(primes.FactoringBudget, match=r"\b1028-bit cofactor: above the "
                                                         r"1024-bit bound"):
            primes.factorint(n)

    def test_cofactor_at_the_bit_bound_is_factored(self):
        p = sympy.prevprime(2**1024)
        assert primes.factorint(12 * p) == {2: 2, 3: 1, p: 1}
        assert primes.factorint(1009**101) == {1009: 101}

    def test_rejects_nonpositive(self):
        for n in (0, -1, -12):
            with pytest.raises(ValueError):
                primes.factorint(n)


@pytest.fixture(scope="module")
def trace3(tmp_path_factory):
    """A 3-step trace for the verify and audit rows, written in process."""
    from arborsign.cli import main

    path = tmp_path_factory.mktemp("trace") / "t3.json"
    assert main(["simulate", "--steps", "3", "--height", "100", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize(
    "argv",
    [
        ["disc-seq", "--poly", "x^2-3", "--levels", "2"],
        ["simulate", "--steps", "3", "--height", "100", "--out", "{tmp}/t3.json"],
        ["index-report", "--poly", "x^2-7", "--level", "3", "--n", "32", "--primes", "40"],
        ["verify", "--trace", "{trace}"],
        ["audit", "--trace", "{trace}", "--level", "2"],
        ["vast-witness", "--stream", "disc:x^2+1:1", "--depth", "3", "--base", "-1"],
        ["group-order", "--arity", "3", "--depth", "2"],
    ],
)
def test_cli_runs_without_sympy(argv, tmp_path, trace3):
    """A cold CLI process never imports sympy (or numpy or mpmath): sympy is
    a test oracle, not a dependency of the package, and its import would
    dominate the start-up time.  Nor does it import dataclasses or inspect,
    which cost more than the program's own modules, or argparse, gettext and
    locale, which the CLI's own option table replaces, or fractions, which
    also loads decimal and numbers: rationals are integer numerators over a
    denominator.  Only index-report and group-order import treegroup, and
    only group-order supernat.  index-report runs the Frobenius scan, the
    only user of array, which no other command loads."""
    paths = [os.path.dirname(os.path.dirname(arborsign.__file__)), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    argv = [a.format(tmp=tmp_path, trace=trace3) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "arborsign.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    assert "arborsign.primes" in imported
    refused = ("sympy", "numpy", "mpmath", "dataclasses", "inspect", "argparse", "gettext",
               "locale", "fractions", "decimal", "numbers")
    assert not [m for m in imported if m.split(".")[0] in refused]
    if argv[0] not in ("index-report", "group-order"):
        assert "arborsign.treegroup" not in imported
    assert ("arborsign.supernat" in imported) == (argv[0] == "group-order")
    assert ("array" in imported) == (argv[0] == "index-report")
