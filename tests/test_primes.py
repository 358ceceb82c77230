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
A9_P96 = 52620199682331825683759180339
A9_P236 = 66750716662090170276974222628466557246502370193449249855587545971364539


def critical_orbit_value(c: int, n: int) -> int:
    a = 0
    for _ in range(n):
        a = a * a + c
    return a


_sympy_factorint = sympy.factorint  # the oracle, kept from the fixtures' patches


def oracle(n: int) -> dict[int, int]:
    return {int(p): int(e) for p, e in sorted(_sympy_factorint(n).items())}


@pytest.fixture
def no_fallback(monkeypatch):
    def refuse(n, *args, **kwargs):
        raise AssertionError(f"fallback called on a {int(n).bit_length()}-bit integer")

    monkeypatch.setattr(sympy, "factorint", refuse)


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
    def test_small_integers(self, no_fallback):
        for n in range(1, 3000):
            assert primes.factorint(n) == oracle(n)

    def test_orbit_values(self, no_fallback):
        # every prime factor of these is below the rho budget
        for c in (-3, -2, -1, 1, 2, 3):
            for n in range(1, 8):
                a = abs(critical_orbit_value(c, n))
                if a:
                    assert primes.factorint(a) == oracle(a), (c, n)

    def test_rho_splits_mid_size_factors(self, no_fallback):
        mid = [sympy.nextprime(2**b + 1000 * b) for b in (20, 24, 28, 31)]
        n = math.prod(mid) * BIG_PRIMES[-1] * 7**3
        assert primes.factorint(n) == {7: 3, **{p: 1 for p in mid}, BIG_PRIMES[-1]: 1}

    def test_hard_composite_goes_to_sympy(self, monkeypatch):
        p, q = sympy.nextprime(2**44 + 99), sympy.nextprime(2**46 + 77)
        calls = []
        real = sympy.factorint

        def recording(n, *args, **kwargs):
            calls.append(n)
            return real(n, *args, **kwargs)

        monkeypatch.setattr(sympy, "factorint", recording)
        assert primes.factorint(12 * p * q) == {2: 2, 3: 1, p: 1, q: 1}
        assert calls == [p * q]

    def test_a9_of_x2_plus_2_goes_to_sympy(self, monkeypatch):
        """a_9 of x^2 + 2 is 2 * 19 * P96 * P236.  sympy.factorint needs about
        95 s for P96 * P236 on a 2-core host, so its answer is pinned here and
        checked by sympy.isprime and the product."""
        a9 = critical_orbit_value(2, 9)
        assert a9.bit_length() == 336
        pinned = {A9_P96: 1, A9_P236: 1}
        assert all(sympy.isprime(p) for p in pinned) and 2 * 19 * A9_P96 * A9_P236 == a9
        calls = []

        def pinned_factorint(n, *args, **kwargs):
            calls.append(n)
            assert n == A9_P96 * A9_P236
            return pinned

        monkeypatch.setattr(sympy, "factorint", pinned_factorint)
        assert primes.factorint(a9) == {2: 1, 19: 1, A9_P96: 1, A9_P236: 1}
        assert calls == [A9_P96 * A9_P236]

    def test_rejects_nonpositive(self):
        for n in (0, -1, -12):
            with pytest.raises(ValueError):
                primes.factorint(n)


@pytest.mark.parametrize(
    "argv",
    [
        ["disc-seq", "--poly", "x^2-3", "--levels", "2"],
        ["simulate", "--steps", "3", "--height", "100", "--out", "{tmp}/t3.json"],
    ],
)
def test_cli_runs_without_sympy(argv, tmp_path):
    """A cold CLI process never imports sympy on these inputs; its import
    dominated the start-up time."""
    paths = [os.path.dirname(os.path.dirname(arborsign.__file__)), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    argv = [a.format(tmp=tmp_path) for a in argv]
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
    assert not [m for m in imported if m.split(".")[0] == "sympy"]
