import math
import random
from fractions import Fraction
from itertools import product

import pytest
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor_sqf, gf_irreducible_p, gf_mul, gf_sqf_p

from arborsign.exactpoly import (
    BadPrime,
    FactorDegreePattern,
    ParseError,
    RatPoly,
    compose,
    discriminant,
    factor_degrees_mod_p,
    iterate,
    resultant,
    squarefree_kernel,
    squarefree_kernel_support,
)

FIRST_100_PRIMES = [p for p in range(2, 542) if all(p % q for q in range(2, math.isqrt(p) + 1))]

# ---------------------------------------------------------------------------
# Independent oracles.  Everything here is implemented from scratch so the
# code under test shares no path with it.
# ---------------------------------------------------------------------------


def sylvester_resultant(f: RatPoly, g: RatPoly) -> Fraction:
    """Res(f, g) as the determinant of the Sylvester matrix, by Gaussian
    elimination over Fraction."""
    m, n = f.degree, g.degree
    N = m + n
    if N == 0:
        return Fraction(1)
    rows = []
    for i in range(n):
        row = [Fraction(0)] * N
        for j in range(m + 1):
            row[i + j] = f.coeff(m - j)
        rows.append(row)
    for i in range(m):
        row = [Fraction(0)] * N
        for j in range(n + 1):
            row[i + j] = g.coeff(n - j)
        rows.append(row)
    det = Fraction(1)
    for col in range(N):
        pivot = next((r for r in range(col, N) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, N):
            factor = rows[r][col] * inv
            if factor:
                for c in range(col, N):
                    rows[r][c] -= factor * rows[col][c]
    return det


def sylvester_discriminant(f: RatPoly) -> Fraction:
    n = f.degree
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * sylvester_resultant(f, f.derivative()) / f.lc


def _oracle_divmod_p(a, b, p):
    """(quotient, remainder) of coefficient lists mod p, divisor monic-lead."""
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], -1, p)
    while True:
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        c = a[-1] * inv % p
        s = len(a) - len(b)
        q[s] = c
        for i in range(len(b)):
            a[s + i] = (a[s + i] - c * b[i]) % p
    return q, a


def _oracle_mulmod(a, b, f, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _oracle_divmod_p([c % p for c in out], f, p)[1]


def _trimmed(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def oracle_factor_degrees(coeffs, p):
    """Factor degrees of a squarefree monic polynomial over GF(p) by
    exhaustive trial division, smallest degree first."""
    f = list(coeffs)
    out = []
    d = 1
    while len(f) - 1 >= 1:
        if d > (len(f) - 1) // 2:
            out.append(len(f) - 1)
            break
        found = False
        for tail in product(range(p), repeat=d):
            g = list(tail) + [1]
            q, r = _oracle_divmod_p(f, g, p)
            if not r:
                out.append(d)
                f = q
                found = True
                break
        if not found:
            d += 1
    return tuple(sorted(out))


def random_poly(rng, max_deg, *, fractions=False, min_deg=0):
    deg = rng.randint(min_deg, max_deg)
    coeffs = []
    for i in range(deg + 1):
        num = rng.randint(-9, 9)
        if i == deg:
            num = num or rng.choice([1, -1, 3])
        den = rng.randint(1, 4) if fractions else 1
        coeffs.append(Fraction(num, den))
    return RatPoly(coeffs)


# ---------------------------------------------------------------------------
# Ring and evaluation basics
# ---------------------------------------------------------------------------


class TestRatPolyBasics:
    def test_normalization_strips_leading_zeros(self):
        assert RatPoly((1, 2, 0, 0)).degree == 1
        assert RatPoly((0, 0)).is_zero

    def test_degree_conventions(self):
        assert RatPoly.zero().degree == -1
        assert RatPoly.constant(5).degree == 0
        assert RatPoly.x().degree == 1

    def test_lc_of_zero_raises(self):
        with pytest.raises(ValueError):
            RatPoly.zero().lc

    def test_evaluation(self):
        f = RatPoly.parse("x^2 - 3")
        assert f(2) == 1
        assert f(Fraction(1, 2)) == Fraction(-11, 4)

    def test_immutable(self):
        f = RatPoly.x()
        with pytest.raises(AttributeError):
            f.coeffs = ()

    def test_arithmetic(self):
        f = RatPoly.parse("x^2 + 1")
        g = RatPoly.parse("x - 1")
        assert f + g == RatPoly.parse("x^2 + x")
        assert f - f == RatPoly.zero()
        assert f * g == RatPoly.parse("x^3 - x^2 + x - 1")
        assert f.scale(Fraction(1, 2)) == RatPoly.parse("1/2*x^2 + 1/2")

    def test_derivative(self):
        assert RatPoly.parse("x^3 - 7*x + 2").derivative() == RatPoly.parse("3*x^2 - 7")
        assert RatPoly.constant(3).derivative() == RatPoly.zero()

    def test_str_round_trip(self):
        rng = random.Random(7)
        for _ in range(100):
            f = random_poly(rng, 5, fractions=True)
            if f.is_zero:
                continue
            assert RatPoly.parse(str(f)) == f


class TestComposeIterate:
    def test_compose_example(self):
        f = RatPoly.parse("x^2 + 1")
        assert compose(f, f) == RatPoly.parse("x^4 + 2*x^2 + 2")

    def test_compose_associative(self):
        rng = random.Random(11)
        for _ in range(30):
            f = random_poly(rng, 3)
            g = random_poly(rng, 3)
            h = random_poly(rng, 3)
            assert compose(compose(f, g), h) == compose(f, compose(g, h))

    def test_compose_is_substitution(self):
        rng = random.Random(13)
        for _ in range(30):
            f = random_poly(rng, 4, fractions=True)
            g = random_poly(rng, 4, fractions=True)
            q = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            assert compose(f, g)(q) == f(g(q))

    def test_iterate(self):
        f = RatPoly.parse("x^2 - 3")
        assert iterate(f, 0) == RatPoly.x()
        assert iterate(f, 1) == f
        assert iterate(f, 2) == compose(f, f)
        assert iterate(f, 3).degree == 8

    def test_iterate_rejects_bad_input(self):
        with pytest.raises(ValueError):
            iterate(RatPoly.parse("x^2"), -1)
        with pytest.raises(ValueError):
            iterate(RatPoly.constant(2), 2)


# ---------------------------------------------------------------------------
# Resultants and discriminants against the Sylvester oracle
# ---------------------------------------------------------------------------


class TestResultant:
    def test_known_values(self):
        f = RatPoly.parse("x^2 - 3")
        assert resultant(f, f.derivative()) == -12
        assert discriminant(f) == 12
        assert discriminant(RatPoly.parse("x^2 + 1")) == -4
        assert discriminant(iterate(RatPoly.parse("x^2 - 3"), 2)) == 13824

    def test_resultant_of_shared_root_vanishes(self):
        f = RatPoly.parse("x^2 - 1")
        g = RatPoly.parse("x - 1")
        assert resultant(f, g) == 0

    def test_sylvester_agreement_random(self):
        rng = random.Random(101)
        for _ in range(250):
            f = random_poly(rng, 5, fractions=True, min_deg=1)
            g = random_poly(rng, 5, fractions=True, min_deg=1)
            assert resultant(f, g) == sylvester_resultant(f, g)

    def test_resultant_multiplicative(self):
        rng = random.Random(103)
        for _ in range(50):
            f = random_poly(rng, 3, min_deg=1)
            g = random_poly(rng, 3, min_deg=1)
            h = random_poly(rng, 3, min_deg=1)
            assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)

    def test_swap_sign_rule(self):
        rng = random.Random(107)
        for _ in range(50):
            f = random_poly(rng, 4, min_deg=1)
            g = random_poly(rng, 4, min_deg=1)
            sign = (-1) ** (f.degree * g.degree)
            assert resultant(f, g) == sign * resultant(g, f)

    def test_quadratic_closed_form(self):
        rng = random.Random(109)
        for _ in range(200):
            a = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            assert discriminant(RatPoly((c, b, a))) == b * b - 4 * a * c

    def test_biquadratic_closed_form(self):
        # disc(x^4 + p x^2 + q) = 16 q (p^2 - 4q)^2
        rng = random.Random(113)
        for _ in range(200):
            p = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
            assert discriminant(RatPoly((q, 0, p, 0, 1))) == 16 * q * (p * p - 4 * q) ** 2

    def test_discriminant_requires_degree(self):
        with pytest.raises(ValueError):
            discriminant(RatPoly.constant(5))


# ---------------------------------------------------------------------------
# Squarefree kernels
# ---------------------------------------------------------------------------


class TestSquarefreeKernel:
    @pytest.mark.parametrize(
        "q, k",
        [(1, 1), (4, 1), (12, 3), (-4, -1), (13824, 6), (Fraction(3, 4), 3),
         (Fraction(-50, 27), -6), (Fraction(1, 2), 2)],
    )
    def test_known_values(self, q, k):
        assert squarefree_kernel(q) == k

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_kernel(0)

    def test_quotient_is_square(self):
        rng = random.Random(127)
        for _ in range(100):
            q = Fraction(rng.randint(-500, 500) or 1, rng.randint(1, 500))
            k = squarefree_kernel(q)
            ratio = q / k
            assert ratio > 0
            num, den = ratio.numerator, ratio.denominator
            assert math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den

    def test_invariant_under_square_scaling(self):
        rng = random.Random(131)
        for _ in range(100):
            q = Fraction(rng.randint(-99, 99) or 5, rng.randint(1, 20))
            r = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            assert squarefree_kernel(q * r * r) == squarefree_kernel(q)

    def test_support(self):
        k, primes = squarefree_kernel_support(Fraction(-60, 49))
        assert k == -15
        assert primes == (3, 5)


# ---------------------------------------------------------------------------
# Factor degrees mod p against the exhaustive oracle
# ---------------------------------------------------------------------------


class TestFactorDegrees:
    def test_known_patterns(self):
        f = RatPoly.parse("x^2 - 3")
        assert factor_degrees_mod_p(f, 11).degrees == (1, 1)
        assert factor_degrees_mod_p(f, 5).degrees == (2,)
        assert factor_degrees_mod_p(RatPoly.parse("x^2 + 1"), 3).degrees == (2,)

    def test_bad_primes(self):
        f = RatPoly.parse("x^2 - 3")
        with pytest.raises(BadPrime):
            factor_degrees_mod_p(f, 2)  # divides disc = 12
        with pytest.raises(BadPrime):
            factor_degrees_mod_p(f, 3)  # divides disc
        with pytest.raises(BadPrime):
            factor_degrees_mod_p(RatPoly.parse("1/5*x^2 + x + 1"), 5)
        with pytest.raises(ValueError):
            factor_degrees_mod_p(f, 4)

    def test_lcm(self):
        assert FactorDegreePattern((2, 3, 1), 7).lcm() == 6

    def test_oracle_agreement_random(self):
        rng = random.Random(137)
        checked = 0
        while checked < 120:
            p = rng.choice([2, 3, 5, 7])
            f = random_poly(rng, 4, min_deg=1)
            try:
                pattern = factor_degrees_mod_p(f, p)
            except BadPrime:
                continue
            from arborsign.exactpoly import reduce_mod_p

            fbar = reduce_mod_p(f, p)
            inv = pow(fbar[-1], -1, p)
            monic = [c * inv % p for c in fbar]
            assert pattern.degrees == oracle_factor_degrees(monic, p)
            assert sum(pattern.degrees) == f.degree
            checked += 1

    @pytest.mark.parametrize(
        "poly, level, stride",
        [("x^2 - 8", 4, 7), ("x^3 + x^2 + 2", 3, 7), ("x^2 - 2*x - 1", 5, 7), ("x^2 - 8", 6, 15),
         ("x^3 + x + 1", 3, 3), ("x^3 - 2*x + 5", 3, 3), ("x^5 - x - 1", 2, 3),
         ("x^6 + x + 1", 2, 3)],
    )
    def test_sympy_oracle_on_iterates(self, poly, level, stride):
        # degrees 16, 27, 32 and 64, the sizes certify scans, at primes up
        # to the 100th (541); bad primes are exactly the non-squarefree ones.
        # The last four reach Frobenius orders with many divisors, up to 72
        # at degree 27 and 120 and 180 at degrees 25 and 36, on both sides
        # of the degree, where the order walk gives way to a gcd per step
        f = iterate(RatPoly.parse(poly), level)
        coeffs = [int(c) for c in reversed(f.coeffs)]  # monic, integral
        checked = 0
        for p in FIRST_100_PRIMES[::stride] + [541]:
            fl = [c % p for c in coeffs]
            if not gf_sqf_p(fl, p, ZZ):
                with pytest.raises(BadPrime):
                    factor_degrees_mod_p(f, p)
                continue
            expected = tuple(sorted(len(g) - 1 for g in gf_factor_sqf(fl, p, ZZ)[1]))
            assert factor_degrees_mod_p(f, p).degrees == expected
            checked += 1
        assert checked >= 5

    @pytest.mark.parametrize(
        "p, degrees",
        [
            (7, (1, 1, 1)),  # order 1: no gcd at all
            (5, (7,)),  # irreducible: one gcd, at e = 1
            (3, (2, 2, 2)),  # order 2: three factors of the order
            (5, (1, 2, 3, 6, 6)),  # order 6: two factors of the order
            (7, (1, 1, 2, 3)),  # order 6: the cubic is left when 2 * 3 > 3
            (11, (2, 4, 3, 6)),  # order 12: the sextic is left when 2 * 6 > 6
            (3, (3, 4)),  # order 12 > 7: a gcd per step
            (13, (2, 3, 5)),  # order 30 > 10: a gcd per step
        ],
    )
    def test_each_way_the_scan_ends(self, p, degrees):
        """Products of distinct irreducibles of the given degrees mod p; the
        comments name the branch of factor_degrees_mod_p that finishes."""
        factors, seen = [], set()
        for m in degrees:
            for tail in product(range(p), repeat=m):
                g = [1, *tail]  # high to low, as galoistools keeps them
                if tuple(g) not in seen and gf_irreducible_p(g, p, ZZ):
                    seen.add(tuple(g))
                    factors.append(g)
                    break
        fl = [1]
        for g in factors:
            fl = gf_mul(fl, g, p, ZZ)
        f = RatPoly(reversed(fl))
        assert sorted(len(g) - 1 for g in gf_factor_sqf(fl, p, ZZ)[1]) == sorted(degrees)
        assert factor_degrees_mod_p(f, p).degrees == tuple(sorted(degrees))

    def test_sympy_oracle_at_word_size_primes(self):
        # primes on both sides of the largest ones whose residue products fit
        # 64-bit slots (n*(p-1)^2 + p < 2^64 for n = 2, 4), and near 2^61
        rng = random.Random(61)
        for p, degrees in [
            (2147483629, (2, 3, 4)),
            (2147483647, (2, 3, 4)),
            (2147483659, (4,)),
            (3037000493, (2,)),
            (3037000507, (2,)),
            (2305843009213693921, (2, 3, 4)),
            (2305843009213693951, (2, 3, 4)),
        ]:
            for n in degrees:
                for _ in range(4):
                    coeffs = [rng.randint(-(10**6), 10**6) for _ in range(n)] + [1]
                    fl = [c % p for c in reversed(coeffs)]
                    expected = tuple(sorted(len(g) - 1 for g in gf_factor_sqf(fl, p, ZZ)[1]))
                    assert factor_degrees_mod_p(RatPoly(coeffs), p).degrees == expected

    @pytest.mark.parametrize(
        "n, p",
        [
            (2, 3037000493),
            (2, 3037000507),
            (4, 2147483647),
            (4, 2147483659),
            (16, 1073741789),
            (16, 1073741827),
            (3, 2305843009213693951),
        ],
    )
    def test_packed_arithmetic_at_the_slot_bound(self, n, p):
        # residues with every coefficient p - 1 fill each slot of their
        # product and of the Frobenius sum to n*(p-1)^2; with
        # f = 1 + x + ... + x^n, x^n mod f has every coefficient p - 1 too
        _check_full_slots(n, p)

    @pytest.mark.parametrize(
        "n, p, width",
        [
            (2, 46337, 32),
            (2, 46349, 64),
            (16, 16381, 32),
            (16, 16411, 64),
            (27, 12613, 32),
            (27, 12619, 64),
            (64, 8191, 32),
            (64, 8209, 64),
        ],
    )
    def test_packed_arithmetic_at_the_32_bit_slot_bound(self, n, p, width):
        # the largest prime with n*(p-1)^2 + p < 2^32, which packs into
        # 32-bit slots, and the smallest prime past it, which takes 64
        from arborsign.exactpoly import _FrobeniusMap

        lo, hi = (p, sympy.nextprime(p)) if width == 32 else (sympy.prevprime(p), p)
        assert n * (lo - 1) ** 2 + lo < 2**32 <= n * (hi - 1) ** 2 + hi
        assert _FrobeniusMap([1] * (n + 1), p).width == width
        _check_full_slots(n, p)
        rng = random.Random(p)
        coeffs = [rng.randrange(p) for _ in range(n)] + [1]
        fl = list(reversed(coeffs))
        if gf_sqf_p(fl, p, ZZ):
            expected = tuple(sorted(len(g) - 1 for g in gf_factor_sqf(fl, p, ZZ)[1]))
            assert factor_degrees_mod_p(RatPoly(coeffs), p).degrees == expected


def _check_full_slots(n, p):
    """Products and Frobenius images of a residue whose every coefficient is
    p - 1, mod f = 1 + x + ... + x^n, against the schoolbook oracle."""
    from arborsign.exactpoly import _FrobeniusMap

    f = [1] * (n + 1)
    frobenius = _FrobeniusMap(f, p)
    top = [p - 1] * n
    assert _trimmed(frobenius._mul(top, top)) == _oracle_mulmod(top, top, f, p)
    power, base, e = [1], top, p
    while e:
        if e & 1:
            power = _oracle_mulmod(power, base, f, p)
        base = _oracle_mulmod(base, base, f, p)
        e >>= 1
    assert _trimmed(frobenius(top)) == power


# ---------------------------------------------------------------------------
# Parser errors
# ---------------------------------------------------------------------------


class TestParser:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("x^2-3", RatPoly((-3, 0, 1))),
            ("x^2 + 0*x - 3", RatPoly((-3, 0, 1))),
            ("1/2*x^3 + x - 7", RatPoly((-7, 1, 0, Fraction(1, 2)))),
            ("-x", RatPoly((0, -1))),
            ("- -x", RatPoly((0, 1))),
            ("3", RatPoly.constant(3)),
            ("x + x", RatPoly((0, 2))),
            ("2x", None),  # juxtaposition is allowed: "2x" parses as 2*x?
        ],
    )
    def test_accepts(self, text, expected):
        if expected is None:
            # coefficient directly followed by x (no '*') is accepted
            assert RatPoly.parse(text) == RatPoly((0, 2))
        else:
            assert RatPoly.parse(text) == expected

    @pytest.mark.parametrize(
        "text", ["", "x^^2", "x^", "x^-2", "+", "x 3", "x*x", "1/0", "x/2", "y + 1", "3 4"]
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            RatPoly.parse(text)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            RatPoly.parse("x^^2")
        assert exc.value.position == 2
