import math
import random
from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor_sqf, gf_irreducible_p, gf_mul, gf_sqf_p

from arborsign.exactpoly import (
    BadPrime,
    ParseError,
    RatPoly,
    compose,
    discriminant,
    factor_degrees_mod_p,
    iterate,
    reduce_mod_p,
    resultant,
    squarefree_kernel_support,
)

FIRST_100_PRIMES = [p for p in range(2, 542) if all(p % q for q in range(2, math.isqrt(p) + 1))]

# ---------------------------------------------------------------------------
# Independent oracles.  Everything here is implemented from scratch so the
# code under test shares no path with it.
# ---------------------------------------------------------------------------


def coeffs(f: RatPoly) -> list[Fraction]:
    """The coefficients of f, low to high, as Fractions."""
    return [Fraction(k, f.den) for k in f.nums]


def value(f: RatPoly, q) -> Fraction:
    """f(q) by Horner's rule over Fraction."""
    acc = Fraction(0)
    for c in reversed(coeffs(f)):
        acc = acc * q + c
    return acc


def sylvester_resultant(f: RatPoly, g: RatPoly) -> Fraction:
    """Res(f, g) as the determinant of the Sylvester matrix, by Gaussian
    elimination over Fraction."""
    m, n = f.degree, g.degree
    fc, gc = coeffs(f), coeffs(g)
    N = m + n
    if N == 0:
        return Fraction(1)
    rows = []
    for i in range(n):
        row = [Fraction(0)] * N
        for j in range(m + 1):
            row[i + j] = fc[m - j]
        rows.append(row)
    for i in range(m):
        row = [Fraction(0)] * N
        for j in range(n + 1):
            row[i + j] = gc[n - j]
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
    return sign * sylvester_resultant(f, f.derivative()) / coeffs(f)[-1]


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

    def test_zero_normal_form(self):
        assert (RatPoly.zero().nums, RatPoly.zero().den) == ((), 1)
        assert RatPoly((Fraction(0, 5), 0)) == RatPoly.zero()

    def test_evaluation(self):
        f = RatPoly.parse("x^2 - 3")
        assert value(f, 2) == 1
        assert value(f, Fraction(1, 2)) == Fraction(-11, 4)
        g = RatPoly((Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)))
        assert (g.nums, g.den) == ((6, -8, 15), 12)
        assert value(g, 2) == Fraction(1, 2) - Fraction(4, 3) + 5

    def test_immutable(self):
        f = RatPoly.x()
        with pytest.raises(AttributeError):
            f.nums = ()
        with pytest.raises(AttributeError):
            f.den = 2

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
            assert value(compose(f, g), q) == value(f, value(g, q))

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
        assert squarefree_kernel_support(q)[0] == k

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_kernel_support(0)[0]

    def test_quotient_is_square(self):
        rng = random.Random(127)
        for _ in range(100):
            q = Fraction(rng.randint(-500, 500) or 1, rng.randint(1, 500))
            k = squarefree_kernel_support(q)[0]
            ratio = q / k
            assert ratio > 0
            num, den = ratio.numerator, ratio.denominator
            assert math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den

    def test_invariant_under_square_scaling(self):
        rng = random.Random(131)
        for _ in range(100):
            q = Fraction(rng.randint(-99, 99) or 5, rng.randint(1, 20))
            r = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            assert squarefree_kernel_support(q * r * r)[0] == squarefree_kernel_support(q)[0]

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
        assert factor_degrees_mod_p(f, 11) == (1, 1)
        assert factor_degrees_mod_p(f, 5) == (2,)
        assert factor_degrees_mod_p(RatPoly.parse("x^2 + 1"), 3) == (2,)

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
        # the degrees come sorted, with multiplicity: x (x^2 + 1) (x^3 - 2) (x - 1)
        # mod 7, where -1 is no square and 2 no cube, has factors of degrees 1, 2, 3, 1
        f = RatPoly((0, 1)) * RatPoly((1, 0, 1)) * RatPoly((-2, 0, 0, 1)) * RatPoly((-1, 1))
        assert factor_degrees_mod_p(f, 7) == (1, 1, 2, 3)
        assert math.lcm(*factor_degrees_mod_p(f, 7)) == 6

    def test_oracle_agreement_random(self):
        rng = random.Random(137)
        checked = 0
        while checked < 120:
            p = rng.choice([2, 3, 5, 7])
            f = random_poly(rng, 4, min_deg=1)
            try:
                degrees = factor_degrees_mod_p(f, p)
            except BadPrime:
                continue
            from arborsign.exactpoly import reduce_mod_p

            fbar = reduce_mod_p(f, p)
            inv = pow(fbar[-1], -1, p)
            monic = [c * inv % p for c in fbar]
            assert degrees == oracle_factor_degrees(monic, p)
            assert sum(degrees) == f.degree
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
        assert f.den == f.nums[-1] == 1  # monic, integral
        checked = 0
        for p in FIRST_100_PRIMES[::stride] + [541]:
            fl = [c % p for c in reversed(f.nums)]
            if not gf_sqf_p(fl, p, ZZ):
                with pytest.raises(BadPrime):
                    factor_degrees_mod_p(f, p)
                continue
            expected = tuple(sorted(len(g) - 1 for g in gf_factor_sqf(fl, p, ZZ)[1]))
            assert factor_degrees_mod_p(f, p) == expected
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
        assert factor_degrees_mod_p(f, p) == tuple(sorted(degrees))

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
                    assert factor_degrees_mod_p(RatPoly(coeffs), p) == expected

    @pytest.mark.parametrize(
        "n, p",
        [
            (2, 2642239),
            (2, 2642257),
            (4, 1454081),
            (4, 1454099),
            (16, 535679),
            (16, 535697),
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
        # the first six: the largest prime whose map bound is below 2^64,
        # which packs into 64-bit slots, and the smallest prime past it,
        # which takes 128; the rest are word-size primes on the wide path.
        # residues with every coefficient p - 1 fill each slot of their
        # product and of the Frobenius sum to n*(p-1)^2; with
        # f = 1 + x + ... + x^n, x^n mod f has every coefficient p - 1 too
        _check_full_slots(n, p)

    @pytest.mark.parametrize(
        "n, p, width",
        [
            (2, 1621, 32),
            (2, 1627, 64),
            (16, 317, 32),
            (16, 331, 64),
            (27, 229, 32),
            (27, 233, 64),
            (64, 127, 32),
            (64, 131, 64),
        ],
    )
    def test_packed_arithmetic_at_the_32_bit_slot_bound(self, n, p, width):
        # the largest prime whose map bound is below 2^32, which packs into
        # 32-bit slots, and the smallest prime past it, which takes 64
        from arborsign.exactpoly import _FrobeniusMap

        lo, hi = (p, sympy.nextprime(p)) if width == 32 else (sympy.prevprime(p), p)
        assert _map_bound(n, lo) < 2**32 <= _map_bound(n, hi)
        assert _FrobeniusMap([1] * (n + 1), p).width == width
        _check_full_slots(n, p)
        rng = random.Random(p)
        coeffs = [rng.randrange(p) for _ in range(n)] + [1]
        fl = list(reversed(coeffs))
        if gf_sqf_p(fl, p, ZZ):
            expected = tuple(sorted(len(g) - 1 for g in gf_factor_sqf(fl, p, ZZ)[1]))
            assert factor_degrees_mod_p(RatPoly(coeffs), p) == expected


def _map_bound(n, p):
    """The largest slot value of the Frobenius map's packing: a reduction
    sums n multiples, each below p, of table entries x^(n+j) mod f, whose
    unreduced slots are at most q + j*q^2, onto a product's low half of at
    most n*q^2 per slot (q = p - 1)."""
    q = p - 1
    return n * q * q + sum(q * (q + j * q * q) for j in range(n))


def _slots(v, width, count):
    """The first `count` slots of a packed value, unreduced."""
    return [v >> (i * width) & ((1 << width) - 1) for i in range(count)]


def _check_full_slots(n, p):
    """Products and Frobenius images of a residue whose every coefficient is
    p - 1, mod f = 1 + x + ... + x^n, against the schoolbook oracle; the
    folded table x^(n+j) mod f within its unreduced slot bound; and the slot
    width the smallest that holds the map's bound."""
    from arborsign.exactpoly import _FrobeniusMap

    f = [1] * (n + 1)
    frobenius = _FrobeniusMap(f, p)
    bits = _map_bound(n, p).bit_length()
    w = frobenius.width
    assert w == (32 if bits <= 32 else 64 * -(-bits // 64))
    q = p - 1
    for j, entry in enumerate(frobenius.table):
        raw = _slots(entry, w, n)
        assert entry >> n * w == 0 and max(raw) <= q + j * q * q
        assert _trimmed(c % p for c in raw) == _oracle_divmod_p([0] * (n + j) + [1], f, p)[1]
    top = [p - 1] * n
    assert _trimmed(frobenius._mul(top, top)) == _oracle_mulmod(top, top, f, p)
    power, base, e = [1], top, p
    while e:
        if e & 1:
            power = _oracle_mulmod(power, base, f, p)
        base = _oracle_mulmod(base, base, f, p)
        e >>= 1
    assert _trimmed(frobenius(top)) == power


def _oracle_gcd_p(a, b, p):
    """Monic gcd of coefficient lists mod p by schoolbook Euclid."""
    a, b = _trimmed(a), _trimmed(b)
    while b:
        a, b = b, _oracle_divmod_p(a, b, p)[1]
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _oracle_mul_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


class TestPackedEuclid:
    """The packed division and gcd over GF(p) against the schoolbook list
    versions above, at the degree bound n the packing is made for."""

    N = 16
    # 2 and 3; 541, the 100th prime, the largest certify scans; the largest
    # prime whose Euclid bound is below 2^32 and the smallest past it; and
    # 2^61 - 1, whose 256-bit slots take the pack path without a typecode
    PRIMES = (2, 3, 541, 61, 67, 2305843009213693951)

    def test_the_32_bit_slot_bound(self):
        from arborsign.exactpoly import _Euclid

        def bound(p):  # the largest dividend slot times the reciprocal
            q = p - 1
            top = q + (self.N // 2 + 1) * q * q
            return top * -(-(1 << top.bit_length() + p.bit_length()) // p)

        assert bound(61) < 2**32 <= bound(67) and sympy.nextprime(61) == 67
        assert [_Euclid(self.N, p).width for p in self.PRIMES] == [32, 32, 64, 32, 64, 256]
        assert _Euclid(self.N, 2305843009213693951).typecode is None

    @staticmethod
    def _inputs(p, n, rng):
        """(a, b) pairs: random ones, every coefficient p - 1 over a divisor
        of degree 1 (the most steps in one division), and dividends whose
        every step cancels with c = p - 1 against an all-(p - 1) divisor of
        degree n/2, low slots starting at p - 1 (the most additions to one
        slot)."""
        q = p - 1
        pairs = [([q] * (n + 1), [q, q]), ([q] * (n + 1), [q] * (n // 2 + 1))]
        for m in (1, n // 2, n - 1):
            b = [q] * (m + 1)
            a = _oracle_mul_p([1] * (n - m + 1), b, p)
            pairs.append(([q] * m + a[m:], b))
        for _ in range(12):
            da, db = rng.randint(0, n), rng.randint(0, n)
            a = [rng.randrange(p) for _ in range(da)] + [rng.randrange(1, p)]
            b = [rng.randrange(p) for _ in range(db)] + [rng.randrange(1, p)]
            pairs.append((a, b))
        return pairs

    @pytest.mark.parametrize("p", PRIMES)
    def test_rem_matches_schoolbook_division(self, p):
        from arborsign.exactpoly import _Euclid

        gf = _Euclid(self.N, p)
        for a, b in self._inputs(p, self.N, random.Random(p)):
            quotient, remainder = _oracle_divmod_p(a, b, p)
            r, cs = gf._rem(gf._pack(a), len(a) - 1, gf._pack(b), len(b) - 1)
            assert _trimmed(gf._unpack(r, len(b) - 1)) == remainder
            assert r == gf._pack(remainder)  # packed and reduced
            assert _trimmed([-c % p for c in reversed(cs)]) == _trimmed(quotient)

    @pytest.mark.parametrize("p", PRIMES)
    def test_gcd_matches_schoolbook_euclid(self, p):
        from arborsign.exactpoly import _Euclid, _gf_gcd

        gf = _Euclid(self.N, p)
        rng = random.Random(p + 1)
        pairs = self._inputs(p, self.N, rng)
        for _ in range(12):  # a common factor of degree up to 5
            g = [rng.randrange(p) for _ in range(rng.randint(0, 5))] + [1]
            a = _oracle_mul_p(g, [rng.randrange(p) for _ in range(6)] + [1], p)
            b = _oracle_mul_p(g, [rng.randrange(p) for _ in range(5)] + [1], p)
            pairs.append((a, b))
        pairs += [([], [3 % p or 1]), ([1, 1], []), ([], [])]
        for a, b in pairs:
            assert _gf_gcd(a, b, gf) == _oracle_gcd_p(a, b, p)
            assert _gf_gcd(b, a, gf) == _oracle_gcd_p(b, a, p)

    @pytest.mark.parametrize("p", PRIMES)
    def test_divexact_matches_schoolbook_division(self, p):
        from arborsign.exactpoly import _Euclid, _gf_divexact

        gf = _Euclid(self.N, p)
        for a, b in self._inputs(p, self.N, random.Random(p + 2)):
            quotient, remainder = _oracle_divmod_p(a, b, p)
            if len(a) >= len(b):
                product = _trimmed(_oracle_mul_p(quotient, b, p))
                assert _gf_divexact(product, b, gf) == _trimmed(quotient)
            if remainder:
                with pytest.raises(ArithmeticError):
                    _gf_divexact(a, b, gf)


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

    def test_exponent_bound(self):
        assert RatPoly.parse("x^10000 - 1").degree == 10000
        with pytest.raises(ParseError) as exc:
            RatPoly.parse("x + x^10001")
        assert exc.value.position == 6

    @pytest.mark.parametrize("text, position", [
        ("x^2 + " + "9" * 5000, 6), ("1/" + "7" * 4301 + "*x", 2), ("x^" + "1" * 4400, 2),
    ])
    def test_literal_past_the_digit_limit(self, text, position):
        with pytest.raises(ParseError) as exc:
            RatPoly.parse(text)
        assert exc.value.position == position


# ---------------------------------------------------------------------------
# The integer normal form against a Fraction-coefficient oracle
# ---------------------------------------------------------------------------


class FracPoly:
    """Oracle: a polynomial as a tuple of Fraction coefficients, low to high
    and trimmed, with schoolbook arithmetic on them."""

    def __init__(self, cs):
        cs = [Fraction(c) for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.cs = tuple(cs)

    def at(self, i):
        return self.cs[i] if i < len(self.cs) else Fraction(0)

    def __add__(self, other):
        return FracPoly(self.at(i) + other.at(i)
                        for i in range(max(len(self.cs), len(other.cs))))

    def __sub__(self, other):
        return FracPoly(self.at(i) - other.at(i)
                        for i in range(max(len(self.cs), len(other.cs))))

    def __mul__(self, other):
        out = [Fraction(0)] * (len(self.cs) + len(other.cs))
        for i, a in enumerate(self.cs):
            for j, b in enumerate(other.cs):
                out[i + j] += a * b
        return FracPoly(out)

    def scale(self, q):
        return FracPoly(c * q for c in self.cs)

    def derivative(self):
        return FracPoly([i * c for i, c in enumerate(self.cs)][1:])

    def compose(self, f):
        acc = FracPoly(())
        for c in reversed(self.cs):
            acc = acc * f + FracPoly((c,))
        return acc

    def __str__(self):
        parts = []
        for i in range(len(self.cs) - 1, -1, -1):
            c = self.cs[i]
            if c == 0:
                continue
            mag = abs(c)
            xpow = "" if i == 0 else "x" if i == 1 else f"x^{i}"
            body = str(mag) if i == 0 else xpow if mag == 1 else f"{mag}*{xpow}"
            if parts:
                parts.append(f" {'-' if c < 0 else '+'} {body}")
            else:
                parts.append(f"-{body}" if c < 0 else body)
        return "".join(parts) or "0"

    def reduce_mod_p(self, p):
        out = []
        for c in self.cs:
            if c.denominator % p == 0:
                raise BadPrime(f"{p} divides a coefficient denominator")
            out.append(c.numerator * pow(c.denominator, -1, p) % p)
        if out and out[-1] == 0:
            raise BadPrime(f"{p} divides the leading coefficient")
        return out


def as_oracle(f: RatPoly) -> FracPoly:
    return FracPoly(coeffs(f))


_FRACTIONS = st.one_of(
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
    st.fractions(max_denominator=10**30),
    st.integers(-(10**40), 10**40),
)
_COEFFS = st.lists(_FRACTIONS, max_size=6)


class TestIntegerNormalForm:
    """RatPoly keeps integer numerators over one denominator; every result
    must be the oracle's, in the unique normal form."""

    @staticmethod
    def check(f: RatPoly, expected: FracPoly):
        assert f.den > 0 and math.gcd(f.den, *f.nums) == 1
        assert not f.nums or f.nums[-1] != 0
        assert as_oracle(f).cs == expected.cs

    @settings(max_examples=200, deadline=None)
    @given(_COEFFS, _COEFFS, _FRACTIONS)
    def test_ring_operations(self, a, b, q):
        f, g = RatPoly(a), RatPoly(b)
        F, G = FracPoly(a), FracPoly(b)
        self.check(f, F)
        self.check(f + g, F + G)
        self.check(f - g, F - G)
        self.check(f * g, F * G)
        self.check(f.scale(q), F.scale(Fraction(q)))
        self.check(f.derivative(), F.derivative())

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_FRACTIONS, max_size=4), st.lists(_FRACTIONS, max_size=4),
           st.integers(0, 3))
    def test_compose_and_iterate(self, a, b, k):
        f, g = RatPoly(a), RatPoly(b)
        self.check(compose(f, g), FracPoly(a).compose(FracPoly(b)))
        if g.degree >= 1 and g.degree ** k <= 27:
            expected = FracPoly((0, 1))
            for _ in range(k):
                expected = FracPoly(b).compose(expected)
            self.check(iterate(g, k), expected)

    @settings(max_examples=200, deadline=None)
    @given(_COEFFS, _COEFFS)
    def test_str_parse_eq_hash(self, a, b):
        f, g = RatPoly(a), RatPoly(b)
        assert str(f) == str(FracPoly(a))
        assert RatPoly.parse(str(f)) == f
        same = FracPoly(a).cs == FracPoly(b).cs
        assert (f == g) == same
        if same:
            assert hash(f) == hash(g)
        # the same polynomial from ints, Fractions and a sum of parts is equal
        # and hashes equal
        parts = RatPoly()
        for i, c in enumerate(a):
            parts = parts + RatPoly([0] * i + [c])
        assert parts == f and hash(parts) == hash(f)

    @settings(max_examples=200, deadline=None)
    @given(_COEFFS, st.sampled_from([2, 3, 5, 7, 11, 13, 10**9 + 7]))
    def test_reduce_mod_p(self, a, p):
        try:
            expected = FracPoly(a).reduce_mod_p(p)
        except BadPrime as exc:
            with pytest.raises(BadPrime) as got:
                reduce_mod_p(RatPoly(a), p)
            assert str(got.value) == str(exc)
        else:
            assert reduce_mod_p(RatPoly(a), p) == expected
