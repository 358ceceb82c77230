import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor_sqf, gf_sqf_p

from arborsign import arboreal
from arborsign.arboreal import (
    Inseparable,
    _level_sign,
    disc_class,
    disc_class_sequence,
    disc_stream,
    discriminant_subextension,
    index_report,
    killed_signs,
    splitting_degree_lower_bound,
)
from arborsign.exactpoly import (
    RatPoly,
    discriminant,
    frobenius_order_mod_p,
    iterate,
    resultant,
    squarefree_kernel_support,
)
from arborsign.primes import ResourceBound
from arborsign.sqclass import ClassSubspace, class_of, kernel, same_class
from arborsign.treegroup import all_portraits, group_order, leaf_permutation

X2M3 = RatPoly.parse("x^2 - 3")
X2P1 = RatPoly.parse("x^2 + 1")


class TestDiscClass:
    def test_known_sequences(self):
        assert [kernel(c) for c in disc_class_sequence(X2M3, 2)] == [3, 6]
        assert [kernel(c) for c in disc_class_sequence(X2P1, 2)] == [-1, 2]

    def test_fast_path_agrees_with_generic_discriminant(self):
        # the critical-orbit shortcut vs. the resultant-based discriminant
        for f in (X2M3, X2P1, RatPoly.parse("x^2 + 2"), RatPoly.parse("x^2 - 7/4")):
            for n in range(1, 5):
                d = discriminant(iterate(f, n))
                assert kernel(disc_class(f, n)) == squarefree_kernel_support(d)[0]

    def test_generic_path_on_non_centered_quadratic(self):
        f = RatPoly.parse("x^2 + x + 1")  # not of the x^2 + c shape
        for n in (1, 2, 3):
            d = discriminant(iterate(f, n))
            assert kernel(disc_class(f, n)) == squarefree_kernel_support(d)[0]

    def test_quartic_with_short_remainder(self):
        # f mod f' = -15/4 x - 1 has degree d - 3, so lc(f')^(d - deg R_1) is an odd power
        f = RatPoly.parse("-5*x^4 - 5*x - 1")
        assert [kernel(disc_class(f, n)) for n in (1, 2)] == [-15595, 89746729297277105]
        for n in (1, 2):
            assert same_class(disc_class(f, n), class_of(discriminant(iterate(f, n))))

    def test_cubic(self):
        f = RatPoly.parse("x^3 - 2")
        assert kernel(disc_class(f, 1)) == squarefree_kernel_support(-108)[0]
        # odd degree: each level carries the class of the level below
        for n in (2, 3):
            assert same_class(disc_class(f, n), class_of(discriminant(iterate(f, n))))

    def test_inseparable_levels(self):
        with pytest.raises(Inseparable) as exc:
            disc_class(RatPoly.parse("x^2"), 1)
        assert exc.value.level == 1
        with pytest.raises(Inseparable) as exc:
            disc_class(RatPoly.parse("x^2 - 1"), 3)  # orbit -1, 0: dies at level 2
        assert exc.value.level == 2
        with pytest.raises(Inseparable) as exc:
            # R_1 = -2/9 x is nonzero, but shares the root 0 with f'
            disc_class(RatPoly.parse("x^3 + x^2"), 2)
        assert exc.value.level == 1

    def test_sequence_at_level(self):
        seq = disc_class_sequence(X2M3, 3)
        assert len(seq) == 3
        assert kernel(seq[0]) == 3
        assert kernel(seq[2]) == kernel(disc_class(X2M3, 3))

    def test_recomputation_idempotent(self):
        seq = disc_class_sequence(X2P1, 4)
        for n in range(1, 5):
            assert seq[n - 1] == disc_class(X2P1, n)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            disc_class(RatPoly.x(), 1)
        with pytest.raises(ValueError):
            disc_class(X2M3, 0)
        with pytest.raises(ValueError):
            disc_class_sequence(X2M3, 0)


def _generic_class(f, n):
    """(None, class of disc(f^(on))) from the composed iterate, or (m, None)
    for the first inseparable level m."""
    for m in range(1, n + 1):
        d = discriminant(iterate(f, m))
        if d == 0:
            return m, None
    return None, class_of(d)


_RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=4)
# deepest level at which the composed iterate's discriminant takes about 1 s
_GENERIC_DEPTH = {2: 4, 3: 3}


@st.composite
def _polys(draw, max_degree=6):
    d = draw(st.integers(2, max_degree))
    coeffs = draw(st.lists(_RATIONALS, min_size=d, max_size=d))
    return RatPoly([*coeffs, draw(_RATIONALS.filter(bool))])


class TestCriticalOrbitIdentity:
    @settings(max_examples=80, deadline=None)
    @given(_polys(), st.data())
    def test_agrees_with_generic_discriminant(self, f, data):
        n = data.draw(st.integers(1, _GENERIC_DEPTH.get(f.degree, 2)))
        level, expected = _generic_class(f, n)
        if level is not None:
            with pytest.raises(Inseparable) as exc:
                disc_class(f, n)
            assert exc.value.level == level
        else:
            assert same_class(disc_class(f, n), expected)

    def test_level_signs_pinned(self):
        table = {d: [_level_sign(d, n) for n in (1, 2, 3)] for d in range(2, 7)}
        assert table == {
            2: [-1, 1, 1], 3: [-1, -1, -1], 4: [1, 1, 1], 5: [1, 1, 1], 6: [-1, 1, 1],
        }

    @pytest.mark.parametrize("poly, depth", [
        ("3*x^2 - x + 1/2", 3), ("-2*x^3 + x^2 - 3", 2), ("x^4 + 2*x - 1", 2),
        ("1/2*x^5 - x^3 + 1", 2), ("x^6 - x + 3", 2),
    ])
    def test_exact_identity(self, poly, depth):
        """disc(f^(on)) = s_n a^(dE(E-1)-1) disc(f^(o(n-1)))^d Res(f', f^(on)),
        exactly, with E = d^(n-1)."""
        f = RatPoly.parse(poly)
        d, a = f.degree, Fraction(f.nums[-1], f.den)
        prev = 1
        for n in range(1, depth + 1):
            E = d ** (n - 1)
            disc = discriminant(iterate(f, n))
            res = resultant(f.derivative(), iterate(f, n))
            assert disc == _level_sign(d, n) * a ** (d * E * (E - 1) - 1) * prev**d * res
            prev = disc


def _stickelberger_mismatches(cases) -> tuple[int, list]:
    """(checks, mismatches) of Stickelberger's parity (Stickelberger 1897;
    Swan, Pacific J. Math. 12, 1962) on disc_class: for an odd prime p that
    divides neither lc(f^(on)) nor the class integer c, with f^(on)
    squarefree mod p, (c / p) = (-1)^(d^n - r), r the number of irreducible
    factors of f^(on) mod p.  sympy composes and factors the iterate, so no
    resultant of exactpoly's is read.  `cases` holds (poly, levels, primes)."""
    x = sympy.Symbol("x")
    checks, mismatches = 0, []
    for poly, levels, bound in cases:
        f = sympy.Poly(sympy.sympify(poly.replace("^", "**")), x)
        fn, g = f, RatPoly.parse(poly)
        for n in range(1, levels + 1):
            c = disc_class(g, n)
            for p in sympy.primerange(3, bound):
                reduced = sympy.Poly(fn.as_expr(), x, modulus=p)
                if fn.LC() % p == 0 or c % p == 0 or not reduced.is_sqf:
                    continue
                r = len(reduced.factor_list()[1])
                checks += 1
                if sympy.legendre_symbol(c % p, p) != (-1) ** (fn.degree() - r):
                    mismatches.append((poly, n, p))
            fn = f.compose(fn)
    return checks, mismatches


STICKELBERGER_CASES = [
    *((f"x^2 + {c}", 5, 50) for c in (1, 2, -3, 5)),
    *((poly, 3, 30) for poly in ("x^3 + x + 1", "x^3 - x + 2", "x^3 + x^2 - 1")),
]


class TestStickelbergerParity:
    """An oracle for disc_class that shares no code with it: the parity of
    the number of factors of f^(on) mod p."""

    def test_class_has_the_parity_of_the_factor_count(self):
        checks, mismatches = _stickelberger_mismatches(STICKELBERGER_CASES)
        assert (checks, mismatches) == (314, [])

    def test_the_check_finds_a_wrong_level_sign(self, monkeypatch):
        """With s_n negated every class of x^2 + c is off by -1, which the
        parity sees at each p = 3 mod 4: 137 of the 246 checks fail."""
        sign = arboreal._level_sign
        monkeypatch.setattr(arboreal, "_level_sign", lambda d, n: -sign(d, n))
        arboreal._critical_orbit.cache_clear()
        try:
            checks, mismatches = _stickelberger_mismatches(STICKELBERGER_CASES[:4])
        finally:
            arboreal._critical_orbit.cache_clear()  # no later test reads a poisoned class
        assert (checks, len(mismatches)) == (246, 137)


class TestDiscStream:
    def test_offsets(self):
        s = disc_stream(X2P1, 2)
        assert [kernel(c) for c in s.prefix(3)] == [2, 5, 26]
        assert s.name == "disc:x^2 + 1:2"

    def test_start_level_validated(self):
        with pytest.raises(ValueError):
            disc_stream(X2P1, 0)

    @pytest.mark.parametrize("poly", ["x + 1", "3"])
    def test_degree_validated(self, poly):
        with pytest.raises(ValueError):
            disc_stream(RatPoly.parse(poly), 1)


class TestSubextension:
    def test_examples(self):
        assert discriminant_subextension(X2P1, ClassSubspace(), 1, 2).kernels() == [-1, 2]
        base = ClassSubspace.from_kernels([-1])
        assert discriminant_subextension(X2P1, base, 1, 2).kernels() == [-1, 2]
        assert discriminant_subextension(X2M3, ClassSubspace(), 2, 2).kernels() == [6]

    def test_window_validated(self):
        with pytest.raises(ValueError):
            discriminant_subextension(X2P1, ClassSubspace(), 2, 1)


class TestKilledSigns:
    def test_example(self):
        F = ClassSubspace.from_kernels([3, 6])
        assert killed_signs(X2M3, F, 2) == frozenset({1, 2})

    def test_empty_over_rationals(self):
        assert killed_signs(X2M3, ClassSubspace(), 2) == frozenset()

    def test_monotone_in_field(self):
        F = ClassSubspace.from_kernels([3])
        G = ClassSubspace.from_kernels([3, 6])
        assert killed_signs(X2M3, F, 3) <= killed_signs(X2M3, G, 3)

    def test_level_one_root_criterion(self):
        # killed at level 1 over span(disc class) iff disc is a square there;
        # for x^2 - 4 the disc 16 is already a rational square and f has roots
        f = RatPoly.parse("x^2 + x - 2")  # disc 9, roots 1 and -2
        assert 1 in killed_signs(f, ClassSubspace(), 1)


class TestSplittingDegree:
    def test_level_one(self):
        assert splitting_degree_lower_bound(X2P1, 1, 10) == 2

    def test_level_two(self):
        b = splitting_degree_lower_bound(X2P1, 2, 50)
        assert b == 4
        assert group_order(2, 2) % b == 0

    def test_x2_minus_2(self):
        assert splitting_degree_lower_bound(RatPoly.parse("x^2 - 2"), 1, 10) == 2

    def test_monotone_in_budget(self):
        prev = 1
        for budget in (2, 3, 10, 25):
            cur = splitting_degree_lower_bound(X2P1, 2, budget)
            assert cur % prev == 0 and cur >= prev
            prev = cur

    def test_no_good_primes(self):
        # the only inspected prime (2) divides disc(x^2 - 3) = 12
        with pytest.raises(ResourceBound, match="^no good prime among the first 1$"):
            splitting_degree_lower_bound(X2M3, 1, 1)

    def test_inseparable_propagates(self):
        with pytest.raises(Inseparable):
            splitting_degree_lower_bound(RatPoly.parse("x^2"), 1, 10)

    @pytest.mark.parametrize(
        "poly, level, budget, bound",
        [("x^2 - 8", 6, 30, 64), ("x^2 - 2*x - 1", 5, 50, 32), ("x^3 + x^2 + 2", 3, 40, 216)],
    )
    def test_pinned_heavy_scans(self, poly, level, budget, bound):
        # the heaviest index-report shapes of the benchmark's certify mix;
        # the same bounds come from sympy's gf_factor_sqf over these primes
        assert splitting_degree_lower_bound(RatPoly.parse(poly), level, budget) == bound

    @pytest.mark.parametrize("d, k", [(2, 3), (3, 2)])
    def test_exponent_of_aut_t(self, d, k):
        """lcm(1..d)^k, where the scan stops, is the lcm of the orders of all
        elements of Aut T_k(d), by exhaustion over the portraits."""
        orders = {_order(leaf_permutation(g, k)) for g in all_portraits(d, k)}
        assert math.lcm(*orders) == math.lcm(*range(1, d + 1)) ** k

    @settings(max_examples=40, deadline=None)
    @given(_polys(max_degree=4), st.integers(1, 3), st.integers(1, 12))
    def test_agrees_with_the_full_scan(self, f, k, budget):
        try:
            expected = _full_scan_bound(f, k, budget)
        except Inseparable:
            with pytest.raises(Inseparable):
                splitting_degree_lower_bound(f, k, budget)
            return
        if expected is None:
            with pytest.raises(ResourceBound, match=f"^no good prime among the first {budget}$"):
                splitting_degree_lower_bound(f, k, budget)
        else:
            assert splitting_degree_lower_bound(f, k, budget) == expected

    @pytest.mark.parametrize("poly, bound, calls", [("x^2 - 13", 64, 5), ("x^2 + 14", 32, 30)])
    def test_scan_stops_at_the_exponent(self, monkeypatch, poly, bound, calls):
        # x^2 - 13 reaches 2^6 = 64 at the fifth prime; x^2 + 14 stays at 32
        seen = []

        def counted(f, p):
            seen.append(p)
            return frobenius_order_mod_p(f, p)

        monkeypatch.setattr(arboreal, "frobenius_order_mod_p", counted)
        assert splitting_degree_lower_bound(RatPoly.parse(poly), 6, 30) == bound
        assert len(seen) == calls


def _order(perm):
    """Order of a permutation given as a tuple of images."""
    order, seen = 1, set()
    for start in range(len(perm)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i, length = perm[i], length + 1
        order = math.lcm(order, length or 1)
    return order


def _full_scan_bound(f, k, budget):
    """lcm of the factor degrees, by sympy's gf_factor_sqf, at every good
    prime of the budget, with no early stop; None when no prime is good.
    Raises Inseparable as the scan does."""
    disc_class(f, k)
    fk = iterate(f, k)
    bound, good, p = 1, False, 2
    for _ in range(budget):
        if fk.den % p and fk.nums[-1] % p:
            inv = pow(fk.den, -1, p)
            fl = [c * inv % p for c in reversed(fk.nums)]
            if gf_sqf_p(fl, p, ZZ):
                bound = math.lcm(bound, *(len(g) - 1 for g in gf_factor_sqf(fl, p, ZZ)[1]))
                good = True
        p = sympy.nextprime(p)
    return bound if good else None


class TestIndexReport:
    def test_refutation_example(self):
        report = index_report(X2M3, ClassSubspace.from_kernels([3]), 1, 1, 10)
        assert report == {
            "poly": "x^2 - 3",
            "base": [3],
            "level": 1,
            "killed": [1],
            "index_lower_bound": 2,
            "degree_lower_bound": 2,
            "group_order": 2,
            "verdict": "REFUTES_INDEX_AT_MOST(1)",
        }

    def test_unknown_example(self):
        report = index_report(X2P1, ClassSubspace(), 2, 1, 50)
        assert report["verdict"] == "UNKNOWN"
        assert report["killed"] == []
        assert report["degree_lower_bound"] == 4
        assert report["group_order"] == 8

    def test_consistent(self):
        report = index_report(X2P1, ClassSubspace(), 1, 1, 10)
        assert report["verdict"] == "CONSISTENT"
        assert report["degree_lower_bound"] == 2

    def test_consistent_over_base_needs_base_factor(self):
        # K_3 of x^2 - 2 is Q(zeta_32)^+, cyclic of degree 8 and containing
        # sqrt 2: over Q(sqrt 2) the image has order 4, index 32 > 16 in the
        # order-128 group, so the degree bound 8 over Q must not certify
        # index <= 16 over the base
        f, base = RatPoly.parse("x^2 - 2"), ClassSubspace.from_kernels([2])
        report = index_report(f, base, 3, 16, 60)
        assert report["degree_lower_bound"] == 8 and report["group_order"] == 128
        assert report["verdict"] == "UNKNOWN"
        # dlb * n >= order * 2^dim F still certifies
        assert index_report(f, base, 3, 32, 60)["verdict"] == "CONSISTENT"
        base = ClassSubspace.from_kernels([3])
        assert index_report(X2P1, base, 1, 2, 10)["verdict"] == "CONSISTENT"
        assert index_report(X2P1, base, 1, 1, 10)["verdict"] == "UNKNOWN"

    def test_inseparable_verdict(self):
        report = index_report(RatPoly.parse("x^2"), ClassSubspace(), 1, 1, 10)
        assert report["verdict"] == "INSEPARABLE"
        assert report["degree_lower_bound"] is None

    def test_degree_bound_divides_group_order(self):
        for k in (1, 2):
            report = index_report(X2P1, ClassSubspace(), k, 2, 30)
            assert group_order(2, k) % report["degree_lower_bound"] == 0
            assert report["index_lower_bound"] == 2 ** len(report["killed"])

    def test_validation(self):
        with pytest.raises(ValueError):
            index_report(X2P1, ClassSubspace(), 0, 1, 10)
        with pytest.raises(ValueError):
            index_report(X2P1, ClassSubspace(), 1, 0, 10)
