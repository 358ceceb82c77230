import math

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from arborsign import arboreal
from arborsign.arboreal import (
    Inseparable,
    NoGoodPrimes,
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
    BadPrime,
    RatPoly,
    discriminant,
    factor_degrees_mod_p,
    iterate,
    resultant,
    squarefree_kernel,
)
from arborsign.sqclass import ClassSubspace, class_of
from arborsign.treegroup import all_portraits, group_order, leaf_permutation

X2M3 = RatPoly.parse("x^2 - 3")
X2P1 = RatPoly.parse("x^2 + 1")


class TestDiscClass:
    def test_known_sequences(self):
        assert disc_class_sequence(X2M3, 2).kernels() == [3, 6]
        assert disc_class_sequence(X2P1, 2).kernels() == [-1, 2]

    def test_fast_path_agrees_with_generic_discriminant(self):
        # the critical-orbit shortcut vs. the resultant-based discriminant
        for f in (X2M3, X2P1, RatPoly.parse("x^2 + 2"), RatPoly.parse("x^2 - 7/4")):
            for n in range(1, 5):
                d = discriminant(iterate(f, n))
                assert disc_class(f, n).kernel == squarefree_kernel(d)

    def test_generic_path_on_non_centered_quadratic(self):
        f = RatPoly.parse("x^2 + x + 1")  # not of the x^2 + c shape
        for n in (1, 2, 3):
            assert disc_class(f, n).kernel == squarefree_kernel(discriminant(iterate(f, n)))

    def test_quartic_with_short_remainder(self):
        # f mod f' = -15/4 x - 1 has degree d - 3, so lc(f')^(d - deg R_1) is an odd power
        f = RatPoly.parse("-5*x^4 - 5*x - 1")
        assert [disc_class(f, n).kernel for n in (1, 2)] == [-15595, 89746729297277105]
        for n in (1, 2):
            assert disc_class(f, n) == class_of(discriminant(iterate(f, n)))

    def test_cubic(self):
        f = RatPoly.parse("x^3 - 2")
        assert disc_class(f, 1).kernel == squarefree_kernel(-108)
        # odd degree: each level carries the class of the level below
        for n in (2, 3):
            assert disc_class(f, n) == class_of(discriminant(iterate(f, n)))

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
        assert seq.at_level(1).kernel == 3
        assert seq.at_level(3).kernel == disc_class(X2M3, 3).kernel
        with pytest.raises(ValueError):
            seq.at_level(4)

    def test_recomputation_idempotent(self):
        seq = disc_class_sequence(X2P1, 4)
        for n in range(1, 5):
            assert seq.at_level(n) == disc_class(X2P1, n)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            disc_class(RatPoly.x(), 1)
        with pytest.raises(ValueError):
            disc_class(X2M3, 0)
        with pytest.raises(ValueError):
            disc_class_sequence(X2M3, 0)


def _generic_class(f, n):
    """Class of disc(f^(on)) from the composed iterate, or the first inseparable level."""
    for m in range(1, n + 1):
        d = discriminant(iterate(f, m))
        if d == 0:
            return m
    return class_of(d)


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
        expected = _generic_class(f, n)
        if isinstance(expected, int):
            with pytest.raises(Inseparable) as exc:
                disc_class(f, n)
            assert exc.value.level == expected
        else:
            assert disc_class(f, n) == expected

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
        d, a = f.degree, f.lc
        prev = 1
        for n in range(1, depth + 1):
            E = d ** (n - 1)
            disc = discriminant(iterate(f, n))
            res = resultant(f.derivative(), iterate(f, n))
            assert disc == _level_sign(d, n) * a ** (d * E * (E - 1) - 1) * prev**d * res
            prev = disc


class TestDiscStream:
    def test_offsets(self):
        s = disc_stream(X2P1, 2)
        assert [c.kernel for c in s.prefix(3)] == [2, 5, 26]
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
        with pytest.raises(NoGoodPrimes):
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
            with pytest.raises(NoGoodPrimes):
                splitting_degree_lower_bound(f, k, budget)
        else:
            assert splitting_degree_lower_bound(f, k, budget) == expected

    @pytest.mark.parametrize("poly, bound, calls", [("x^2 - 13", 64, 5), ("x^2 + 14", 32, 30)])
    def test_scan_stops_at_the_exponent(self, monkeypatch, poly, bound, calls):
        # x^2 - 13 reaches 2^6 = 64 at the fifth prime; x^2 + 14 stays at 32
        seen = []

        def counted(f, p):
            seen.append(p)
            return factor_degrees_mod_p(f, p)

        monkeypatch.setattr(arboreal, "factor_degrees_mod_p", counted)
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
    """lcm of the Frobenius orders at every good prime of the budget, with no
    early stop; None when no prime is good.  Raises Inseparable as the scan
    does."""
    disc_class(f, k)
    fk = iterate(f, k)
    bound, good, p = 1, False, 2
    for _ in range(budget):
        try:
            bound = math.lcm(bound, factor_degrees_mod_p(fk, p).lcm())
            good = True
        except BadPrime:
            pass
        p = sympy.nextprime(p)
    return bound if good else None


class TestIndexReport:
    def test_refutation_example(self):
        cert = index_report(X2M3, ClassSubspace.from_kernels([3]), 1, 1, 10)
        assert cert.to_json() == {
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
        cert = index_report(X2P1, ClassSubspace(), 2, 1, 50)
        assert cert.verdict == "UNKNOWN"
        assert cert.killed == frozenset()
        assert cert.degree_lower_bound == 4
        assert cert.group_order == 8

    def test_consistent(self):
        cert = index_report(X2P1, ClassSubspace(), 1, 1, 10)
        assert cert.verdict == "CONSISTENT"
        assert cert.degree_lower_bound == 2

    def test_consistent_over_base_needs_base_factor(self):
        # K_3 of x^2 - 2 is Q(zeta_32)^+, cyclic of degree 8 and containing
        # sqrt 2: over Q(sqrt 2) the image has order 4, index 32 > 16 in the
        # order-128 group, so the degree bound 8 over Q must not certify
        # index <= 16 over the base
        f, base = RatPoly.parse("x^2 - 2"), ClassSubspace.from_kernels([2])
        cert = index_report(f, base, 3, 16, 60)
        assert cert.degree_lower_bound == 8 and cert.group_order == 128
        assert cert.verdict == "UNKNOWN"
        # dlb * n >= order * 2^dim F still certifies
        assert index_report(f, base, 3, 32, 60).verdict == "CONSISTENT"
        base = ClassSubspace.from_kernels([3])
        assert index_report(X2P1, base, 1, 2, 10).verdict == "CONSISTENT"
        assert index_report(X2P1, base, 1, 1, 10).verdict == "UNKNOWN"

    def test_inseparable_verdict(self):
        cert = index_report(RatPoly.parse("x^2"), ClassSubspace(), 1, 1, 10)
        assert cert.verdict == "INSEPARABLE"
        assert cert.degree_lower_bound is None

    def test_degree_bound_divides_group_order(self):
        for k in (1, 2):
            cert = index_report(X2P1, ClassSubspace(), k, 2, 30)
            assert group_order(2, k) % cert.degree_lower_bound == 0
            assert cert.index_lower_bound == 2 ** len(cert.killed)

    def test_validation(self):
        with pytest.raises(ValueError):
            index_report(X2P1, ClassSubspace(), 0, 1, 10)
        with pytest.raises(ValueError):
            index_report(X2P1, ClassSubspace(), 1, 0, 10)
