import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import HealthCheck, example, given, settings, strategies as st

from arborsign import exactpoly, primes, sqclass
from arborsign.construct import run, vast_entry, verify_trace
from arborsign.exactpoly import RatPoly, squarefree_kernel_support
from arborsign.sqclass import (
    ClassStream,
    ClassSubspace,
    DepthExhausted,
    SquareClass,
    class_of,
    cover_fiber_integral,
    disjoint_over,
    fiber_rep,
    intersection_dim,
    _is_square,
    primes_stream,
    vast_witness,
)


def brute_span(classes):
    """All products of subsets of the given classes: the actual F2-span."""
    out = {SquareClass(1)}
    for r in range(1, len(classes) + 1):
        for combo in combinations(classes, r):
            acc = SquareClass(1)
            for c in combo:
                acc = acc * c
            out.add(acc)
    return out


def ref_coordinates(n, order):
    """Reference for the base walk `sqclass._coordinates`: the same (v, x),
    by dividing out every base element, with no stop at the first element
    larger than what is left."""
    v = int(n < 0)
    n = abs(n)
    for b, bit in order:
        while n % b == 0:
            n //= b
            v ^= bit
    return v, n


def ref_kernels(V):
    """Reference for `ClassSubspace.kernels`: the reduced echelon form of the
    basis supports as sets of coordinates, -1 and the primes, each pivot the
    smallest coordinate of its row."""
    vecs = []
    for c in V.basis:
        fac = sympy.factorint(abs(c.rep))
        r = frozenset([p for p, e in fac.items() if e % 2] + [-1] * (c.rep < 0))
        for v in vecs:
            if min(v) in r:
                r ^= v
        p = min(r)
        vecs = [v ^ r if p in v else v for v in vecs] + [r]
    return sorted(math.prod(v) for v in vecs)


def check_structure(V):
    """The invariants of a span's coprime base and echelon rows: the base in
    size order with the bits 1 << 1 ... 1 << len, pairwise coprime
    nonsquares above 1 with the stored product, over which every basis class
    factors into the row span; each row keyed by its lowest bit, which no
    other row has."""
    elements = [b for b, _ in V._order]
    assert elements == sorted(elements)
    assert sorted(bit for _, bit in V._order) == [1 << j for j in range(1, len(elements) + 1)]
    assert all(b > 1 and not _is_square(b) for b in elements)
    assert all(math.gcd(a, b) == 1 for a, b in combinations(elements, 2))
    assert V._product == math.prod(elements)
    for p, row in V._rows.items():
        assert p == row & -row
        assert not any(other & p for q, other in V._rows.items() if q != p)
        assert row < 2 << len(elements)
    assert V.dim == len(V._rows)
    for c in V.basis:
        v, x = sqclass._coordinates(c.rep, V._order)
        assert x == 1 and sqclass._reduce(v, V._rows) == 0


def checked_span(classes):
    """The span of the classes, extended one by one, checked after each."""
    V = ClassSubspace()
    for c in classes:
        V = V.extend(c)
        check_structure(V)
    return V


def ref_reduce(v, rows):
    """Reference for the reduction `sqclass._reduce`: v reduced by every row
    whose pivot bit it has, in turn."""
    for p, row in rows.items():
        if v & p:
            v ^= row
    return v


def composed_member(V, rep):
    """Membership of the class of rep composed from the reference kernels
    `ref_coordinates`, `_is_square` and `ref_reduce`; when the cofactor
    shares a factor with the base, whether extending V by the class keeps
    its dimension."""
    v, x = ref_coordinates(rep, V._order)
    if any(math.gcd(x, b) > 1 for b, _ in V._order):
        return V.extend(SquareClass(rep)).dim == V.dim
    return _is_square(x) and not ref_reduce(v, V._rows)


class TestSquareClass:
    @pytest.mark.parametrize(
        "q, kernel",
        [(2, 2), (8, 2), (-8, -2), (Fraction(3, 4), 3), (Fraction(2, 3), 6), (49, 1), (-1, -1)],
    )
    def test_class_of(self, q, kernel):
        assert class_of(q).kernel == kernel

    def test_class_of_zero_rejected(self):
        with pytest.raises(ValueError):
            class_of(0)

    def test_from_kernel_rejects_nonsquarefree(self):
        with pytest.raises(ValueError):
            SquareClass.from_kernel(12)
        with pytest.raises(ValueError):
            SquareClass.from_kernel(0)

    def test_support(self):
        assert squarefree_kernel_support(-30) == (-30, (2, 3, 5))

    def test_group_law(self):
        rng = random.Random(3)
        for _ in range(200):
            a = Fraction(rng.randint(-60, 60) or 7, rng.randint(1, 30))
            b = Fraction(rng.randint(-60, 60) or 5, rng.randint(1, 30))
            assert class_of(a) * class_of(b) == class_of(a * b)

    def test_self_inverse(self):
        c = SquareClass.from_kernel(-15)
        assert (c * c).is_trivial


class TestClassSubspace:
    def test_span_reduces_dependencies(self):
        V = ClassSubspace.from_kernels([2, 3, 6])
        assert V.dim == 2
        assert V.member(SquareClass.from_kernel(6))

    def test_member_matches_brute_force(self):
        rng = random.Random(17)
        kernels_pool = [-1, 2, 3, 5, 6, 7, 10, -15, 21, 30]
        for _ in range(40):
            gens = [SquareClass.from_kernel(k) for k in rng.sample(kernels_pool, 4)]
            V = ClassSubspace.span(gens)
            full = brute_span(gens)
            assert V.dim == len(full).bit_length() - 1
            for k in kernels_pool:
                c = SquareClass.from_kernel(k)
                assert V.member(c) == (c in full)

    def test_extend_is_idempotent_on_members(self):
        V = ClassSubspace.from_kernels([2, 3])
        assert V.extend(SquareClass.from_kernel(6)) is V
        assert V.extend(SquareClass.from_kernel(5)).dim == 3

    def test_kernels_sorted_and_canonical(self):
        V = ClassSubspace.from_kernels([6, 10])
        W = ClassSubspace.from_kernels([10, 15])  # 15 = 6 * 10 in the class group
        assert V.dim == W.dim and V.contains(W)
        assert V.kernels() == W.kernels()

    def test_kernels_match_reference(self):
        """Random spans of signed generators, square multiples of them and
        products of earlier ones, against the frozenset echelon form."""
        rng = random.Random(23)
        small = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        for _ in range(300):
            gens = []
            for _ in range(rng.randint(0, 6)):
                kind = rng.randrange(3)
                if kind == 0 or not gens:
                    rep = rng.choice([1, -1]) * math.prod(rng.sample(small, rng.randint(0, 4)))
                elif kind == 1:
                    rep = rng.choice(gens) * rng.choice(small) ** 2
                else:
                    rep = math.prod(rng.sample(gens, rng.randint(1, len(gens))))
                gens.append(rep)
            V = checked_span(SquareClass(rep) for rep in gens)
            assert V.kernels() == ref_kernels(V)
            assert ClassSubspace.from_kernels(V.kernels()).kernels() == V.kernels()

    def test_compositum_dim_formula(self):
        rng = random.Random(19)
        pool = [-1, 2, 3, 5, 7, 11, 13, 6, 10, 14, -2]
        for _ in range(60):
            V = ClassSubspace.from_kernels(rng.sample(pool, rng.randint(1, 4)))
            W = ClassSubspace.from_kernels(rng.sample(pool, rng.randint(1, 4)))
            U = V.compositum(W)
            assert U.dim == V.dim + W.dim - intersection_dim(V, W)
            assert U.contains(V) and U.contains(W)
            assert intersection_dim(V, W) == intersection_dim(W, V)

    def test_contains_reflexive_and_trivial(self):
        V = ClassSubspace.from_kernels([2, -3])
        assert V.contains(V)
        assert V.contains(ClassSubspace())
        assert not ClassSubspace().contains(V)


class TestDisjointness:
    def test_spec_example(self):
        V = ClassSubspace.from_kernels([2, 6])
        W = ClassSubspace.from_kernels([3, 7])
        # 3 = 2 * 6 lies in both spans, though no generator is shared
        assert disjoint_over(V, W) is False

    def test_disjoint_case(self):
        V = ClassSubspace.from_kernels([2, 5])
        W = ClassSubspace.from_kernels([3, 7, -1])
        assert disjoint_over(V, W) is True

    def test_trivial_base(self):
        # the spans meet in the trivial class only: disjoint over Q
        V = ClassSubspace.from_kernels([2])
        W = ClassSubspace.from_kernels([3])
        assert disjoint_over(V, W)
        assert not disjoint_over(V, V)

    def test_the_empty_span_is_disjoint_without_a_compositum(self, monkeypatch):
        # the first step of a tower tests against the empty field; the span
        # W is not extended again, which at x^2 + 1's level 22 took seconds
        W = ClassSubspace.from_kernels([2, 6, -1])
        extends = []
        extend = ClassSubspace.extend
        monkeypatch.setattr(ClassSubspace, "extend",
                            lambda V, c: extends.append(c) or extend(V, c))
        assert disjoint_over(ClassSubspace(), W) is True
        assert disjoint_over(W, ClassSubspace()) is True
        assert intersection_dim(ClassSubspace(), ClassSubspace()) == 0
        assert extends == []


class TestStreams:
    def test_primes_stream(self):
        assert [c.kernel for c in primes_stream().prefix(5)] == [2, 3, 5, 7, 11]

    def test_prefix_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            primes_stream().prefix(0)

    def test_vast_witness(self):
        F = ClassSubspace.from_kernels([2, 3])
        assert vast_witness(primes_stream(), F, 10).kernel == 5

    def test_vast_witness_skips_members(self):
        # 6 = 2*3 is in the span even though not a listed generator
        sixes = ClassStream("sixes", lambda i: SquareClass.from_kernel([6, 7][min(i, 1)]))
        F = ClassSubspace.from_kernels([2, 3])
        assert vast_witness(sixes, F, 5).kernel == 7

    def test_vast_witness_depth_exhausted(self):
        F = ClassSubspace.from_kernels([2, 3, 5])
        with pytest.raises(DepthExhausted):
            vast_witness(primes_stream(), F, 3)


class TestCoverFiber:
    def test_integral_point(self):
        h = RatPoly.parse("x")
        F = ClassSubspace.from_kernels([-1])
        assert cover_fiber_integral(h, 2, 1, F)
        assert not cover_fiber_integral(h, 1, 1, F)  # square fiber
        assert not cover_fiber_integral(h, -1, 1, F)  # class in F
        assert not cover_fiber_integral(h, 0, 1, F)  # degenerate

    def test_rational_point(self):
        h = RatPoly.parse("x^2 + 1")
        F = ClassSubspace()
        assert cover_fiber_integral(h, 1, 2, F)  # 5/4, class 5

    @given(
        st.lists(st.fractions(-9, 9, max_denominator=6), min_size=1, max_size=5),
        st.one_of(st.fractions(-20, 20, max_denominator=15), st.integers(-20, 20)),
        st.booleans(),
        st.lists(st.integers(-60, 60).filter(bool), max_size=4),
    )
    # negative fibers of h of degree 0, inside and outside the span
    @example([Fraction(-3)], 1, False, [3])
    @example([Fraction(-1, 4)], Fraction(2, 3), False, [-1])
    # the fibers 1 and -1, and a perfect square, 9/4
    @example([0, 1], 1, False, [2])
    @example([0, 1], -1, False, [-1, 2])
    @example([0, 0, 1], Fraction(3, 2), False, [5])
    # zero fibers at roots of h of degree 1 and 4
    @example([Fraction(1, 2), 1], Fraction(-1, 2), False, [6])
    @example([1, 0, Fraction(-1, 3), 2], Fraction(5, 7), True, [-1, 5])
    # the composite base elements 6 and 35 share 3 and 5 with the fiber 15,
    # which refines the base; the fiber 210 = 6 * 35 divides out over them
    @example([0, 1], 15, False, [6, 35])
    @example([0, 1], 210, False, [6, 35])
    # degree 4 with rational coefficients: 6 divides the fiber -2^2 * 3 * 571
    # once and leaves a factor 2 shared with it, which refines the base
    @example([Fraction(1, 2), 0, 0, 0, Fraction(-3, 4)], Fraction(-5, 3), False, [-1, 6, 35])
    def test_matches_fraction_oracle(self, coeffs, q, at_root, kernels):
        """Non-monic h with non-integer coefficients, of degree 0 to 4, at
        points with denominators and at roots of h, over random spans; the
        membership kernel also matches its composition from the reference
        kernels."""
        h = RatPoly(coeffs)
        if h.is_zero:
            h = RatPoly.constant(coeffs[0] + 1)
        if at_root:
            h = h * RatPoly((-q, 1))
        F = ClassSubspace.span(class_of(k) for k in kernels)
        q = Fraction(q)
        v = sum(Fraction(k, h.den) * q**i for i, k in enumerate(h.nums))
        expected = v != 0 and class_of(v) not in brute_span(list(F.basis))
        assert cover_fiber_integral(h, q.numerator, q.denominator, F) == expected
        rep = fiber_rep(h, q.numerator, q.denominator)
        if rep:
            assert F._member(rep) == composed_member(F, rep) == (not expected)

    @given(
        st.lists(st.fractions(-9, 9, max_denominator=6), min_size=1, max_size=5),
        st.fractions(-20, 20, max_denominator=15),
    )
    def test_fiber_rep_lies_in_the_class_of_the_value(self, coeffs, q):
        """The engine's fiber classes: the integer is in the class of h(q),
        at points of every denominator and under h of either parity."""
        h = RatPoly(coeffs)
        v = sum(Fraction(k, h.den) * q**i for i, k in enumerate(h.nums))
        rep = fiber_rep(h, q.numerator, q.denominator)
        assert (rep == 0) == (v == 0)
        if v:
            assert SquareClass(rep) == class_of(v)


# ---------------------------------------------------------------------------
# Factor-free span algebra on values of known factorization
# ---------------------------------------------------------------------------

# Primes of 80-130 bits (nextprime(3^k // 7 + 12345)); factoring any product
# of two of them is far out of reach, so the span operations must not try.
BIG_PRIMES = (
    923011698460953328431271,
    24921315858445739867322421,
    672875528178034976417384347,
    18167639260806944363269055291,
    490526260041787497808264167971,
    13244209021128262440823132213859,
    357593643570463085902224569453393,
    9655028376402503319360063374914969,
    260685766162867589622721711122381581,
    7038515686397424919813486200303978923,
    190039923532730472834964127408207109313,
    570119770598191418504892382224621303151,
)
SMALL = {1: 2, 2: 3, 3: 5, 5: 7}  # a small prime inside some primitive parts
EXPONENTS = (1, 2, 1, 2, 3, 1, 1, 2, 1, 1, 3, 1)


def primitive_part(d):
    """{prime: exponent} of P_d; the P_d are pairwise coprime."""
    fac = {BIG_PRIMES[d - 1]: EXPONENTS[d - 1]}
    if d in SMALL:
        fac[SMALL[d]] = 1
    return fac


def orbit_like(n):
    """(sign, {prime: exponent}) of a_n = (-1)^n * prod_{d | n} P_d, so that
    gcd(a_m, a_n) = +-a_gcd(m, n) as for critical orbits of x^2 + c."""
    fac = {}
    for d in range(1, n + 1):
        if n % d == 0:
            fac.update(primitive_part(d))
    return (-1) ** n, fac


def value(sign, fac):
    return sign * math.prod(p**e for p, e in fac.items())


COORDS = sorted(set(BIG_PRIMES) | set(SMALL.values()))


def prime_vector(sign, fac):
    """Oracle coordinates: bit 0 the sign, one bit per prime's exponent parity."""
    v = int(sign < 0)
    for p, e in fac.items():
        v ^= (e % 2) << (1 + COORDS.index(p))
    return v


def rank(vectors):
    basis = []  # distinct leading bits, kept in decreasing order
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


def mul(x, y):
    (s, f), (t, g) = x, y
    fac = dict(f)
    for p, e in g.items():
        fac[p] = fac.get(p, 0) + e
    return s * t, fac


def random_element(rng):
    """An orbit-like value, a product of two, or one times a big square."""
    x = orbit_like(rng.randint(1, 12))
    kind = rng.randrange(3)
    if kind == 1:
        x = mul(x, orbit_like(rng.randint(1, 12)))
    elif kind == 2:
        x = mul(x, (1, {rng.choice(BIG_PRIMES): 2}))
    return x


@pytest.fixture
def no_factoring(monkeypatch):
    """Refuse every factorization, by the stdlib path or the sympy fallback."""

    def refuse(n):
        raise AssertionError(f"factorint called on a {n.bit_length()}-bit integer")

    monkeypatch.setattr(primes, "factorint", refuse)


class TestFactorFree:
    def test_fixed_primes(self):
        for p in BIG_PRIMES:
            assert 80 <= p.bit_length() <= 130 and sympy.isprime(p)

    def test_family_is_a_divisibility_sequence(self):
        for m in range(1, 13):
            for n in range(1, 13):
                a_m, a_n = value(*orbit_like(m)), value(*orbit_like(n))
                assert math.gcd(a_m, a_n) == abs(value(*orbit_like(math.gcd(m, n))))

    def test_classes_match_oracle(self, no_factoring):
        rng = random.Random(41)
        for _ in range(200):
            x, y = random_element(rng), random_element(rng)
            a, b = class_of(value(*x)), class_of(value(*y))
            assert (a == b) == (prime_vector(*x) == prime_vector(*y))
            assert (a * b).is_trivial == (prime_vector(*x) == prime_vector(*y))
            q = rng.choice(BIG_PRIMES)
            same = class_of(Fraction(value(*x) * q, q**3))
            assert same == a and hash(same) == hash(a)

    def test_refinement_appends_then_splits(self, no_factoring):
        """The first extensions only append coprime elements to the base, which
        keeps the echelon rows; the last splits a base element, which rebuilds
        them.  Membership matches the oracle after each."""
        p = BIG_PRIMES
        gens = [
            (1, {p[0]: 1, p[1]: 1}),
            (1, {p[2]: 1}),
            (-1, {p[3]: 3}),
            (1, {p[0]: 1, p[4]: 2}),
        ]
        probes = [
            (1, {p[0]: 1}),
            (1, {p[1]: 1}),
            (-1, {p[0]: 1, p[1]: 1, p[3]: 1}),
            (-1, {p[2]: 1, p[3]: 1}),
            (-1, {}),
            (1, {p[3]: 1}),
            (1, {p[4]: 1}),
        ]
        V, vecs, appended = ClassSubspace(), [], []
        for g in gens:
            old = V._order
            V = V.extend(class_of(value(*g)))
            check_structure(V)
            appended.append(set(old) <= set(V._order))
            vecs.append(prime_vector(*g))
            assert V.dim == rank(vecs) == len(vecs)
            for x in probes:
                in_span = rank(vecs + [prime_vector(*x)]) == rank(vecs)
                assert V.member(class_of(value(*x))) == in_span
        assert appended == [True, True, True, False]

    def test_refines_only_classes_that_meet_the_base(self, no_factoring, monkeypatch):
        """Extending by a class whose cofactor is 1 or coprime to the base
        needs no refinement; one that meets a base element refines once, and
        membership of such a class leaves the subspace as it was."""
        real, calls = sqclass._refine, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sqclass, "_refine", counted)
        p = BIG_PRIMES
        gens = [p[0] * p[1], p[2], -p[3] ** 3, p[4] * p[5] ** 2, p[6] ** 2, p[0] * p[1] * p[2]]
        V = ClassSubspace.span(class_of(n) for n in gens)
        assert (V.dim, len(calls)) == (4, 0)
        base = V._order
        assert V.member(class_of(p[0] ** 3 * p[1])) and V._order == base
        assert not V.member(class_of(p[1] * p[2])) and V._order == base
        assert len(calls) == 2
        W = V.extend(class_of(p[0]))
        assert len(calls) == 3 and len(W._order) == len(base) + 1
        assert W.member(class_of(p[1])) and not W.member(class_of(p[5]))

    def test_span_ops_match_oracle(self, no_factoring):
        rng = random.Random(43)
        for _ in range(150):
            shared = [random_element(rng) for _ in range(rng.randint(0, 2))]
            v_gens = shared + [random_element(rng) for _ in range(rng.randint(0, 4))]
            w_gens = shared + [random_element(rng) for _ in range(rng.randint(0, 4))]
            V, W = (
                ClassSubspace.span(class_of(value(*x)) for x in gens)
                for gens in (v_gens, w_gens)
            )
            vv, wv = ([prime_vector(*x) for x in gens] for gens in (v_gens, w_gens))
            assert V.dim == rank(vv)
            c = random_element(rng)
            cls = class_of(value(*c))
            in_span = rank(vv + [prime_vector(*c)]) == rank(vv)
            assert V.member(cls) == in_span
            assert V.extend(cls).dim == rank(vv + [prime_vector(*c)])
            meet = rank(vv) + rank(wv) - rank(vv + wv)
            assert intersection_dim(V, W) == meet
            assert V.compositum(W).dim == rank(vv + wv)
            assert disjoint_over(V, W) == (meet == 0)
            same = V.dim == W.dim and V.contains(W)
            assert same == (rank(vv) == rank(wv) == rank(vv + wv))


P = BIG_PRIMES
ELEMENTS = st.tuples(
    st.sampled_from([1, -1]),
    st.dictionaries(st.sampled_from(COORDS), st.integers(1, 3), max_size=3),
)


class TestMember:
    """member() reads the coordinates in one pass and decides at once when the
    cofactor is coprime to the base; otherwise it refines the base."""

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(ELEMENTS, max_size=4), ELEMENTS, st.sampled_from([1, 2, *P[:3]]))
    # the candidate shares only part of the composite base element P0 P1
    @example([(1, {P[0]: 1, P[1]: 1})], (1, {P[0]: 1}), 1)
    @example([(1, {P[0]: 1, P[1]: 1}), (-1, {P[2]: 1})], (-1, {P[1]: 1, P[2]: 1}), 1)
    # b = P0 P1^2 divides c = b (P0 P1)^2 twice and leaves the nonsquare P0
    @example([(1, {P[0]: 1, P[1]: 2})], (1, {P[0]: 3, P[1]: 4}), 1)
    # a split base, a negative candidate and a square multiple
    @example([(1, {P[0]: 1, P[1]: 1}), (1, {P[0]: 1})], (1, {P[1]: 1}), P[2])
    @example([(-1, {P[3]: 3})], (-1, {P[3]: 1}), P[0])
    @example([(-1, {P[3]: 3})], (-1, {}), 2)
    def test_matches_oracle(self, no_factoring, gens, c, square):
        V = checked_span(class_of(value(*g)) for g in gens)
        vecs = [prime_vector(*g) for g in gens]
        in_span = rank(vecs + [prime_vector(*c)]) == rank(vecs)
        rep = value(*c) * square**2
        assert V.member(class_of(rep)) == composed_member(V, rep) == in_span


SIZED_COORDS = (2, 3, 5, 7, 11, 13, P[0], P[1])


def sized_vector(sign, fac):
    """Oracle coordinates over SIZED_COORDS, as prime_vector over COORDS."""
    v = int(sign < 0)
    for p, e in fac.items():
        v ^= (e % 2) << (1 + SIZED_COORDS.index(p))
    return v


class TestSizeOrderedWalk:
    """A small candidate, such as a point's fiber value, over a base holding
    small primes and products with 80-bit primes: the walk stops at the
    first base element larger than what is left of the candidate."""

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(st.tuples(st.sampled_from([1, -1]),
                           st.dictionaries(st.sampled_from(SIZED_COORDS), st.integers(1, 3),
                                           min_size=1, max_size=3)),
                 max_size=5),
        st.sampled_from([1, -1]),
        st.dictionaries(st.sampled_from(SIZED_COORDS[:6]), st.integers(1, 3), max_size=4),
    )
    # the composite base element 3 P0 shares 3 with the candidate 15, so
    # membership refines the base; 2 is smaller than the candidate
    @example([(1, {3: 1, P[0]: 1}), (1, {2: 1})], 1, {3: 1, 5: 1})
    @example([(1, {3: 1, P[0]: 1}), (-1, {5: 1})], -1, {3: 1, 5: 1})
    # 2 and 5 divide the candidate out down to 7, smaller than P1
    @example([(1, {2: 1}), (1, {5: 1}), (1, {P[1]: 1})], 1, {2: 1, 5: 2, 7: 1})
    @example([(1, {2: 1}), (1, {7: 1}), (1, {P[1]: 1})], 1, {2: 3, 7: 1})
    # the cofactor 7 is coprime to the base and not a square, while the
    # class of 14 / 7 is in the span
    @example([(1, {2: 1})], 1, {2: 1, 7: 1})
    # -1 reduces by the row of -3 to 3, which has no row
    @example([(-1, {3: 1})], -1, {})
    # 6 reduces to zero by two rows; over the span of 10 and 15, 2 * 7^2
    # reduces by the row of 10 to 5, which has no row
    @example([(1, {2: 1}), (1, {3: 1})], 1, {2: 1, 3: 1})
    @example([(1, {2: 1, 5: 1}), (1, {3: 1, 5: 1})], 1, {2: 1, 7: 2})
    # perfect squares, and 1
    @example([(1, {3: 1})], 1, {2: 2, 13: 2})
    @example([], 1, {})
    def test_matches_oracle(self, no_factoring, gens, sign, fac):
        """Also against membership composed from the reference kernels."""
        V = checked_span(class_of(value(*g)) for g in gens)
        vecs = [sized_vector(*g) for g in gens]
        in_span = rank(vecs + [sized_vector(sign, fac)]) == rank(vecs)
        rep = value(sign, fac)
        assert V.member(class_of(rep)) == composed_member(V, rep) == in_span

    def test_cofactor_below_a_base_element_it_meets(self):
        """The base of span{12} is 12 itself.  The walk of 3 stops before 12
        and leaves the cofactor 3, yet gcd(3, 12) = 3, and 3 is in the class
        of 12.  A coprime test against only the base elements the walk saw
        would find none and answer False."""
        V = ClassSubspace.span([SquareClass(12)])
        assert V._order == ((12, 2),)
        assert sqclass._coordinates(3, V._order) == (0, 3)
        assert V.member(SquareClass(3))
        assert V._member(3)
        assert V.extend(SquareClass(3)) is V


def test_orbit_stream_disjointness_needs_no_factoring(monkeypatch):
    """Step 10 of run(10, 5, 1000) tests the stream x^2 + 2, n = 5 against the
    span of the first nine witnesses.  Its level-9 orbit value has 336 bits;
    deciding the span must not hand it, or any other large integer, to
    factorint, by the stdlib path or the sympy fallback."""
    exactpoly._squarefree_part.cache_clear()
    real = primes.factorint

    def small_only(n):
        assert n.bit_length() <= 64, f"factorint called on a {n.bit_length()}-bit integer"
        return real(n)

    monkeypatch.setattr(primes, "factorint", small_only)
    spec = vast_entry(17)
    assert (str(spec.f), spec.n) == ("x^2 + 2", 5)
    F9 = ClassSubspace.from_kernels([-1, 5, 38, 26, 5403, 1086, 677, 1446, 458330])
    assert disjoint_over(spec.subspace(5), F9) is True


def test_structure_over_a_tower(monkeypatch):
    """Every span that run(10, 5, 1000) and its verification build, by the
    engine, the verifier, stream subspaces and membership fallbacks, keeps
    the structure's invariants."""
    real, built = ClassSubspace.extend, []

    def checked(V, c):
        W = real(V, c)
        check_structure(W)
        built.append(len(W._order))
        return W

    monkeypatch.setattr(ClassSubspace, "extend", checked)
    assert verify_trace(run(10, 5, 1000)) == []
    assert len(built) > 100 and max(built) > 10
