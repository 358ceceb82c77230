import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy

from arborsign import exactpoly, primes
from arborsign.construct import VastEnumeration
from arborsign.exactpoly import RatPoly
from arborsign.sqclass import (
    BaseNotContained,
    ClassStream,
    ClassSubspace,
    DepthExhausted,
    SquareClass,
    class_of,
    cover_fiber_integral,
    disjoint_over,
    intersection_dim,
    primes_stream,
    stream_from_name,
    vast_witness,
)


def brute_span(classes):
    """All products of subsets of the given classes: the actual F2-span."""
    out = {SquareClass.trivial()}
    for r in range(1, len(classes) + 1):
        for combo in combinations(classes, r):
            acc = SquareClass.trivial()
            for c in combo:
                acc = acc * c
            out.add(acc)
    return out


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
        c = SquareClass.from_kernel(-30)
        assert c.support == frozenset({-1, 2, 3, 5})

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
        assert V.extend(SquareClass.from_kernel(6)) == V
        assert V.extend(SquareClass.from_kernel(5)).dim == 3

    def test_kernels_sorted_and_canonical(self):
        V = ClassSubspace.from_kernels([6, 10])
        W = ClassSubspace.from_kernels([10, 15])  # 15 = 6 * 10 in the class group
        assert V == W
        assert V.kernels() == W.kernels()

    def test_compositum_dim_formula(self):
        rng = random.Random(19)
        pool = [-1, 2, 3, 5, 7, 11, 13, 6, 10, 14, -2]
        for _ in range(60):
            V = ClassSubspace.from_kernels(rng.sample(pool, rng.randint(1, 4)))
            W = ClassSubspace.from_kernels(rng.sample(pool, rng.randint(1, 4)))
            U = V + W
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
        W = ClassSubspace.from_kernels([2, 3])
        B = ClassSubspace.from_kernels([2])
        # 6 = 2 * 3 lies in both spans, so they meet beyond span{2}
        assert disjoint_over(V, W, B) is False

    def test_disjoint_case(self):
        V = ClassSubspace.from_kernels([2, 5])
        W = ClassSubspace.from_kernels([2, 7])
        B = ClassSubspace.from_kernels([2])
        assert disjoint_over(V, W, B) is True

    def test_base_not_contained(self):
        with pytest.raises(BaseNotContained):
            disjoint_over(
                ClassSubspace.from_kernels([2]),
                ClassSubspace.from_kernels([3]),
                ClassSubspace.from_kernels([5]),
            )

    def test_trivial_base(self):
        V = ClassSubspace.from_kernels([2])
        W = ClassSubspace.from_kernels([3])
        assert disjoint_over(V, W, ClassSubspace())


class TestStreams:
    def test_primes_stream(self):
        assert [c.kernel for c in primes_stream().prefix(5)] == [2, 3, 5, 7, 11]

    def test_prefix_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            primes_stream().prefix(0)

    def test_stream_from_name(self):
        s = stream_from_name("disc:x^2+1:1")
        assert [c.kernel for c in s.prefix(3)] == [-1, 2, 5]
        assert stream_from_name("primes").name == "primes"
        with pytest.raises(ValueError):
            stream_from_name("nope")
        with pytest.raises(ValueError):
            stream_from_name("disc:x^2+1")

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
        assert cover_fiber_integral(h, 2, F)
        assert not cover_fiber_integral(h, 1, F)  # square fiber
        assert not cover_fiber_integral(h, -1, F)  # class in F
        assert not cover_fiber_integral(h, 0, F)  # degenerate

    def test_rational_point(self):
        h = RatPoly.parse("x^2 + 1")
        F = ClassSubspace()
        assert cover_fiber_integral(h, Fraction(1, 2), F)  # 5/4, class 5


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

    def test_span_ops_match_oracle(self, no_factoring):
        rng = random.Random(43)
        for _ in range(150):
            shared = [random_element(rng) for _ in range(rng.randint(0, 2))]
            v_gens = shared + [random_element(rng) for _ in range(rng.randint(0, 4))]
            w_gens = shared + [random_element(rng) for _ in range(rng.randint(0, 4))]
            V, W, B = (
                ClassSubspace.span(class_of(value(*x)) for x in gens)
                for gens in (v_gens, w_gens, shared)
            )
            vv, wv, bv = (
                [prime_vector(*x) for x in gens] for gens in (v_gens, w_gens, shared)
            )
            assert V.dim == rank(vv)
            c = random_element(rng)
            cls = class_of(value(*c))
            in_span = rank(vv + [prime_vector(*c)]) == rank(vv)
            assert V.member(cls) == in_span
            assert V.extend(cls).dim == rank(vv + [prime_vector(*c)])
            meet = rank(vv) + rank(wv) - rank(vv + wv)
            assert intersection_dim(V, W) == meet
            assert (V + W).dim == rank(vv + wv)
            assert disjoint_over(V, W, B) == (meet == rank(bv))
            assert (V == W) == (rank(vv) == rank(wv) == rank(vv + wv))


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
    spec = VastEnumeration().entry(17)
    assert (str(spec.f), spec.n) == ("x^2 + 2", 5)
    F9 = ClassSubspace.from_kernels([-1, 5, 38, 26, 5403, 1086, 677, 1446, 458330])
    assert disjoint_over(spec.subspace(5), F9, ClassSubspace()) is True
