import math
import random
from itertools import product

import pytest

from arborsign.treegroup import (
    Portrait,
    all_portraits,
    compose,
    group_order,
    internal_addresses,
    leaf_permutation,
    perm_compose,
    perm_sign,
    random_portrait,
    sign_level,
    sign_vector,
)


def naive_perm_sign(p):
    """Sign by counting inversions; independent of the cycle method."""
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return -1 if inv % 2 else 1


ROOT_SWAP = Portrait(2, 2, {"": (1, 0), "0": (0, 1), "1": (0, 1)})


class TestPermBasics:
    def test_perm_compose_order(self):
        a, b = (1, 2, 0), (0, 2, 1)
        assert perm_compose(a, b) == tuple(a[b[i]] for i in range(3))

    def test_perm_sign_matches_inversion_count(self):
        rng = random.Random(5)
        for _ in range(300):
            p = list(range(rng.randint(1, 7)))
            rng.shuffle(p)
            assert perm_sign(tuple(p)) == naive_perm_sign(p)

    def test_internal_addresses(self):
        assert list(internal_addresses(2, 2)) == ["", "0", "1"]
        assert len(list(internal_addresses(3, 3))) == 13
        assert list(internal_addresses(10, 2))[-1] == "9"

    @pytest.mark.parametrize("build", [
        lambda: internal_addresses(11, 2), lambda: Portrait.identity(11, 2),
        lambda: Portrait(11, 0, {}), lambda: Portrait(12, 1, {"": tuple(range(12))}),
    ])
    def test_arity_above_10_refused(self, build):
        """An address is a string of decimal digits, one per child index:
        internal_addresses(11, 2) used to yield "1" and "0" twice, and
        Portrait.identity(11, 2) to fail with "expected 12 labels, got 11"."""
        with pytest.raises(ValueError, match="addresses are strings of decimal digits"):
            build()


class TestPortrait:
    def test_validation(self):
        with pytest.raises(ValueError):
            Portrait(2, 1, {})  # missing root label
        with pytest.raises(ValueError):
            Portrait(2, 1, {"": (0, 0)})  # not a permutation
        with pytest.raises(ValueError):
            Portrait(1, 1, {"": (0,)})

    def test_identity_fixes_everything(self):
        e = Portrait.identity(2, 3)
        for addr in ["", "0", "01", "110"]:
            assert e.apply_to_address(addr) == addr
        assert sign_vector(e) == (1, 1, 1)

    def test_root_swap_example(self):
        g = ROOT_SWAP
        assert g.apply_to_address("00") == "10"
        assert leaf_permutation(g, 2) == (2, 3, 0, 1)
        assert sign_vector(g) == (-1, 1)

    def test_apply_is_bijective_per_level(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_portrait(2, 3, rng)
            for n in range(4):
                assert sorted(leaf_permutation(g, n)) == list(range(2**n))

    def test_immutable(self):
        g = Portrait.identity(2, 1)
        with pytest.raises(AttributeError):
            g.k = 5


class TestCompose:
    def test_homomorphism_on_leaves(self):
        rng = random.Random(31)
        for d, k in [(2, 3), (3, 2)]:
            for _ in range(50):
                g = random_portrait(d, k, rng)
                h = random_portrait(d, k, rng)
                gh = compose(g, h)
                for n in range(k + 1):
                    assert leaf_permutation(gh, n) == perm_compose(
                        leaf_permutation(g, n), leaf_permutation(h, n)
                    )

    def test_identity_neutral(self):
        rng = random.Random(37)
        e = Portrait.identity(2, 3)
        g = random_portrait(2, 3, rng)
        assert compose(g, e) == g
        assert compose(e, g) == g

    def test_associative(self):
        rng = random.Random(41)
        for _ in range(20):
            g, h, k = (random_portrait(2, 3, rng) for _ in range(3))
            assert compose(compose(g, h), k) == compose(g, compose(h, k))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"^\(2,1\) vs \(2,2\)$"):
            compose(Portrait.identity(2, 1), Portrait.identity(2, 2))


class TestSigns:
    def test_sign_level_matches_leaf_sign_exhaustive(self):
        for g in all_portraits(2, 2):
            for n in (1, 2):
                assert sign_level(g, n) == perm_sign(leaf_permutation(g, n))

    def test_sign_level_matches_leaf_sign_random_ternary(self):
        rng = random.Random(43)
        for _ in range(100):
            g = random_portrait(3, 2, rng)
            for n in (1, 2):
                assert sign_level(g, n) == perm_sign(leaf_permutation(g, n))

    def test_sign_is_homomorphism(self):
        rng = random.Random(47)
        for _ in range(50):
            g = random_portrait(2, 3, rng)
            h = random_portrait(2, 3, rng)
            gv, hv, cv = sign_vector(g), sign_vector(h), sign_vector(compose(g, h))
            assert cv == tuple(a * b for a, b in zip(gv, hv))

    def test_sign_surjective(self):
        """Every sign pattern in {-1,1}^k is realized, and on every portrait
        sigma_n is eps_(n-1) for even d and eps_0 ... eps_(n-1) for odd d,
        where eps_j is the product of the label signs at depth j."""
        for d, k in [(2, 2), (2, 3), (3, 2)]:
            seen = set()
            for g in all_portraits(d, k):
                eps = [math.prod(naive_perm_sign(p) for addr, p in g.labels.items()
                                 if len(addr) == j) for j in range(k)]
                expected = tuple(eps[n - 1] if d % 2 == 0 else math.prod(eps[:n])
                                 for n in range(1, k + 1))
                assert sign_vector(g) == expected
                seen.add(expected)
            assert seen == set(product((1, -1), repeat=k))

    def test_level_out_of_range(self):
        g = Portrait.identity(2, 2)
        with pytest.raises(ValueError, match=r"^level 0 not in 1\.\.2$"):
            sign_level(g, 0)
        with pytest.raises(ValueError, match=r"^level 3 not in 1\.\.2$"):
            sign_level(g, 3)
        with pytest.raises(ValueError, match=r"^level 5 not in 0\.\.2$"):
            leaf_permutation(g, 5)


class TestOrders:
    def test_group_order_formula(self):
        assert group_order(2, 0) == 1
        assert group_order(2, 1) == 2
        assert group_order(2, 2) == 8
        assert group_order(2, 3) == 128
        assert group_order(3, 2) == 1296

    def test_depth_0_computes_no_factorial(self, monkeypatch):
        def refuse(d):
            raise AssertionError(f"factorial({d}) computed")

        monkeypatch.setattr(math, "factorial", refuse)
        assert group_order(10**15, 0) == 1

    def test_group_order_matches_enumeration(self):
        for d, k in [(2, 1), (2, 2), (3, 1)]:
            assert sum(1 for _ in all_portraits(d, k)) == group_order(d, k)

    def test_group_order_wreath_recursion(self):
        for d in (2, 3):
            for k in range(1, 5):
                assert group_order(d, k) == math.factorial(d) * group_order(d, k - 1) ** d

