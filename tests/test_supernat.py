import math

import pytest
from hypothesis import given, strategies as st

from arborsign.supernat import INF, SupernaturalNumber

from_integer = SupernaturalNumber.from_integer


def trial_factor(n):
    """Independent factorization oracle: plain trial division."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class TestConstruction:
    def test_empty_is_one(self):
        assert str(SupernaturalNumber.one()) == "1"
        assert SupernaturalNumber.one().exponents == {}

    def test_zero_exponents_dropped(self):
        assert SupernaturalNumber({2: 0, 3: 1}) == SupernaturalNumber({3: 1})

    def test_rejects_composite_key(self):
        with pytest.raises(ValueError):
            SupernaturalNumber({4: 1})

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            SupernaturalNumber({2: -1})

    def test_accepts_inf_exponent(self):
        s = SupernaturalNumber({2: INF})
        assert s.exponent(2) == INF
        assert s.exponent(3) == 0

    def test_immutable(self):
        s = SupernaturalNumber({2: 1})
        with pytest.raises(AttributeError):
            s._exps = {}

    @pytest.mark.parametrize("n", [1, 2, 12, 360, 13824, 2**20 * 3**7])
    def test_from_integer_matches_trial_division(self, n):
        assert from_integer(n).exponents == trial_factor(n)

    def test_from_integer_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            from_integer(0)
        with pytest.raises(ValueError):
            from_integer(-6)


class TestArithmetic:
    def test_mul_adds_exponents(self):
        a = SupernaturalNumber({2: 3, 5: 1})
        b = SupernaturalNumber({2: 1, 3: 2})
        assert (a * b).exponents == {2: 4, 3: 2, 5: 1}

    def test_inf_absorbs(self):
        a = SupernaturalNumber({2: INF})
        b = SupernaturalNumber({2: 7})
        assert a * b == a
        assert a * a == a

    def test_divides(self):
        assert from_integer(12).divides(from_integer(360))
        assert not from_integer(7).divides(from_integer(360))
        assert from_integer(2**10).divides(SupernaturalNumber({2: INF}))
        assert not SupernaturalNumber({2: INF}).divides(from_integer(2**10))
        assert SupernaturalNumber({2: INF}).divides(SupernaturalNumber({2: INF, 3: 1}))

    def test_one_divides_everything(self):
        one = SupernaturalNumber.one()
        assert one.divides(from_integer(77))
        assert one * from_integer(77) == from_integer(77)

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    def test_mul_matches_integer_multiplication(self, a, b):
        assert from_integer(a) * from_integer(b) == from_integer(a * b)

    @given(st.integers(1, 10**4), st.integers(1, 10**4))
    def test_divides_matches_integers(self, a, b):
        assert from_integer(a).divides(from_integer(b)) == (b % a == 0)


class TestTextFormat:
    @pytest.mark.parametrize(
        "exps, text",
        [
            ({}, "1"),
            ({2: 1}, "2"),
            ({2: 3}, "2^3"),
            ({2: INF, 3: 2, 5: 1}, "2^inf * 3^2 * 5"),
        ],
    )
    def test_str(self, exps, text):
        assert str(SupernaturalNumber(exps)) == text

    @pytest.mark.parametrize("text", ["1", "2", "2^3", "2^inf * 3^2 * 5", " 7 * 11^inf "])
    def test_parse_round_trip(self, text):
        s = SupernaturalNumber.parse(text)
        assert SupernaturalNumber.parse(str(s)) == s

    @pytest.mark.parametrize("text", ["", "4", "2^", "2^-1", "2*2", "two"])
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            SupernaturalNumber.parse(text)

    def test_hash_consistent(self):
        assert hash(from_integer(12)) == hash(SupernaturalNumber({2: 2, 3: 1}))
        assert len({from_integer(12), SupernaturalNumber({3: 1, 2: 2})}) == 1
