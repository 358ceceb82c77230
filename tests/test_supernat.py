import math

import pytest
import sympy

from arborsign.supernat import aut_order_supernatural


class TestAutOrderSupernatural:
    def test_exact_strings(self):
        assert aut_order_supernatural(2) == "2^inf"
        assert aut_order_supernatural(3) == "2^inf * 3^inf"
        assert aut_order_supernatural(4) == "2^inf * 3^inf"
        assert aut_order_supernatural(6) == "2^inf * 3^inf * 5^inf"

    def test_arity_at_the_cap(self):
        factors = aut_order_supernatural(10_000).split(" * ")
        assert len(factors) == 1229
        assert factors[-1] == "9973^inf"

    @pytest.mark.parametrize("d", [1, 0, -3])
    def test_rejects_arity_below_2(self, d):
        with pytest.raises(ValueError):
            aut_order_supernatural(d)

    def test_primes_are_those_of_the_finite_orders(self):
        """The primes listed are those of d!, which are the primes of every
        finite truncation order |Aut T_k(d)| = (d!)^e for k >= 1."""
        for d in range(2, 201):
            listed = [int(f.removesuffix("^inf")) for f in aut_order_supernatural(d).split(" * ")]
            assert listed == sympy.primefactors(math.factorial(d)), d
