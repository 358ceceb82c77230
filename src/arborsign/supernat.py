"""The supernatural order of the profinite group Aut T_inf(d), as text.

A supernatural number is a formal product prod_p p^(e_p) with exponents in
{0, 1, 2, ...} or infinity; it measures the order of a profinite group, where
an ordinary integer does not suffice.  The only one the program forms is the
order of Aut T_inf(d), which `group-order` prints.
"""
from __future__ import annotations

from .primes import is_prime


def aut_order_supernatural(d: int) -> str:
    """Order of Aut T_inf(d), p^inf for every prime p <= d, e.g. "2^inf * 3^inf".

    Every prime dividing d! divides the finite truncation orders with
    unbounded multiplicity as the depth grows.
    """
    if d < 2:
        raise ValueError("arity must be >= 2")
    return " * ".join(f"{p}^inf" for p in range(2, d + 1) if is_prime(p))
