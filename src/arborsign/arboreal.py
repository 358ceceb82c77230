"""Arboreal data of a polynomial over a multiquadratic base-field model.

The square classes of the iterate discriminants disc(f^(on)) generate the
finite truncations of the discriminant subextensions; a class that falls into
the base field's span kills the corresponding level sign on the Galois image
and certifies an index lower bound.  Frobenius factor degrees mod good primes
give a one-sided splitting-field degree bound for the finite-level index
criterion.  All emitted claims are one-sided and sound; exact images are
never computed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import treegroup
from .exactpoly import BadPrime, RatPoly, discriminant, factor_degrees_mod_p, iterate
from .primes import next_prime
from .sqclass import ClassStream, ClassSubspace, SquareClass, class_of


class Inseparable(Exception):
    """disc(f^(on)) = 0 at some level n: the separability hypothesis on all
    iterates fails and every downstream statement is void."""

    def __init__(self, level: int):
        super().__init__(f"iterate at level {level} is inseparable")
        self.level = level


class NoGoodPrimes(Exception):
    """The inspected prime budget contained no prime of good reduction."""


# ---------------------------------------------------------------------------
# Discriminant classes of iterates
# ---------------------------------------------------------------------------

def _pure_quadratic_shift(f: RatPoly) -> Fraction | None:
    """c if f = x^2 + c, else None (the fast-path form)."""
    if f.degree == 2 and f.coeff(2) == 1 and f.coeff(1) == 0:
        return f.coeff(0)
    return None


@lru_cache(maxsize=None)
def _critical_orbit(c: Fraction, n: int) -> Fraction:
    """f^(on)(0) for f = x^2 + c."""
    if n == 0:
        return Fraction(0)
    v = _critical_orbit(c, n - 1)
    return v * v + c


def disc_class(f: RatPoly, n: int) -> SquareClass:
    """Square class of disc(f^(on)).

    For f = x^2 + c the class is read off the critical orbit: for n >= 2,
    disc(f^(on)) = 2^(2^n) * f^(on)(0) * disc(f^(o(n-1)))^2, so its square
    class equals that of f^(on)(0).  Other polynomials go through the generic
    resultant-based discriminant.
    """
    if f.degree < 2:
        raise ValueError("need deg f >= 2")
    if n < 1:
        raise ValueError("level must be >= 1")
    c = _pure_quadratic_shift(f)
    if c is not None:
        for m in range(1, n + 1):
            if _critical_orbit(c, m) == 0:
                raise Inseparable(m)
        if n == 1:
            return class_of(-4 * c)
        return class_of(_critical_orbit(c, n))
    d = discriminant(iterate(f, n))
    if d == 0:
        # locate the first inseparable level for a precise report
        for m in range(1, n + 1):
            if discriminant(iterate(f, m)) == 0:
                raise Inseparable(m)
        raise Inseparable(n)
    return class_of(d)


@dataclass(frozen=True)
class DiscClassSequence:
    """Classes of disc(f^(on)) for 1 <= n <= computed_to."""

    poly: RatPoly
    classes: tuple[SquareClass, ...]
    computed_to: int

    def at_level(self, n: int) -> SquareClass:
        if not 1 <= n <= self.computed_to:
            raise ValueError(f"level {n} not computed")
        return self.classes[n - 1]

    def kernels(self) -> list[int]:
        return [c.kernel for c in self.classes]


def disc_class_sequence(f: RatPoly, N: int) -> DiscClassSequence:
    if N < 1:
        raise ValueError("depth must be >= 1")
    classes = tuple(disc_class(f, n) for n in range(1, N + 1))
    return DiscClassSequence(f, classes, N)


def disc_stream(f: RatPoly, n: int) -> ClassStream:
    """Stream of disc(f^(om)) classes for m >= n; element i is level n + i."""
    if n < 1:
        raise ValueError("start level must be >= 1")
    return ClassStream(f"disc:{f}:{n}", lambda i: disc_class(f, n + i))


def discriminant_subextension(
    f: RatPoly, base: ClassSubspace, n: int, N: int
) -> ClassSubspace:
    """Depth-N truncation of the n-th discriminant subextension over `base`:
    the span of the disc classes at levels n..N joined to the base."""
    if n < 1 or N < n:
        raise ValueError("need 1 <= n <= N")
    V = base
    for m in range(n, N + 1):
        V = V.extend(disc_class(f, m))
    return V


# ---------------------------------------------------------------------------
# Killed signs and the finite-level index criterion
# ---------------------------------------------------------------------------

def killed_signs(f: RatPoly, F: ClassSubspace, k: int) -> frozenset[int]:
    """Levels n <= k whose disc class lies in span(F).

    Each such level forces the sign homomorphism at that level to vanish on
    the arboreal image over the field modeled by F, so the image index in
    Aut T_k(d) is at least 2^(number of killed levels).
    """
    if k < 1:
        raise ValueError("level must be >= 1")
    return frozenset(n for n in range(1, k + 1) if F.member(disc_class(f, n)))


def splitting_degree_lower_bound(f: RatPoly, k: int, prime_budget: int) -> int:
    """A certified divisor of the splitting-field degree of f^(ok).

    Scans the first `prime_budget` primes; each good prime contributes the lcm
    of its factor degrees (the Frobenius order, which divides the splitting
    degree), and contributions merge by lcm.  Monotone in the budget.
    """
    if prime_budget < 1:
        raise ValueError("prime budget must be >= 1")
    for m in range(1, k + 1):
        disc_class(f, m)  # raises Inseparable on a degenerate level
    fk = iterate(f, k)
    bound = 1
    good = 0
    p = 2
    for _ in range(prime_budget):
        try:
            pattern = factor_degrees_mod_p(fk, p)
        except BadPrime:
            pass
        else:
            good += 1
            bound = math.lcm(bound, pattern.lcm())
        p = next_prime(p)
    if good == 0:
        raise NoGoodPrimes(f"no good prime among the first {prime_budget}")
    return bound


@dataclass(frozen=True)
class IndexCertificate:
    """One-sided evidence about the index of the arboreal image at level k."""

    poly: RatPoly
    base: ClassSubspace
    level: int
    killed: frozenset[int]
    index_lower_bound: int
    degree_lower_bound: int | None
    group_order: int
    verdict: str

    def to_json(self) -> dict:
        return {
            "poly": str(self.poly),
            "base": self.base.kernels(),
            "level": self.level,
            "killed": sorted(self.killed),
            "index_lower_bound": self.index_lower_bound,
            "degree_lower_bound": self.degree_lower_bound,
            "group_order": self.group_order,
            "verdict": self.verdict,
        }


def index_report(
    f: RatPoly, F: ClassSubspace, k: int, n: int, prime_budget: int
) -> IndexCertificate:
    """Test the level-k truncation of "image has index at most n".

    REFUTES_INDEX_AT_MOST(n) when the killed signs already force index
    2^|killed| > n; CONSISTENT when the Frobenius degree bound reaches
    |Aut T_k(d)| / n; UNKNOWN otherwise (both bounds are reported).
    """
    if k < 1:
        raise ValueError("level must be >= 1")
    if n < 1:
        raise ValueError("index bound must be >= 1")
    order = treegroup.group_order(f.degree, k)
    try:
        killed = killed_signs(f, F, k)
    except Inseparable:
        return IndexCertificate(f, F, k, frozenset(), 1, None, order, "INSEPARABLE")
    ilb = 2 ** len(killed)
    dlb = splitting_degree_lower_bound(f, k, prime_budget)
    if ilb > n:
        verdict = f"REFUTES_INDEX_AT_MOST({n})"
    elif dlb * n >= order:
        verdict = "CONSISTENT"
    else:
        verdict = "UNKNOWN"
    return IndexCertificate(f, F, k, killed, ilb, dlb, order, verdict)
