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
from functools import lru_cache

from . import treegroup
from .exactpoly import BadPrime, RatPoly, _int_resultant, _prem, factor_degrees_mod_p, iterate
from .primes import next_prime
from .sqclass import ClassStream, ClassSubspace, SquareClass


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

@lru_cache(maxsize=1024)
def _critical_orbit(f: RatPoly, n: int) -> tuple[tuple[int, ...], int, SquareClass]:
    """(P, D, class of disc(f^(on))), where R_n = f^(on) mod f' = P / D for an
    integer polynomial P (low to high, trimmed) and an integer D > 0 coprime
    to the content of P.

    With L f = F and L f' = g integral (L from f.cleared()), R_n is the
    remainder of f(R_(n-1)) = A / (L D^d), A = sum F_i P^i D^(d-i), by g: the
    pseudo-remainder of A by g over lc(g)^k L D^d, k = deg A - deg g + 1 (no
    reduction and k = 0 when deg A < deg g).  Res(f', P/D) is
    L^(-deg P) D^(1-d) Res(g, P), so with e = d^n - deg R_n the class of
    s_n * lc(f) * lc(f')^e * Res(f', R_n) is that of the integer
    s_n * F_d * lc(g)^e * Res(g, P), times L D when d is even.

    Raises Inseparable at the first level m <= n with disc(f^(om)) = 0.
    """
    F, L = f.cleared()
    g = [i * c for i, c in enumerate(F)][1:]
    if n == 0:
        P, D = _remainder([0, 1], 1, g)
        return P, D, SquareClass.trivial()
    P, D, prev = _critical_orbit(f, n - 1)
    A, Dk = [F[-1]], 1
    for c in reversed(F[:-1]):  # Horner's rule on the numerators
        Dk *= D
        A = _int_mul(A, P)
        A[0] += c * Dk
    P, D = _remainder(A, L * Dk, g)
    res = _int_resultant(g, P) if P else 0
    if res == 0:
        raise Inseparable(n)
    d = f.degree
    e = (d - len(P) + 1) % 2  # d^n - deg P, mod 2
    rep = _level_sign(d, n) * F[-1] * g[-1] ** e * res
    if d % 2:
        return P, D, SquareClass(rep) * prev
    return P, D, SquareClass(rep * L * D)


def _int_mul(a: list[int], b: tuple[int, ...]) -> list[int]:
    """Product of integer polynomials, for a nonempty; all zeros when b is empty."""
    out = [0] * max(len(a) + len(b) - 1, 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _remainder(A: list[int], D: int, g: list[int]) -> tuple[tuple[int, ...], int]:
    """(A / D) mod g as (P, D') in lowest terms, with D' > 0."""
    while A and A[-1] == 0:
        A.pop()
    k = len(A) - len(g) + 1
    if k > 0:
        A, D = _prem(A, g), D * g[-1] ** k
    c = math.gcd(D, *A)
    if D < 0:
        c = -c
    return tuple(a // c for a in A), D // c


def _level_sign(d: int, n: int) -> int:
    """s_n = (-1)^(D(D-1)/2 + d E(E-1)/2) for D = d^n, E = d^(n-1)."""
    D, E = d**n, d ** (n - 1)
    return -1 if (D * (D - 1) // 2 + d * (E * (E - 1) // 2)) % 2 else 1


def disc_class(f: RatPoly, n: int) -> SquareClass:
    """Square class of disc(f^(on)), read off the critical orbit.

    With a = lc f, D = d^n and E = d^(n-1), writing f^(on) = f^(o(n-1)) o f
    in disc = (-1)^(D(D-1)/2) Res(F, F') / lc F gives

        disc(f^(on)) = s_n * a^(d E (E-1) - 1) * disc(f^(o(n-1)))^d * Res(f', f^(on)),
        s_n = (-1)^(D(D-1)/2 + d E(E-1)/2),  disc(f^(o0)) = 1,

    and Res(f', f^(on)) = lc(f')^(D - deg R_n) * Res(f', R_n) for
    R_n = f^(on) mod f', iterated on integers as R_n = f(R_(n-1)) mod f' in
    Q[x]/(f') (see _critical_orbit; Aitken, Hajir & Maire, IMRN 2005; Jones,
    J. LMS 2008).  Up to squares
    disc(f^(on)) is s_n * a * lc(f')^(D - deg R_n) * Res(f', R_n), times the
    class of disc(f^(o(n-1))) when d is odd; it is zero iff
    disc(f^(o(n-1))) = 0 or Res(f', R_n) = 0.  For x^2 + c the class is that
    of f^(on)(0), and of -c at n = 1.
    """
    if f.degree < 2:
        raise ValueError("need deg f >= 2")
    if n < 1:
        raise ValueError("level must be >= 1")
    return _critical_orbit(f, n)[2]


class DiscClassSequence:
    """Classes of disc(f^(on)) for 1 <= n <= computed_to.  Immutable."""

    __slots__ = ("poly", "classes", "computed_to")

    def __init__(self, poly: RatPoly, classes: tuple[SquareClass, ...], computed_to: int):
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "computed_to", computed_to)

    def __setattr__(self, name, value):
        raise AttributeError("DiscClassSequence is immutable")

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
    if f.degree < 2:
        raise ValueError("need deg f >= 2")
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

    At a good prime every level of the tree is squarefree, so Frobenius acts
    on the roots as an element of Aut T_k(d), whose order divides the
    exponent lcm(1..d)^k of the group: an element's order is the lcm, over
    the cycles of its top permutation, of the cycle length c <= d times the
    order of the product of the c subtree labels along the cycle.  Once the
    bound reaches the exponent no further prime can raise it, and the scan
    stops.
    """
    if prime_budget < 1:
        raise ValueError("prime budget must be >= 1")
    disc_class(f, k)  # raises Inseparable on a degenerate level
    fk = iterate(f, k)
    exponent = math.lcm(*range(1, f.degree + 1)) ** k
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
            if bound == exponent:
                break
        p = next_prime(p)
    if good == 0:
        raise NoGoodPrimes(f"no good prime among the first {prime_budget}")
    return bound


class IndexCertificate:
    """One-sided evidence about the index of the arboreal image at level k.

    Instances are immutable.
    """

    __slots__ = ("poly", "base", "level", "killed", "index_lower_bound",
                 "degree_lower_bound", "group_order", "verdict")

    def __init__(
        self,
        poly: RatPoly,
        base: ClassSubspace,
        level: int,
        killed: frozenset[int],
        index_lower_bound: int,
        degree_lower_bound: int | None,
        group_order: int,
        verdict: str,
    ):
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "killed", killed)
        object.__setattr__(self, "index_lower_bound", index_lower_bound)
        object.__setattr__(self, "degree_lower_bound", degree_lower_bound)
        object.__setattr__(self, "group_order", group_order)
        object.__setattr__(self, "verdict", verdict)

    def __setattr__(self, name, value):
        raise AttributeError("IndexCertificate is immutable")

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
    2^|killed| > n.  CONSISTENT when dlb * n >= |Aut T_k(d)| * 2^dim F, where
    dlb is the Frobenius lower bound on the degree of the level-k splitting
    field K_k over Q: the image over the field F models has order
    [F K_k : F] = [K_k : F ∩ K_k] >= dlb / 2^dim F, so CONSISTENT asserts
    that the level-k image over F has index at most n in Aut T_k(d).
    UNKNOWN otherwise (both bounds are reported).
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
    elif dlb * n >= order * 2**F.dim:
        verdict = "CONSISTENT"
    else:
        verdict = "UNKNOWN"
    return IndexCertificate(f, F, k, killed, ilb, dlb, order, verdict)
