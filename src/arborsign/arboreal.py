"""Arboreal data of a polynomial over a multiquadratic base-field model.

The square classes of the iterate discriminants disc(f^(on)) generate the
finite truncations of the discriminant subextensions; a class that falls into
the base field's span kills the corresponding level sign on the Galois image
and certifies an index lower bound.  The order of Frobenius at good primes
(the lcm of the factor degrees mod p) gives a one-sided splitting-field degree
bound for the finite-level index criterion.  All emitted claims are one-sided
and sound; exact images are never computed.
"""
from __future__ import annotations

import math
from functools import lru_cache

from .exactpoly import (
    BadPrime,
    RatPoly,
    _horner,
    _int_resultant,
    _prem,
    _trim,
    frobenius_order_mod_p,
    iterate,
)
from .primes import ResourceBound, next_prime
from .sqclass import ClassStream, ClassSubspace, class_product


class Inseparable(Exception):
    """disc(f^(on)) = 0 at some level n: the separability hypothesis on all
    iterates fails and every downstream statement is void."""

    def __init__(self, level: int):
        super().__init__(f"iterate at level {level} is inseparable")
        self.level = level


# ---------------------------------------------------------------------------
# Discriminant classes of iterates
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def _critical_orbit(f: RatPoly, n: int) -> tuple[tuple[int, ...], int, int]:
    """(P, D, class of disc(f^(on))), where R_n = f^(on) mod f' = P / D for an
    integer polynomial P (low to high, trimmed) and an integer D > 0 coprime
    to the content of P.

    With L f = F and L f' = g integral (F = f.nums, L = f.den), R_n is the
    remainder of f(R_(n-1)) = A / (L D^d), A = sum F_i P^i D^(d-i), by g: the
    pseudo-remainder of A by g over lc(g)^k L D^d, k = deg A - deg g + 1 (no
    reduction and k = 0 when deg A < deg g).  Res(f', P/D) is
    L^(-deg P) D^(1-d) Res(g, P), so with e = d^n - deg R_n the class of
    s_n * lc(f) * lc(f')^e * Res(f', R_n) is that of the integer
    s_n * F_d * lc(g)^e * Res(g, P), times L D when d is even.

    Raises Inseparable at the first level m <= n with disc(f^(om)) = 0.
    """
    F, L = f.nums, f.den
    g = [i * c for i, c in enumerate(F)][1:]
    if n == 0:
        P, D = _remainder([0, 1], 1, g)
        return P, D, 1
    P, D, prev = _critical_orbit(f, n - 1)
    A, Dk = _horner(F, P, D)
    P, D = _remainder(A, L * Dk, g)
    res = _int_resultant(g, P) if P else 0
    if res == 0:
        raise Inseparable(n)
    d = f.degree
    e = (d - len(P) + 1) % 2  # d^n - deg P, mod 2
    rep = _level_sign(d, n) * F[-1] * g[-1] ** e * res
    if d % 2:
        return P, D, class_product(rep, prev)
    return P, D, rep * L * D


def _remainder(A: list[int], D: int, g: list[int]) -> tuple[tuple[int, ...], int]:
    """(A / D) mod g as (P, D') in lowest terms, with D' > 0."""
    _trim(A)
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


def disc_class(f: RatPoly, n: int) -> int:
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


def disc_class_sequence(f: RatPoly, N: int) -> tuple[int, ...]:
    """Classes of disc(f^(on)) for 1 <= n <= N."""
    if N < 1:
        raise ValueError("depth must be >= 1")
    return tuple(disc_class(f, n) for n in range(1, N + 1))


# Deepest iterate level a stream is read to (construct.VastSpec.subspace and
# the CLI's `vast-witness --stream` check it) and a trace step may name,
# vast.n + depth_checked - 1.  Classes double in bits per level (x^2 + 1 has
# 4.9 Mbit at level 24), so a run needing a later one aborts.
MAX_STREAM_LEVEL = 24

# Largest point height max(|num|, den) a run searches (`simulate --height`)
# and a trace step may record: verify scans ~1.2 H^2 rationals up to height H.
MAX_POINT_HEIGHT = 4096


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

    Scans the first `prime_budget` primes; each good prime contributes the
    order of its Frobenius on the level-k roots (the lcm of the factor degrees
    mod p, which divides the splitting degree), and contributions merge by
    lcm.  Monotone in the budget.

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
            order = frobenius_order_mod_p(fk, p)
        except BadPrime:
            pass
        else:
            good += 1
            bound = math.lcm(bound, order)
            if bound == exponent:
                break
        p = next_prime(p)
    if good == 0:
        raise ResourceBound(f"no good prime among the first {prime_budget}")
    return bound


def index_report(f: RatPoly, F: ClassSubspace, k: int, n: int, prime_budget: int) -> dict:
    """Test the level-k truncation of "image has index at most n"; the
    report's JSON payload.

    REFUTES_INDEX_AT_MOST(n) when the killed signs already force index
    2^|killed| > n.  CONSISTENT when dlb * n >= |Aut T_k(d)| * 2^dim F, where
    dlb is the Frobenius lower bound on the degree of the level-k splitting
    field K_k over Q: the image over the field F models has order
    [F K_k : F] = [K_k : F ∩ K_k] >= dlb / 2^dim F, so CONSISTENT asserts
    that the level-k image over F has index at most n in Aut T_k(d).
    UNKNOWN otherwise (both bounds are reported).  INSEPARABLE, with no
    degree bound, when a level up to k is inseparable.
    """
    if k < 1:
        raise ValueError("level must be >= 1")
    if n < 1:
        raise ValueError("index bound must be >= 1")
    # deferred: of all commands only this one and group-order load treegroup
    from .treegroup import group_order

    order = group_order(f.degree, k)
    try:
        killed = killed_signs(f, F, k)
    except Inseparable:
        killed, dlb, verdict = frozenset(), None, "INSEPARABLE"
    else:
        dlb = splitting_degree_lower_bound(f, k, prime_budget)
        if 2 ** len(killed) > n:
            verdict = f"REFUTES_INDEX_AT_MOST({n})"
        elif dlb * n >= order * 2**F.dim:
            verdict = "CONSISTENT"
        else:
            verdict = "UNKNOWN"
    return {
        "poly": str(f),
        "base": F.kernels(),
        "level": k,
        "killed": sorted(killed),
        "index_lower_bound": 2 ** len(killed),
        "degree_lower_bound": dlb,
        "group_order": order,
        "verdict": verdict,
    }
