"""F2 linear algebra on rational square classes.

A square class is carried by any nonzero integer in it, its representative,
a plain int: `same_class` compares two and `class_product` multiplies them.
A multiquadratic field Q(sqrt(a1), ..., sqrt(ar)) is modeled by the F2-span
of the classes ai.  Spans are decided without factoring.  The representatives
are refined by gcds into a coprime base none of whose elements is a perfect
square (factor refinement; Bach, Driscoll & Shallit, J. Algorithms 1993).
Pairwise-coprime nonsquares have independent classes, so the sign and the
exponent parities over that base are exact F2 coordinates, and membership,
composita, containment and disjointness are linear algebra over them.  A
class's signed squarefree kernel, `kernel`, and the reduced echelon form of a
span over the coordinates -1 and the primes, come from factoring and are
computed only when asked for, for output.
"""
from __future__ import annotations

import bisect
import math
from collections import namedtuple
from collections.abc import Callable, Iterable

from .exactpoly import RatPoly, squarefree_kernel_support
from .primes import ResourceBound, next_prime


class DepthExhausted(ResourceBound):
    """Every inspected stream element lay in the given span; retry deeper."""


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def kernel(rep: int) -> int:
    """The signed squarefree integer in the class of the nonzero integer rep,
    for output.  Factors rep: raises primes.ResourceBound when it is past
    factoring's budget."""
    return squarefree_kernel_support(rep)[0]


def class_product(a: int, b: int) -> int:
    """An integer in the class of a * b, with their common factor divided out
    of both."""
    g = math.gcd(a, b)
    return (a // g) * (b // g)


def same_class(a: int, b: int) -> bool:
    """Whether the nonzero integers a and b lie in one square class."""
    return _is_square(class_product(a, b))


# Kept for perfbench/tracer.py, which wraps it by name, as
# exactpoly.factor_degrees_mod_p is; its one caller, primes_stream, could
# return the prime itself.  It goes with ROADMAP item 3b.
def class_of(q) -> int:
    """An integer in the square class of a nonzero rational, an int or a
    Fraction."""
    n = q.numerator * q.denominator  # q times the square den^2
    if n == 0:
        raise ValueError("zero has no square class")
    return n


# ---------------------------------------------------------------------------
# Coordinates over a coprime base
# ---------------------------------------------------------------------------

Order = tuple[tuple[int, int], ...]  # (base element, coordinate bit), smallest first


def _refine(x: int, met: list[int]) -> list[int]:
    """A coprime base of nonsquares over which x > 1 and every element of
    `met` factor.

    `met` must be pairwise coprime with no element a perfect square.
    Elements sharing a gcd are split until all are coprime; the product of
    all pending elements drops at every split, so this ends.  A base element
    coprime to x and to every element of `met` is coprime to every part, so
    the parts replace `met` in a base and leave the rest of it as it is.
    """
    out = list(met)
    todo = [x]
    while todo:
        x = todo.pop()
        for b in out:
            while x % b == 0:
                x //= b
        if x == 1:
            continue
        for i, b in enumerate(out):
            g = math.gcd(x, b)
            if g > 1:
                del out[i]
                todo += (g, b // g, x // g)
                break
        else:
            while _is_square(x):
                x = math.isqrt(x)
            out.append(x)
    return out


def _by_size(base: list[int]) -> Order:
    """A refined base in size order, smallest first, numbered afresh: the
    j-th smallest element has the coordinate bit 1 << j."""
    return tuple((b, 1 << j) for j, b in enumerate(sorted(base), 1))


def _coordinates(n: int, order: Order) -> tuple[int, int]:
    """(v, x): n = sign * x * prod b^e_b over the base elements b, with x > 0
    divisible by no base element, and v the bit mask of the class of n / x:
    bit 0 is the sign, an element's bit the parity of its exponent.  v is
    the class's coordinates when x == 1.

    `order` is the base in size order.  What is left of n only shrinks, so
    the walk stops at the first element larger than it: no later one
    divides it."""
    v = int(n < 0)
    n = abs(n)
    for b, bit in order:
        if b > n:
            break
        while n % b == 0:
            n //= b
            v ^= bit
    return v, n


Rows = dict[int, int]  # pivot bit -> row, in reduced echelon form; never mutated

# ClassSubspace._read's mark for a class outside the span by its cofactor:
# negative, so no reduced coordinates equal it and no sign row cancels it.
_OUTSIDE = -1


def _reduce(v: int, rows: Rows) -> int:
    # Each pivot bit occurs in its own row only, so v reduces by the rows of
    # the pivot bits set in v itself: the walk is over v's bits, not the rows.
    r = v
    while v:
        bit = v & -v
        v ^= bit
        row = rows.get(bit)
        if row is not None:
            r ^= row
    return r


def _add_row(rows: Rows, r: int) -> Rows:
    """Add a nonzero vector already reduced by `rows`, keeping reduced form;
    its pivot is its lowest set bit."""
    p = r & -r
    out = {q: row ^ r if row & p else row for q, row in rows.items()}
    out[p] = r
    return out


class ClassSubspace:
    """An F2-span of square classes.

    Models the multiquadratic extension of Q generated by the square roots of
    the basis classes.  `basis` holds independent generators.  `_order` is a
    coprime base of nonsquares over which every basis representative
    factors, as (element, coordinate bit) pairs in increasing size with the
    bits 1 << 1 ... 1 << len(_order); `_product` is the product of its
    elements and `_rows` the reduced echelon form of the basis coordinates
    over it.  A class is read by one walk, `_coordinates`, into its
    coordinate bits and the cofactor the base leaves, and reduced by one
    function, `_reduce`.  `extend` decides the refinement from the cofactor:
    1 needs none; a cofactor coprime to the base adds its nonsquare root in
    size position with the next bit, and the rows stand; one that meets the
    base refines only the elements it meets, renumbers the bits and rebuilds
    the rows.  `_read` gives a class's reduced coordinates, or a mark when
    its cofactor is a coprime nonsquare, and None when the cofactor meets the
    base; `member` decides from that read, and in the last case asks whether
    `extend` returns the subspace itself.  `member` and `extend`, the two
    ways into a span, refuse zero.  `fiber_test` keeps the reads of one
    point scan.  Immutable: extend/compositum return new subspaces.
    """

    __slots__ = ("basis", "_order", "_rows", "_product")

    def __init__(self, basis: tuple[int, ...] = (), order: Order = (),
                 rows: Rows | None = None, product: int = 1):
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_rows", {} if rows is None else rows)
        object.__setattr__(self, "_product", product)  # of the base elements

    def __setattr__(self, name, value):
        raise AttributeError("ClassSubspace is immutable")

    @classmethod
    def span(cls, classes: Iterable[int]) -> "ClassSubspace":
        V = cls()
        for c in classes:
            V = V.extend(c)
        return V

    @classmethod
    def from_kernels(cls, kernels: Iterable[int]) -> "ClassSubspace":
        """The span of signed squarefree integers; rejects any other."""
        V = cls()
        for k in kernels:
            if k == 0:
                raise ValueError("kernel must be nonzero")
            if squarefree_kernel_support(k)[0] != k:
                raise ValueError(f"{k} is not squarefree")
            V = V.extend(k)
        return V

    @property
    def dim(self) -> int:
        return len(self.basis)

    def member(self, c: int) -> bool:
        """Whether the class of the nonzero integer c lies in the span."""
        if c == 0:
            raise ValueError("zero has no square class")
        r = self._read(c)
        if r is None:  # the cofactor meets the base: only extend decides
            return self.extend(c) is self
        return not r

    def _read(self, n: int) -> int | None:
        """The class of the nonzero integer n read over the base: its
        coordinates reduced by the rows, 0 iff the class lies in the span;
        _OUTSIDE when the cofactor the base leaves is coprime to the base and
        not a square; None when that cofactor meets the base."""
        v, x = _coordinates(n, self._order)
        if x != 1:
            if math.gcd(x, self._product) != 1:
                return None
            # x is coprime to the base, so the class is in the span iff that
            # of n / x is and the class of x is trivial: coprime parts of a
            # square are squares.
            if math.isqrt(x) ** 2 != x:
                return _OUTSIDE
        return _reduce(v, self._rows)

    def extend(self, c: int) -> "ClassSubspace":
        if c == 0:
            raise ValueError("zero has no square class")
        order, rows, product = self._order, self._rows, self._product
        v, x = _coordinates(c, order)
        if x != 1:
            g = math.gcd(x, product)
            if g == 1:
                # A new base element, coprime to every old one: the basis has
                # coordinate zero at it and the rows stand.  x is a power
                # 2^k of its nonsquare root, odd only for k = 0.
                odd = True
                while _is_square(x):
                    x = math.isqrt(x)
                    odd = False
                bit = 1 << (len(order) + 1)
                i = bisect.bisect(order, (x, bit))
                order = (*order[:i], (x, bit), *order[i:])
                product *= x
                if odd:
                    v ^= bit
            else:
                # x meets a base element b iff gcd(g, b) > 1, as every prime
                # of both divides g.  Every element is tested: the walk may
                # have stopped before one that x meets.  Only those met are
                # refined.
                kept, met = [], []
                for b, _ in order:
                    (met if math.gcd(g, b) > 1 else kept).append(b)
                parts = _refine(x, met)
                product = product // math.prod(met) * math.prod(parts)
                order = _by_size(kept + parts)
                rows = {}
                for b in self.basis:  # independent, so each row is nonzero
                    rows = _add_row(rows, _reduce(_coordinates(b, order)[0], rows))
                v = _coordinates(c, order)[0]
        r = _reduce(v, rows)
        if not r:
            return self
        return ClassSubspace(self.basis + (c,), order, _add_row(rows, r), product)

    def compositum(self, other: "ClassSubspace") -> "ClassSubspace":
        V = self
        for c in other.basis:
            V = V.extend(c)
        return V

    def contains(self, other: "ClassSubspace") -> bool:
        return all(self.member(c) for c in other.basis)

    def kernels(self) -> list[int]:
        """Sorted kernels of the reduced echelon basis over the coordinates
        -1, 2, 3, 5, ...; the JSON encoding of the subspace.  Bit 0 is -1,
        then the primes in increasing order, so each pivot is the lowest
        coordinate of its row.  Factors every basis representative, so it
        raises primes.ResourceBound when one is past factoring's budget."""
        supports = [squarefree_kernel_support(c) for c in self.basis]
        coords = [-1, *sorted({p for _, primes in supports for p in primes})]
        bit = {p: 1 << j for j, p in enumerate(coords)}
        rows: Rows = {}
        for k, primes in supports:  # independent, so each row is nonzero
            v = int(k < 0) + sum(bit[p] for p in primes)
            rows = _add_row(rows, _reduce(v, rows))
        return sorted(math.prod(p for j, p in enumerate(coords) if r >> j & 1)
                      for r in rows.values())


def intersection_dim(V: ClassSubspace, W: ClassSubspace) -> int:
    if not (V.dim and W.dim):  # a trivial span meets every span trivially
        return 0
    return V.dim + W.dim - V.compositum(W).dim


def disjoint_over(V: ClassSubspace, W: ClassSubspace) -> bool:
    """True iff the spans V and W intersect trivially.

    For the exponent-2 abelian extensions of Q modeled here, trivial
    intersection coincides with linear disjointness over Q.
    """
    return intersection_dim(V, W) == 0


class ClassStream(namedtuple("ClassStream", "name at")):
    """Deterministic enumerable sequence of square classes.

    The n-th element (0-based) is `at(n)`, a pure function of n, so streams
    can be truncated and re-inspected reproducibly.
    """

    __slots__ = ()

    def prefix(self, depth: int) -> list[int]:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        return [self.at(i) for i in range(depth)]


def primes_stream() -> ClassStream:
    found = [2]

    def at(i: int) -> int:
        while len(found) <= i:
            found.append(next_prime(found[-1]))
        return class_of(found[i])

    return ClassStream("primes", at)


def vast_witness(L: ClassStream, F: ClassSubspace, depth: int) -> int:
    """First class among the first `depth` stream elements outside span(F).

    The vastness hypothesis guarantees such a class exists at some depth;
    DepthExhausted only reports that this truncation was too short.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    for i in range(depth):  # element by element: a witness ends the scan
        c = L.at(i)
        if not F.member(c):
            return c
    raise DepthExhausted(f"no witness among the first {depth} elements of {L.name}")


def fiber_rep(h: RatPoly, num: int, den: int) -> int:
    """An integer in the square class of h(num/den), for den nonzero; 0 iff
    h(num/den) = 0."""
    return _fiber_values(h)(num, den)


def _fiber_values(h: RatPoly) -> Callable[[int, int], int]:
    """fiber_rep(h, ., .) with the coefficients of h bound once."""
    # With h = sum k_i t^i / L, the integer n = sum k_i num^i den^(d-i) is
    # h(num/den) L den^d, so h(num/den) lies in the class of n L den^(d mod 2).
    ks, scale, odd = h.nums[::-1], h.den, len(h.nums) % 2

    def value(num: int, den: int) -> int:
        n, bp = 0, 1
        for k in ks:
            n = n * num + k * bp
            bp *= den
        return n * scale if odd else n * scale * den

    return value


def fiber_test(h: RatPoly, F: ClassSubspace) -> Callable[[int, int], bool]:
    """A function of a point (num, den), den nonzero, equal to
    cover_fiber_integral(h, num, den, F), for the scans that test many
    points against one cover and one span.

    It reads the class of each |fiber integer| once, by F._read, and keeps
    what the read gives, the reduced coordinates or the mark _OUTSIDE, in a
    dict that lives as long as the function.  The class of -n is that of n
    plus the sign, and the reduction is linear over F2, so a negative value
    adds the sign's reduced row.  A cofactor that meets the base is decided
    as F.member decides it, by whether F.extend returns F, each time and not
    kept: its class is not read over F's base."""
    value, read, extend = _fiber_values(h), F._read, F.extend
    sign_row = _reduce(1, F._rows)
    classes: dict[int, int] = {}  # |n| -> F._read(|n|)

    def integral(num: int, den: int) -> bool:
        n = value(num, den)
        if not n:
            return False
        a = abs(n)
        r = classes.get(a)
        if r is None:
            r = read(a)
            if r is None:
                return extend(n) is not F
            classes[a] = r
        return (r ^ sign_row if n < 0 else r) != 0  # _OUTSIDE stays nonzero

    return integral


def cover_fiber_integral(h: RatPoly, num: int, den: int, F: ClassSubspace) -> bool:
    """Whether the fiber of y^2 = h(t) above t = num/den (den nonzero) is
    integral over the multiquadratic field modeled by F: h(num/den) nonzero
    and a nonsquare there.  The one-point call of fiber_test."""
    return fiber_test(h, F)(num, den)
