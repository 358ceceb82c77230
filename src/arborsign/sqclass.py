"""F2 linear algebra on rational square classes.

A square class is carried by any nonzero integer in it, its representative;
a multiquadratic field Q(sqrt(a1), ..., sqrt(ar)) is modeled by the F2-span of
the classes ai.  Spans are decided without factoring.  The representatives
are refined by gcds into a coprime base none of whose elements is a perfect
square (factor refinement; Bach, Driscoll & Shallit, J. Algorithms 1993).
Pairwise-coprime nonsquares have independent classes, so the sign and the
exponent parities over that base are exact F2 coordinates, and membership,
composita, containment and disjointness are linear algebra over them.  A
class's signed squarefree kernel, and the reduced echelon form of a span over
the coordinates -1 and the primes, come from factoring and are computed only
when asked for, for output.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from fractions import Fraction

from .exactpoly import RatPoly, Rational, squarefree_kernel_support
from .primes import next_prime


class BaseNotContained(ValueError):
    """disjoint_over called with a base not contained in both subspaces."""


class DepthExhausted(RuntimeError):
    """Every inspected stream element lay in the given span; retry deeper."""


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


class SquareClass:
    """A rational square class, carried by a nonzero integer representative.

    Equality is square-class equality: a == b iff a.rep * b.rep is a square.
    `kernel` and `support` factor the representative and are meant for output.
    Instances are immutable.
    """

    __slots__ = ("rep",)

    def __init__(self, rep: int):
        if rep == 0:
            raise ValueError("zero has no square class")
        object.__setattr__(self, "rep", rep)

    def __setattr__(self, name, value):
        raise AttributeError("SquareClass is immutable")

    @classmethod
    def trivial(cls) -> "SquareClass":
        return cls(1)

    @classmethod
    def from_kernel(cls, k: int) -> "SquareClass":
        """Build from a signed squarefree integer; rejects non-squarefree input."""
        if k == 0:
            raise ValueError("kernel must be nonzero")
        if squarefree_kernel_support(k)[0] != k:
            raise ValueError(f"{k} is not squarefree")
        return cls(k)

    @property
    def kernel(self) -> int:
        """The signed squarefree integer in the class."""
        return squarefree_kernel_support(self.rep)[0]

    @property
    def support(self) -> frozenset[int]:
        """Coordinates with odd exponent: -1 and/or primes."""
        k, primes = squarefree_kernel_support(self.rep)
        return frozenset((-1, *primes) if k < 0 else primes)

    @property
    def is_trivial(self) -> bool:
        return _is_square(self.rep)

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        g = math.gcd(self.rep, other.rep)
        return SquareClass((self.rep // g) * (other.rep // g))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SquareClass):
            return NotImplemented
        return (self * other).is_trivial

    def __hash__(self) -> int:
        # the sign and the exponent parities at any prime are class invariants
        n, key = abs(self.rep), [self.rep < 0]
        for p in (2, 3, 5, 7, 11, 13):
            odd = False
            while n % p == 0:
                n //= p
                odd = not odd
            key.append(odd)
        return hash(tuple(key))

    def __str__(self) -> str:
        return str(self.kernel)


def class_of(q: Rational) -> SquareClass:
    """The square class of a nonzero rational."""
    q = Fraction(q)
    # q and num*den differ by the square den^2.
    return SquareClass(q.numerator * q.denominator)


# ---------------------------------------------------------------------------
# Coordinates over a coprime base
# ---------------------------------------------------------------------------

def _refine(base: tuple[int, ...], n: int) -> tuple[int, ...]:
    """A coprime base over which n > 0 and every element of `base` factor.

    `base` must be pairwise coprime with no element a perfect square; the
    result keeps both properties and equals `base` when n already factors
    over it.  Elements sharing a gcd are split until all are coprime; the
    product of all pending elements drops at every split, so this ends.
    """
    out = list(base)
    todo = [n]
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
    return tuple(out)


def _by_size(base: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(element, coordinate bit) for each element of a base, smallest first;
    the element base[j-1] has bit 1 << j."""
    return tuple(sorted((b, 1 << j) for j, b in enumerate(base, 1)))


def _coordinates(n: int, order: tuple[tuple[int, int], ...]) -> tuple[int, int]:
    """(v, x): n = sign * x * prod base[j-1]^e_j with x > 0 divisible by no
    base element, and v the bit mask of the class of n / x: bit 0 is the sign,
    bit j the parity of e_j.  v is the class's coordinates when x == 1.

    `order` is `_by_size(base)`.  What is left of n only shrinks, so the walk
    stops at the first element larger than it: no later one divides it."""
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
    """Add a nonzero vector already reduced by `rows`, keeping reduced form."""
    p = r & -r
    out = {q: row ^ r if row & p else row for q, row in rows.items()}
    out[p] = r
    return out


def _echelon(classes: Iterable[SquareClass], base: tuple[int, ...]) -> Rows:
    order = _by_size(base)
    rows: Rows = {}
    for c in classes:
        r = _reduce(_coordinates(c.rep, order)[0], rows)
        if r:
            rows = _add_row(rows, r)
    return rows


# A prime coordinate is -1 or a prime.  -1 sorts first, primes in increasing order.
def _coord_key(c: int) -> tuple[int, int]:
    return (0, 0) if c == -1 else (1, c)


def _pivot(vec: frozenset[int]) -> int:
    return min(vec, key=_coord_key)


class ClassSubspace:
    """An F2-span of square classes.

    Models the multiquadratic extension of Q generated by the square roots of
    the basis classes.  `basis` holds independent generators; `_base` is a
    coprime base of nonsquares over which every basis representative factors,
    and `_rows` the reduced echelon form of the basis coordinates over it.
    `_order` caches the base in increasing size (`_by_size`), and `_product`
    its product, once membership needs them.  Immutable: extend/compositum
    return new subspaces.  Equality is equality of spans.
    """

    __slots__ = ("basis", "_base", "_rows", "_order", "_product")

    def __init__(self, basis: tuple[SquareClass, ...] = (), base: tuple[int, ...] = (),
                 rows: Rows | None = None):
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_base", base)
        object.__setattr__(self, "_rows", {} if rows is None else rows)
        object.__setattr__(self, "_order", None)
        object.__setattr__(self, "_product", None)

    def __setattr__(self, name, value):
        raise AttributeError("ClassSubspace is immutable")

    @classmethod
    def span(cls, classes: Iterable[SquareClass]) -> "ClassSubspace":
        V = cls()
        for c in classes:
            V = V.extend(c)
        return V

    @classmethod
    def from_kernels(cls, kernels: Iterable[int]) -> "ClassSubspace":
        return cls.span(SquareClass.from_kernel(k) for k in kernels)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _locate(self, rep: int) -> tuple[tuple[int, ...], Rows, int]:
        """The base refined by rep, the basis rows over it, and the reduced
        vector of rep's class."""
        old = self._base
        base = _refine(old, abs(rep))
        # Elements only appended to the base are coprime to every old one, so
        # the basis has coordinate zero at each of them and the rows stand.
        rows = self._rows if base[: len(old)] == old else _echelon(self.basis, base)
        return base, rows, _reduce(_coordinates(rep, _by_size(base))[0], rows)

    def member(self, c: SquareClass) -> bool:
        return self._member(c.rep)

    def _member(self, rep: int) -> bool:
        """Whether the class of the nonzero integer rep lies in the span."""
        if self._order is None:
            object.__setattr__(self, "_order", _by_size(self._base))
        v, x = _coordinates(rep, self._order)
        if x != 1:
            if self._product is None:
                object.__setattr__(self, "_product", math.prod(self._base))
            if math.gcd(x, self._product) != 1:
                return not self._locate(rep)[2]
        # x is coprime to the base, so the class is in the span iff that of
        # rep / x is and the class of x is trivial: coprime parts of a square
        # are squares.
        return _is_square(x) and not _reduce(v, self._rows)

    def extend(self, c: SquareClass) -> "ClassSubspace":
        base, rows, r = self._locate(c.rep)
        if not r:
            return self
        return ClassSubspace(self.basis + (c,), base, _add_row(rows, r))

    def compositum(self, other: "ClassSubspace") -> "ClassSubspace":
        V = self
        for c in other.basis:
            V = V.extend(c)
        return V

    __add__ = compositum

    def contains(self, other: "ClassSubspace") -> bool:
        return all(self.member(c) for c in other.basis)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClassSubspace):
            return NotImplemented
        return self.dim == other.dim and self.contains(other)

    def __hash__(self) -> int:
        return hash(self.dim)

    def kernels(self) -> list[int]:
        """Sorted kernels of the reduced echelon basis over the coordinates
        -1, 2, 3, 5, ...; the JSON encoding of the subspace.  Factors every
        basis representative."""
        vecs: list[frozenset[int]] = []
        for c in self.basis:
            r = c.support
            for v in vecs:
                if _pivot(v) in r:
                    r ^= v
            p = _pivot(r)
            vecs = [v ^ r if p in v else v for v in vecs] + [r]
        return sorted(math.prod(v) for v in vecs)

    def __str__(self) -> str:
        return "span{" + ", ".join(str(k) for k in self.kernels()) + "}"


def intersection_dim(V: ClassSubspace, W: ClassSubspace) -> int:
    return V.dim + W.dim - V.compositum(W).dim


def disjoint_over(V: ClassSubspace, W: ClassSubspace, B: ClassSubspace) -> bool:
    """True iff the spans V and W intersect exactly in B.

    For the exponent-2 abelian extensions modeled here, trivial intersection
    over the base coincides with linear disjointness.
    """
    if not (V.contains(B) and W.contains(B)):
        raise BaseNotContained("base subspace is not contained in both operands")
    return intersection_dim(V, W) == B.dim


class ClassStream:
    """Deterministic enumerable sequence of square classes.

    The n-th element (0-based) is a pure function of n, so streams can be
    truncated and re-inspected reproducibly.
    """

    __slots__ = ("name", "at")

    def __init__(self, name: str, at: Callable[[int], SquareClass]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "at", at)

    def __setattr__(self, name, value):
        raise AttributeError("ClassStream is immutable")

    def prefix(self, depth: int) -> list[SquareClass]:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        return [self.at(i) for i in range(depth)]


def primes_stream() -> ClassStream:
    found = [2]

    def at(i: int) -> SquareClass:
        while len(found) <= i:
            found.append(next_prime(found[-1]))
        return class_of(found[i])

    return ClassStream("primes", at)


def stream_from_name(name: str) -> ClassStream:
    """Resolve a named stream: "primes" or "disc:<poly>:<n>"."""
    if name == "primes":
        return primes_stream()
    if name.startswith("disc:"):
        from .arboreal import disc_stream  # deferred: arboreal imports this module

        parts = name.split(":")
        if len(parts) != 3:
            raise ValueError(f"malformed stream name {name!r}")
        f = RatPoly.parse(parts[1])
        n = int(parts[2].lstrip("n>=≥ "))
        return disc_stream(f, n)
    raise ValueError(f"unknown stream {name!r}")


def vast_witness(L: ClassStream, F: ClassSubspace, depth: int) -> SquareClass:
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


def cover_fiber_integral(h: RatPoly, num: int, den: int, F: ClassSubspace) -> bool:
    """Whether the fiber of y^2 = h(t) above t = num/den (den nonzero) is
    integral over the multiquadratic field modeled by F: h(num/den) nonzero
    and a nonsquare there."""
    # With L h = sum k_i t^i integral, the integer n = sum k_i num^i den^(d-i)
    # is h(num/den) L den^d, so h(num/den) = 0 iff n = 0 and h(num/den) lies
    # in the class of n L den^(d mod 2).
    ks, L = h.cleared()
    n, bp = 0, 1
    for k in reversed(ks):
        n = n * num + k * bp
        bp *= den
    if n == 0:
        return False
    return not F._member(n * L * (den if h.degree % 2 else 1))
