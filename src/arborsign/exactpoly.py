"""Exact univariate polynomial arithmetic over Q and over prime fields.

Provides the polynomial engine for everything downstream: composition and
iteration, resultants via a fraction-free subresultant remainder sequence,
discriminants, squarefree kernels of rationals, and factor-degree patterns of
reductions mod p (squarefree + distinct-degree factorization; equal-degree
splitting is never needed because only degrees are consumed).
"""
from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterable, Sequence
from functools import lru_cache
from operator import mul

from . import primes


class ParseError(ValueError):
    """Polynomial text that violates the grammar; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class BadPrime(ValueError):
    """Prime of bad reduction: divides a denominator, the leading
    coefficient, or the discriminant of the polynomial being reduced."""


class RatPoly:
    """Univariate polynomial with exact rational coefficients.

    Kept in its unique normal form: integer numerators `nums`, low to high
    with a nonzero last one (empty for the zero polynomial), over one
    denominator `den` > 0 coprime to their content (1 for the zero
    polynomial).  The coefficient of x^i is nums[i] / den, and `den` is the
    lcm of the coefficients' denominators.  Instances are immutable.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable = ()):
        """From coefficients low to high: ints, Fractions or anything else
        with `numerator` and `denominator`."""
        cs = list(coeffs)
        den = math.lcm(*(c.denominator for c in cs))
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    def _set(self, nums: list[int], den: int) -> None:
        while nums and nums[-1] == 0:
            nums.pop()
        g = math.gcd(den, *nums)
        object.__setattr__(self, "nums", tuple(n // g for n in nums) if g > 1 else tuple(nums))
        object.__setattr__(self, "den", den // g)

    @classmethod
    def _of(cls, nums: list[int], den: int) -> "RatPoly":
        """sum(nums[i] x^i) / den for den > 0; consumes `nums`."""
        f = object.__new__(cls)
        f._set(nums, den)
        return f

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls()

    @classmethod
    def constant(cls, q) -> "RatPoly":
        return cls((q,))

    @classmethod
    def x(cls) -> "RatPoly":
        return cls((0, 1))

    @classmethod
    def parse(cls, text: str) -> "RatPoly":
        return _parse_poly(text)

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "RatPoly") -> "RatPoly":
        den = math.lcm(self.den, other.den)
        out = [0] * max(len(self.nums), len(other.nums))
        for f in (self, other):
            m = den // f.den
            for i, k in enumerate(f.nums):
                out[i] += k * m
        return RatPoly._of(out, den)

    def __neg__(self) -> "RatPoly":
        return RatPoly._of([-k for k in self.nums], self.den)

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __mul__(self, other: "RatPoly") -> "RatPoly":
        return RatPoly._of(_int_mul(self.nums, other.nums), self.den * other.den)

    def scale(self, q) -> "RatPoly":
        """q times self, for an int or Fraction q."""
        return RatPoly._of([k * q.numerator for k in self.nums], self.den * q.denominator)

    def derivative(self) -> "RatPoly":
        return RatPoly._of([i * k for i, k in enumerate(self.nums)][1:], self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for i in range(self.degree, -1, -1):
            k = self.nums[i]
            if k == 0:
                continue
            g = math.gcd(k, self.den)
            num, den = abs(k) // g, self.den // g
            mag = str(num) if den == 1 else f"{num}/{den}"
            if i == 0:
                body = mag
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                body = xpow if mag == "1" else f"{mag}*{xpow}"
            if not parts:
                parts.append(body if k > 0 else f"-{body}")
            else:
                parts.append(f" {'+' if k > 0 else '-'} {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"RatPoly.parse({str(self)!r})"


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of integer polynomials, low to high and untrimmed; at least
    one coefficient, all of them zero when a or b is empty."""
    out = [0] * max(len(a) + len(b) - 1, 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _horner(G: Sequence[int], P: Sequence[int], D: int) -> tuple[list[int], int]:
    """(A, D^k) with sum G[i] (P/D)^i = A / D^k, for integer polynomials G
    of degree k >= 0 and P and an integer D != 0: Horner's rule on
    numerators.  A is untrimmed."""
    A, Dk = [G[-1]], 1
    for c in reversed(G[:-1]):
        Dk *= D
        A = _int_mul(A, P)
        A[0] += c * Dk
    return A, Dk


def compose(g: RatPoly, f: RatPoly) -> RatPoly:
    """g after f: returns the polynomial g(f(x))."""
    if g.is_zero:
        return g
    A, Dk = _horner(g.nums, f.nums, f.den)
    return RatPoly._of(A, g.den * Dk)


def iterate(f: RatPoly, k: int) -> RatPoly:
    """k-fold composition of f with itself; the empty iterate is x."""
    if k < 0:
        raise ValueError(f"iteration count must be nonnegative, got {k}")
    if f.degree < 1:
        raise ValueError("can only iterate nonconstant polynomials")
    acc = RatPoly.x()
    for _ in range(k):
        acc = compose(f, acc)
    return acc


# ---------------------------------------------------------------------------
# Resultants and discriminants
# ---------------------------------------------------------------------------

def _content(cs: Sequence[int]) -> int:
    g = 0
    for c in cs:
        g = math.gcd(g, c)
    return g or 1


def _prem(A: list[int], B: list[int]) -> list[int]:
    """Pseudo-remainder of A by B: lc(B)^(deg A - deg B + 1) * A mod B."""
    A = list(A)
    db = len(B) - 1
    lb = B[-1]
    delta = len(A) - len(B)
    for _ in range(delta + 1):
        da = len(A) - 1
        if da < db:
            A = [c * lb for c in A]
            continue
        lead = A[-1]
        A = [c * lb for c in A[:-1]]
        for i in range(db):
            A[da - db + i] -= lead * B[i]
        while A and A[-1] == 0:
            A.pop()
    return A


def _int_resultant(F: Sequence[int], G: Sequence[int]) -> int:
    """Resultant of integer polynomials by the subresultant PRS
    (Cohen, Alg. 3.3.7).  Assumes both nonzero."""
    if len(F) - 1 < len(G) - 1:
        sign = -1 if ((len(F) - 1) * (len(G) - 1)) % 2 else 1
        return sign * _int_resultant(G, F)
    if len(G) == 1:
        return G[0] ** (len(F) - 1)
    a, b = _content(F), _content(G)
    A = [c // a for c in F]
    B = [c // b for c in G]
    t = a ** (len(G) - 1) * b ** (len(F) - 1)
    s, g, h = 1, 1, 1
    while True:
        da, db = len(A) - 1, len(B) - 1
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            s = -s
        R = _prem(A, B)
        A = B
        denom = g * h**delta
        B = [c // denom for c in R]
        g = A[-1]
        h = h * (g**delta) // h**delta if delta else h
        if not B:
            return 0
        if len(B) == 1:
            break
    da = len(A) - 1
    h = h * (B[0] ** da) // h**da
    return s * t * h


def resultant(f: RatPoly, g: RatPoly) -> "Fraction":
    """Res(f, g) = lc(f)^(deg g) * prod g(alpha) over the roots alpha of f.

    No command of the CLI takes a resultant: discriminant classes come from
    the critical orbit on integers.  `fractions` is imported here only."""
    from fractions import Fraction

    if f.is_zero and g.is_zero:
        raise ValueError("resultant of two zero polynomials is undefined")
    if f.is_zero or g.is_zero:
        return Fraction(0)
    if f.degree == 0 and g.degree == 0:
        return Fraction(1)
    r = _int_resultant(f.nums, g.nums)
    return Fraction(r, f.den**g.degree * g.den**f.degree)


def discriminant(f: RatPoly) -> "Fraction":
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f).  Zero means inseparable."""
    n = f.degree
    if n < 1:
        raise ValueError("discriminant requires degree >= 1")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative()) * f.den / f.nums[-1]


# ---------------------------------------------------------------------------
# Squarefree kernels
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _squarefree_part(n: int) -> tuple[int, tuple[int, ...]]:
    """(kernel, odd-exponent primes) of a positive integer."""
    odd = tuple(p for p, e in primes.factorint(n).items() if e % 2 == 1)
    return math.prod(odd), odd


def squarefree_kernel_support(q) -> tuple[int, tuple[int, ...]]:
    """(s, primes): the unique squarefree integer s (sign included) with q/s
    a rational square, for a nonzero int or Fraction q, and the primes
    dividing s.  Factors q's numerator and denominator, so it raises
    primes.FactoringBudget on a cofactor past factoring's budget."""
    n = q.numerator * q.denominator  # q times the square den^2
    if n == 0:
        raise ValueError("zero has no square class")
    k, odd = _squarefree_part(abs(n))
    return (k if n > 0 else -k), odd


# ---------------------------------------------------------------------------
# Arithmetic in GF(p)[x]; coefficient lists low-to-high, trimmed, and packed
# into ints
# ---------------------------------------------------------------------------

def _gf_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_monic(a: Sequence[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


@lru_cache(maxsize=None)
def _array_typecodes() -> tuple[type, dict[int, str]]:
    """`array.array` and its typecodes whose items are exactly w bits, by w;
    none on a big-endian host.  Looked up once per process."""
    from array import array  # here, not at module level: the scan is its only user

    if sys.byteorder != "little":
        return array, {}
    return array, {8 * array(t).itemsize: t for t in ("Q", "I")}


class _Packing:
    """Coefficient lists over GF(p) packed into ints, for Kronecker
    substitution.

    Coefficient i sits in bits [i*w, (i+1)*w) of one int, so a product of
    packed lists is one big-int multiply, and a sum of scalar multiples of
    packed lists, or a shift by whole slots, is int arithmetic.  That holds
    while no slot of a result exceeds 2^w - 1; `bound` is the largest value
    a slot must hold.  w is 32 while `bound` is below 2^32, else a multiple
    of 64; with w = 32 or 64 a pack or unpack is one C-level array
    conversion.  Lists are exchanged with coefficients in [0, p).
    """

    def __init__(self, p: int, bound: int):
        bits = bound.bit_length()
        self.p = p
        self.width = 32 if bits <= 32 else 64 * -(-bits // 64)
        self.array, typecodes = _array_typecodes()
        self.typecode = typecodes.get(self.width)

    def _pack(self, cs: Sequence[int]) -> int:
        if self.typecode:
            return int.from_bytes(self.array(self.typecode, cs).tobytes(), "little")
        size = self.width // 8
        return int.from_bytes(b"".join(c.to_bytes(size, "little") for c in cs), "little")

    def _unpack(self, v: int, slots: int) -> list[int]:
        """The coefficients of a packed value of at most `slots` slots,
        reduced mod p."""
        p = self.p
        size = self.width // 8
        raw = v.to_bytes(slots * size, "little")
        if self.typecode:
            return [c % p for c in memoryview(raw).cast(self.typecode).tolist()]
        return [int.from_bytes(raw[i : i + size], "little") % p for i in range(0, len(raw), size)]


class _Euclid(_Packing):
    """The packing of Euclid's algorithm on polynomials of degree at most n
    over GF(p): division and gcd of packed values, whose slots are reduced
    in slot-wise arithmetic, with no unpacking.

    A division by b of degree m cancels the top slot of the dividend, from
    slot da down to slot m, by adding c*b*x^(k-m), c < p.  The slots stay
    unreduced: with q = p - 1, a slot is shared by at most
    min(da - m + 1, m + 1) <= n/2 + 1 of these windows, so it holds at most
    U = q + (n/2 + 1)*q^2 < 2^N.  The remainder is then reduced slot by slot
    in one multiply: with s = N + L, p < 2^L, and r = ceil(2^s / p),
    floor(v*r / 2^s) = floor(v / p) for every v < 2^N (Granlund and
    Montgomery, PLDI 1994), so a slot of v*r, at most U*r, the packing's
    bound, holds the quotient above its s low bits.
    """

    def __init__(self, n: int, p: int):
        q = p - 1
        largest = q + (n // 2 + 1) * q * q  # U
        self.shift = largest.bit_length() + p.bit_length()
        self.recip = -(-(1 << self.shift) // p)
        super().__init__(p, largest * self.recip)
        w = self.width
        self.mask = (1 << w) - 1
        # in each of n + 1 slots, the bits above the s low ones
        self.quotients = (1 << n * w + w) // self.mask * ((1 << w - self.shift) - 1)

    def _rem(self, a: int, da: int, b: int, m: int) -> tuple[int, list[int]]:
        """(a mod b, negated quotient) for a of degree at most da and b of
        degree m, both packed and reduced.  The remainder comes packed and
        reduced; the negated quotient is the list of c's, high to low."""
        p, w, mask = self.p, self.width, self.mask
        ninv = pow(-(b >> m * w), -1, p)
        cs = []
        for k in range(da, m - 1, -1):
            c = (a >> k * w & mask) * ninv % p
            if c:
                a += c * b << (k - m) * w
            cs.append(c)
        a &= (1 << m * w) - 1
        return a - (a * self.recip >> self.shift & self.quotients) * p, cs


def _gf_gcd(a: Sequence[int], b: Sequence[int], gf: _Euclid) -> list[int]:
    """Monic gcd over GF(p) of trimmed a and b of degree at most the n gf
    was made for.
    Euclid on packed values: each round divides, reduces the remainder
    once, and reads its degree off its bit length."""
    if not b:
        return _gf_monic(a, gf.p) if a else []
    packed_a, da = gf._pack(a), len(a) - 1
    packed_b, db = gf._pack(b), len(b) - 1
    while db:
        r = gf._rem(packed_a, da, packed_b, db)[0]
        if not r:
            return _gf_monic(gf._unpack(packed_b, db + 1), gf.p)
        packed_a, da, packed_b, db = packed_b, db, r, (r.bit_length() - 1) // gf.width
    return [1]


def _gf_divexact(a: Sequence[int], b: Sequence[int], gf: _Euclid) -> list[int]:
    """a / b over GF(p) for trimmed a and b of degree at most the n gf was
    made for, b nonzero; ArithmeticError when b does not divide a."""
    r, cs = gf._rem(gf._pack(a), len(a) - 1, gf._pack(b), len(b) - 1)
    if r:
        raise ArithmeticError("division was not exact")
    p = gf.p
    return [-c % p for c in reversed(cs)]


class _FrobeniusMap(_Packing):
    """h -> h^p on GF(p)[x]/(f), for a monic f of degree n >= 2.

    The map is GF(p)-linear, h^p = sum h_j * x^(j*p), so it is applied as a
    matrix whose rows x^(j*p) mod f are computed once: row j + 1 is row j
    times x^p, a combination of the columns x^(p+i) mod f.  x^p comes from
    square-and-multiply; each product is reduced by the table x^(n+j) mod f,
    0 <= j < n.  Table and columns are built by shift-and-fold: x*r mod f is
    r shifted up one slot, its top slot dropped and folded back, reduced mod
    p, as that multiple of x^n mod f.  Each step is one big-int expression
    and adds at most (p-1)^2 to a slot, so with q = p - 1 the j-th entry
    keeps unreduced slots of at most q + j*q^2.  A row or a reduction sums
    n multiples, each below p, of such entries (plus, in a reduction, the
    low half of a product of reduced residues, whose slots are at most
    n*q^2), so every slot stays at most 2n*q^2 + n(n-1)*q^3/2, the packing's
    bound: w is 32 while that is below 2^32 (p below about (2^33/n^2)^(1/3)),
    else 64 while it is below 2^64.  The rows and every residue the map
    returns are reduced; a Frobenius image sums n multiples of the rows, at
    most n*q^2 per slot.
    """

    def __init__(self, f: Sequence[int], p: int):
        n = len(f) - 1
        q = p - 1
        super().__init__(p, n * q * q * (4 + (n - 1) * q) // 2)
        self.n = n
        self.low = (1 << n * self.width) - 1  # the n low slots
        self.top = self._pack([-c % p for c in f[:-1]])  # x^n mod f
        self.table = self._shifts(self.top, n)
        xp = [0, 1] + [0] * (n - 2)  # x^p by square-and-multiply
        for bit in bin(p)[3:]:
            xp = self._mul(xp, [0, *xp] if bit == "1" else xp)
        packed = self._pack(xp)
        columns = self._shifts(packed, n)
        self.rows, row = [1, packed], xp  # the packed 1 is 1
        for _ in range(n - 2):
            row = self._unpack(sum(map(mul, row, columns)), n)
            self.rows.append(self._pack(row))

    def __call__(self, h: Sequence[int]) -> list[int]:
        return self._unpack(sum(map(mul, h, self.rows)), self.n)

    def _shifts(self, r: int, count: int) -> list[int]:
        """r, x*r, ..., x^(count-1)*r mod f, packed and unreduced."""
        p, w, low, top = self.p, self.width, self.low, self.top
        shift = (self.n - 1) * w
        out = [r]
        for _ in range(count - 1):
            out.append((r << w & low) + (r >> shift) % p * top)
            r = out[-1]
        return out

    def _mul(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """a * b mod f, reduced, for a and b of at most n and n + 1
        coefficients in [0, p) whose product has degree below 2n and slots
        of at most n*q^2."""
        n = self.n
        v = self._pack(a) * self._pack(b)
        return self._unpack((v & self.low) + sum(map(mul, self._unpack(v >> n * self.width, n),
                                                        self.table)), n)


# ---------------------------------------------------------------------------
# Factor degrees mod p
# ---------------------------------------------------------------------------

def reduce_mod_p(f: RatPoly, p: int) -> list[int]:
    """Coefficients of f mod p; BadPrime if p divides a denominator or lc(f).
    f.den is the lcm of the coefficient denominators, so a prime divides one
    of them iff it divides f.den."""
    if f.den % p == 0:
        raise BadPrime(f"{p} divides a coefficient denominator")
    inv = pow(f.den, -1, p)
    out = [k * inv % p for k in f.nums]
    if out and out[-1] == 0:
        raise BadPrime(f"{p} divides the leading coefficient")
    return out


def factor_degrees_mod_p(f: RatPoly, p: int) -> tuple[int, ...]:
    """Degrees of the irreducible factors of f mod p, for good primes p,
    sorted and with multiplicity.

    The Frobenius map h -> h^p is applied to x until it returns to x, which
    happens after L steps, L the lcm of the factor degrees (the order of
    Frobenius on the roots), since f mod p divides x^(p^L) - x.  Every degree
    divides L, so the gcd of x^(p^e) - x with the unfactored part is taken
    only at the proper divisors e of L, in ascending order, and collects
    exactly the factors of degree e.  Once 2e exceeds the unfactored degree
    what is left is irreducible; after the last divisor it is a product of
    factors of degree L.  A walk that has not returned after deg f steps
    falls back to distinct-degree factorization, a gcd at every e, over the
    steps it took (it needs those up to deg f / 2).  Every iterate of a
    quadratic returns in time: its L is a power of 2, at most the degree.
    Raises BadPrime when f mod p is not defined or not squarefree
    (equivalently, disc f = 0 mod p).

    Per prime the work runs on packed integers: the squarefree test and
    every gcd and division by `_Euclid`'s packed Euclid, the Frobenius map
    by `_FrobeniusMap`'s shift-and-fold steps, and each step of the walk as
    one sum of big-int multiples of its rows.  Only the walk's residues are
    unpacked: their coefficients are the next step's multipliers.
    """
    if f.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    if not primes.is_prime(p):
        raise ValueError(f"{p} is not prime")
    fbar = _gf_monic(reduce_mod_p(f, p), p)
    n = len(fbar) - 1
    gf = _Euclid(n, p)
    deriv = _gf_trim([i * c % p for i, c in enumerate(fbar)][1:])
    if not deriv or len(_gf_gcd(fbar, deriv, gf)) != 1:
        raise BadPrime(f"{p} divides the discriminant")
    if n == 1:
        return (1,)
    frobenius = _FrobeniusMap(fbar, p)
    x = [0, 1] + [0] * (n - 2)
    hs = [x]  # x^(p^e) mod fbar for e <= n/2, the only e a gcd is taken at
    h = x
    for order in range(1, n + 1):
        h = frobenius(h)
        if h == x:
            steps = [e for e in range(1, order // 2 + 1) if order % e == 0]
            break
        if 2 * order <= n:
            hs.append(h)
    else:
        order, steps = None, range(1, n // 2 + 1)
    degrees: list[int] = []
    g = fbar
    for e in steps:
        if 2 * e > len(g) - 1:
            break
        h = hs[e]
        d = _gf_gcd(g, _gf_trim([h[0], (h[1] - 1) % p, *h[2:]]), gf)
        if len(d) > 1:
            degrees.extend([e] * ((len(d) - 1) // e))
            g = _gf_divexact(g, d, gf)
    else:
        if order is not None:  # every factor left has degree L
            degrees.extend([order] * ((len(g) - 1) // order))
            g = [1]
    if len(g) > 1:
        degrees.append(len(g) - 1)  # the unfactored part is irreducible
    return tuple(sorted(degrees))


# ---------------------------------------------------------------------------
# Parser for the CLI polynomial grammar
# ---------------------------------------------------------------------------

# Largest exponent the parser accepts: a term x^e allocates e + 1 coefficients.
MAX_EXPONENT = 10_000

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([x^*/+-]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group(1) is not None:
            tokens.append(("num", m.group(1), m.start(1)))
        else:
            tokens.append(("sym", m.group(2), m.start(2)))
        pos = m.end()
    return tokens


def _literal(token: tuple[str, str, int]) -> int:
    try:
        return int(token[1])
    except ValueError:  # more digits than the interpreter converts to an int
        raise ParseError(f"integer literal of {len(token[1])} digits is too long",
                         token[2]) from None


def _parse_poly(text: str) -> RatPoly:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial", 0)
    terms: list[tuple[int, int, int]] = []  # (power, signed numerator, denominator)
    i = 0
    first = True
    while i < len(tokens):
        # separator / unary signs; terms after the first must start with one
        sign = 1
        saw_sign = False
        while i < len(tokens) and tokens[i][0] == "sym" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            saw_sign = True
            i += 1
        if not first and not saw_sign:
            raise ParseError("expected '+' or '-' between terms", tokens[i][2])
        first = False
        if i >= len(tokens):
            raise ParseError("dangling sign", tokens[-1][2])
        num, den = sign, 1
        have_coef = False
        if tokens[i][0] == "num":
            num *= _literal(tokens[i])
            i += 1
            if i < len(tokens) and tokens[i][:2] == ("sym", "/"):
                i += 1
                if i >= len(tokens) or tokens[i][0] != "num":
                    raise ParseError("expected denominator", tokens[i - 1][2])
                den = _literal(tokens[i])
                if den == 0:
                    raise ParseError("zero denominator", tokens[i][2])
                i += 1
            have_coef = True
            if i < len(tokens) and tokens[i][:2] == ("sym", "*"):
                i += 1
                if i >= len(tokens) or tokens[i][:2] != ("sym", "x"):
                    raise ParseError("expected x after '*'", tokens[i - 1][2])
        power = 0
        if i < len(tokens) and tokens[i][:2] == ("sym", "x"):
            power = 1
            i += 1
            if i < len(tokens) and tokens[i][:2] == ("sym", "^"):
                i += 1
                if i >= len(tokens) or tokens[i][0] != "num":
                    pos = tokens[i][2] if i < len(tokens) else tokens[-1][2] + 1
                    raise ParseError("expected integer exponent", pos)
                power = _literal(tokens[i])
                if power > MAX_EXPONENT:
                    raise ParseError(f"exponent above {MAX_EXPONENT}", tokens[i][2])
                i += 1
        elif not have_coef:
            raise ParseError("expected term", tokens[i][2])
        terms.append((power, num, den))
        if i < len(tokens) and not (tokens[i][0] == "sym" and tokens[i][1] in "+-"):
            raise ParseError(f"unexpected token {tokens[i][1]!r}", tokens[i][2])
    den = math.lcm(*(d for _, _, d in terms))
    nums = [0] * (max(power for power, _, _ in terms) + 1)
    for power, num, d in terms:
        nums[power] += num * (den // d)
    return RatPoly._of(nums, den)
