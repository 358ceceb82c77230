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
from array import array
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from operator import mul

from . import primes

Rational = Fraction | int


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

    Coefficients are stored low-to-high with a nonzero leading coefficient
    (empty tuple for the zero polynomial).  Instances are immutable.
    """

    __slots__ = ("coeffs", "_cleared")

    def __init__(self, coeffs: Iterable[Rational] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_cleared", None)

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls()

    @classmethod
    def constant(cls, q: Rational) -> "RatPoly":
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
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def cleared(self) -> tuple[tuple[int, ...], int]:
        """(integer coefficients of L*self from low to high, L), where L is the
        lcm of the coefficient denominators.  Computed once per polynomial."""
        if self._cleared is None:
            L = math.lcm(*(c.denominator for c in self.coeffs)) if self.coeffs else 1
            ks = tuple(c.numerator * (L // c.denominator) for c in self.coeffs)
            object.__setattr__(self, "_cleared", (ks, L))
        return self._cleared

    def __call__(self, q: Rational) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "RatPoly") -> "RatPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return RatPoly(self.coeff(i) + other.coeff(i) for i in range(n))

    def __neg__(self) -> "RatPoly":
        return RatPoly(-c for c in self.coeffs)

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __mul__(self, other: "RatPoly") -> "RatPoly":
        if self.is_zero or other.is_zero:
            return RatPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return RatPoly(out)

    def scale(self, q: Rational) -> "RatPoly":
        return RatPoly(c * q for c in self.coeffs)

    def derivative(self) -> "RatPoly":
        return RatPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                body = xpow if mag == 1 else f"{mag}*{xpow}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"RatPoly.parse({str(self)!r})"


def compose(g: RatPoly, f: RatPoly) -> RatPoly:
    """g after f: returns the polynomial g(f(x))."""
    acc = RatPoly()
    for c in reversed(g.coeffs):
        acc = acc * f
        acc = RatPoly((acc.coeff(0) + c, *acc.coeffs[1:]))
    return acc


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


def resultant(f: RatPoly, g: RatPoly) -> Fraction:
    """Res(f, g) = lc(f)^(deg g) * prod g(alpha) over the roots alpha of f."""
    if f.is_zero and g.is_zero:
        raise ValueError("resultant of two zero polynomials is undefined")
    if f.is_zero or g.is_zero:
        return Fraction(0)
    if f.degree == 0 and g.degree == 0:
        return Fraction(1)
    F, Lf = f.cleared()
    G, Lg = g.cleared()
    r = _int_resultant(F, G)
    return Fraction(r, Lf**g.degree * Lg**f.degree)


def discriminant(f: RatPoly) -> Fraction:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f).  Zero means inseparable."""
    n = f.degree
    if n < 1:
        raise ValueError("discriminant requires degree >= 1")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative()) / f.lc


# ---------------------------------------------------------------------------
# Squarefree kernels
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _squarefree_part(n: int) -> tuple[int, tuple[int, ...]]:
    """(kernel, odd-exponent primes) of a positive integer."""
    odd = tuple(p for p, e in primes.factorint(n).items() if e % 2 == 1)
    return math.prod(odd), odd


def squarefree_kernel(q: Rational) -> int:
    """The unique squarefree integer s (sign included) with q/s a rational square."""
    return squarefree_kernel_support(q)[0]


def squarefree_kernel_support(q: Rational) -> tuple[int, tuple[int, ...]]:
    """As squarefree_kernel, but also returns the primes dividing the kernel."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("zero has no square class")
    # q and num*den differ by the square den^2.
    k, odd = _squarefree_part(abs(q.numerator * q.denominator))
    return (k if q > 0 else -k), odd


# ---------------------------------------------------------------------------
# Arithmetic in GF(p)[x]; coefficient lists low-to-high, trimmed
# ---------------------------------------------------------------------------

def _gf_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_mod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    a = list(a)
    dm = len(m) - 1
    inv = pow(m[-1], -1, p)
    while len(a) > dm:
        coef = a.pop() * inv % p
        if coef:
            shift = len(a) - dm
            a[shift:] = [(c - coef * d) % p for c, d in zip(a[shift:], m)]
    return _gf_trim(a)


def _gf_monic(a: Sequence[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gf_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _gf_mod(a, b, p)
    return _gf_monic(a, p) if a else []


def _gf_divexact(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a = list(a)
    db = len(b) - 1
    q = [0] * (len(a) - db)
    inv = pow(b[-1], -1, p)
    while len(a) > db:
        coef = a.pop() * inv % p
        shift = len(a) - db
        q[shift] = coef
        if coef:
            a[shift:] = [(c - coef * d) % p for c, d in zip(a[shift:], b)]
    if _gf_trim(a):
        raise ArithmeticError("division was not exact")
    return _gf_trim(q)


# Array typecodes whose items are exactly w bits, by w; a residue packed into
# such slots converts to and from an array in one C-level call.
_TYPECODES = {8 * array(t).itemsize: t for t in ("Q", "I")}


class _FrobeniusMap:
    """h -> h^p on GF(p)[x]/(f), for a monic f of degree n >= 2.

    The map is GF(p)-linear, h^p = sum h_j * x^(j*p), so it is applied as a
    matrix whose rows x^(j*p) mod f are computed once: row j + 1 is row j
    times x^p, a combination of the columns x^(i+p) mod f, each of which is
    the one before it shifted up by one and folded back mod f.  Residues are
    packed for Kronecker substitution: coefficient i sits in bits
    [i*w, (i+1)*w) of one int, so a product of residues is one big-int
    multiply and a sum of scalar multiples of residues is int arithmetic.  A
    w-bit slot holds n*(p-1)^2 + p, which bounds every slot of such a product
    and of such a sum of n terms (plus one residue).  w is 32 while that bound
    is below 2^32 (every p below about 2^16/sqrt(n)), else a multiple of 64
    (64 for every p below about 2^32/sqrt(n)); with w = 32 or 64 a pack or
    unpack is one C-level array conversion.  Residues are exchanged as lists
    of n coefficients in [0, p).
    """

    def __init__(self, f: Sequence[int], p: int):
        n = len(f) - 1
        self.n, self.p = n, p
        bits = (n * (p - 1) ** 2 + p).bit_length()
        self.width = 32 if bits <= 32 else 64 * -(-bits // 64)
        self.typecode = _TYPECODES.get(self.width) if sys.byteorder == "little" else None
        # x^(n+j) mod f for 0 <= j <= n-2: x^n = -(f - x^n), then shift.
        self.top = [-c % p for c in f[:-1]]
        table = [self.top]
        for _ in range(n - 2):
            table.append(self._times_x(table[-1]))
        self.table = [self._pack(r) for r in table]
        xp = [0, 1] + [0] * (n - 2)  # x^p by square-and-multiply
        for bit in bin(p)[3:]:
            xp = self._mul(xp, xp)
            if bit == "1":
                xp = self._times_x(xp)
        columns = [xp]
        for _ in range(n - 1):
            columns.append(self._times_x(columns[-1]))
        columns = [self._pack(c) for c in columns]
        self.rows, row = [1, self._pack(xp)], xp  # the packed 1 is 1
        for _ in range(n - 2):
            row = self._unpack(sum(map(mul, row, columns)), n)
            self.rows.append(self._pack(row))

    def __call__(self, h: Sequence[int]) -> list[int]:
        return self._unpack(sum(map(mul, h, self.rows)), self.n)

    def _times_x(self, r: Sequence[int]) -> list[int]:
        """x * r mod f, for a residue r of n coefficients."""
        p, hi = self.p, r[-1]
        return [(c + hi * t) % p for c, t in zip([0, *r[:-1]], self.top)]

    def _pack(self, cs: Sequence[int]) -> int:
        if self.typecode:
            return int.from_bytes(array(self.typecode, cs).tobytes(), "little")
        size = self.width // 8
        return int.from_bytes(b"".join(c.to_bytes(size, "little") for c in cs), "little")

    def _unpack(self, v: int, slots: int) -> list[int]:
        """The first `slots` coefficients of a packed value, reduced mod p."""
        p = self.p
        size = self.width // 8
        raw = v.to_bytes(slots * size, "little")
        if self.typecode:
            return [c % p for c in memoryview(raw).cast(self.typecode).tolist()]
        return [int.from_bytes(raw[i : i + size], "little") % p for i in range(0, len(raw), size)]

    def _reduce(self, cs: Sequence[int]) -> list[int]:
        """cs mod f, for at most 2n - 1 coefficients in [0, p)."""
        n = self.n
        return self._unpack(self._pack(cs[:n]) + sum(map(mul, cs[n:], self.table)), n)

    def _mul(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        return self._reduce(self._unpack(self._pack(a) * self._pack(b), 2 * self.n - 1))


# ---------------------------------------------------------------------------
# Factor degrees mod p
# ---------------------------------------------------------------------------

class FactorDegreePattern:
    """Multiset of degrees of the irreducible factors of a reduction mod p.

    Instances are immutable.
    """

    __slots__ = ("degrees", "prime")

    def __init__(self, degrees: Iterable[int], prime: int):
        object.__setattr__(self, "degrees", tuple(sorted(degrees)))  # with multiplicity
        object.__setattr__(self, "prime", prime)

    def __setattr__(self, name, value):
        raise AttributeError("FactorDegreePattern is immutable")

    def lcm(self) -> int:
        return math.lcm(*self.degrees)


def reduce_mod_p(f: RatPoly, p: int) -> list[int]:
    """Coefficients of f mod p; BadPrime if p divides a denominator or lc(f)."""
    out = []
    for c in f.coeffs:
        if c.denominator % p == 0:
            raise BadPrime(f"{p} divides a coefficient denominator")
        out.append(c.numerator * pow(c.denominator, -1, p) % p)
    if out and out[-1] == 0:
        raise BadPrime(f"{p} divides the leading coefficient")
    return out


def factor_degrees_mod_p(f: RatPoly, p: int) -> FactorDegreePattern:
    """Degrees of the irreducible factors of f mod p, for good primes p.

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
    """
    if f.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    if not primes.is_prime(p):
        raise ValueError(f"{p} is not prime")
    fbar = _gf_monic(reduce_mod_p(f, p), p)
    deriv = _gf_trim([i * c % p for i, c in enumerate(fbar)][1:])
    if not deriv or len(_gf_gcd(fbar, deriv, p)) != 1:
        raise BadPrime(f"{p} divides the discriminant")
    n = len(fbar) - 1
    if n == 1:
        return FactorDegreePattern((1,), p)
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
        d = _gf_gcd(_gf_trim([h[0], (h[1] - 1) % p, *h[2:]]), g, p)
        if len(d) > 1:
            degrees.extend([e] * ((len(d) - 1) // e))
            g = _gf_divexact(g, d, p)
    else:
        if order is not None:  # every factor left has degree L
            degrees.extend([order] * ((len(g) - 1) // order))
            g = [1]
    if len(g) > 1:
        degrees.append(len(g) - 1)  # the unfactored part is irreducible
    return FactorDegreePattern(tuple(degrees), p)


# ---------------------------------------------------------------------------
# Parser for the CLI polynomial grammar
# ---------------------------------------------------------------------------

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


def _parse_poly(text: str) -> RatPoly:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial", 0)
    result = RatPoly()
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
        coef = Fraction(sign)
        have_coef = False
        if tokens[i][0] == "num":
            num = int(tokens[i][1])
            i += 1
            den = 1
            if i < len(tokens) and tokens[i][:2] == ("sym", "/"):
                i += 1
                if i >= len(tokens) or tokens[i][0] != "num":
                    raise ParseError("expected denominator", tokens[i - 1][2])
                den = int(tokens[i][1])
                if den == 0:
                    raise ParseError("zero denominator", tokens[i][2])
                i += 1
            coef *= Fraction(num, den)
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
                power = int(tokens[i][1])
                i += 1
        elif not have_coef:
            raise ParseError("expected term", tokens[i][2])
        result = result + RatPoly([0] * power + [coef])
        if i < len(tokens) and not (tokens[i][0] == "sym" and tokens[i][1] in "+-"):
            raise ParseError(f"unexpected token {tokens[i][1]!r}", tokens[i][2])
    return result
