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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

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

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

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
        acc = acc * f + RatPoly.constant(c)
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

def _int_clear(f: RatPoly) -> tuple[list[int], int]:
    """Return (integer coefficient list, multiplier L) with L*f integral."""
    L = math.lcm(*(c.denominator for c in f.coeffs)) if f.coeffs else 1
    return [int(c * L) for c in f.coeffs], L


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


def _int_resultant(F: list[int], G: list[int]) -> int:
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
    F, Lf = _int_clear(f)
    G, Lg = _int_clear(g)
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

@lru_cache(maxsize=None)
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


def _gf_sub(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(n)]
    return _gf_trim(out)


def _gf_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _gf_trim(out)


def _gf_mod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    a = list(a)
    dm = len(m) - 1
    inv = pow(m[-1], -1, p)
    while len(a) - 1 >= dm:
        coef = a[-1] * inv % p
        shift = len(a) - 1 - dm
        if coef:
            for i in range(dm):
                a[shift + i] = (a[shift + i] - coef * m[i]) % p
        a.pop()
        _gf_trim(a)
        if not a:
            break
    return a


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
    q = [0] * (len(a) - len(b) + 1)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        coef = a[-1] * inv % p
        shift = len(a) - len(b)
        q[shift] = coef
        for i in range(len(b)):
            a[shift + i] = (a[shift + i] - coef * b[i]) % p
        _gf_trim(a)
        if not a:
            break
    if a:
        raise ArithmeticError("division was not exact")
    return _gf_trim(q)


def _gf_powmod(base: Sequence[int], e: int, m: Sequence[int], p: int) -> list[int]:
    result = [1]
    b = _gf_mod(base, m, p)
    while e:
        if e & 1:
            result = _gf_mod(_gf_mul(result, b, p), m, p)
        b = _gf_mod(_gf_mul(b, b, p), m, p)
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# Factor degrees mod p
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorDegreePattern:
    """Multiset of degrees of the irreducible factors of a reduction mod p."""

    degrees: tuple[int, ...]  # sorted, with multiplicity
    prime: int

    def lcm(self) -> int:
        return math.lcm(*self.degrees)

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(sorted(self.degrees)))


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

    Uses distinct-degree factorization: for i = 1, 2, ... the gcd of
    x^(p^i) - x with the unfactored part collects exactly the irreducible
    factors of degree i.  Raises BadPrime when f mod p is not defined or not
    squarefree (equivalently, disc f = 0 mod p).
    """
    if f.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    if not primes.is_prime(p):
        raise ValueError(f"{p} is not prime")
    fbar = _gf_monic(reduce_mod_p(f, p), p)
    deriv = _gf_trim([i * c % p for i, c in enumerate(fbar)][1:])
    if not deriv or len(_gf_gcd(fbar, deriv, p)) != 1:
        raise BadPrime(f"{p} divides the discriminant")
    degrees: list[int] = []
    g = fbar
    h = [0, 1]  # x
    i = 0
    while len(g) - 1 > 0:
        i += 1
        if 2 * i > len(g) - 1:
            degrees.append(len(g) - 1)  # remaining part is irreducible
            break
        h = _gf_powmod(h, p, g, p)
        d = _gf_gcd(_gf_sub(h, [0, 1], p), g, p)
        if len(d) > 1:
            degrees.extend([i] * ((len(d) - 1) // i))
            g = _gf_divexact(g, d, p)
            h = _gf_mod(h, g, p)
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
