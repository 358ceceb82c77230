"""Supernatural numbers: formal products of prime powers.

A supernatural number is a formal product prod_p p^(e_p) over primes p with
exponents e_p in {0, 1, 2, ...} or infinity.  They measure degrees of infinite
algebraic extensions and orders of profinite groups, where ordinary integers
do not suffice.
"""
from __future__ import annotations

import math
import re
from collections.abc import Iterable, Mapping

from . import primes

# Distinguished absorbing exponent.  Not a "very large number": it is only ever
# compared and added, never used in modular or floating arithmetic.
INF = math.inf

_FACTOR_RE = re.compile(r"^(\d+)(?:\^(inf|\d+))?$")


class SupernaturalNumber:
    """Immutable formal product of prime powers with exponents in N or INF."""

    __slots__ = ("_exps",)

    def __init__(self, exponents: Mapping[int, int | float] | Iterable[tuple[int, int | float]] = ()):
        exps = dict(exponents)
        for p, e in list(exps.items()):
            if not (isinstance(p, int) and primes.is_prime(p)):
                raise ValueError(f"key {p!r} is not prime")
            if e == 0:
                del exps[p]
                continue
            if e != INF and not (isinstance(e, int) and e > 0):
                raise ValueError(f"exponent {e!r} for prime {p} is not a positive integer or INF")
        object.__setattr__(self, "_exps", dict(sorted(exps.items())))

    def __setattr__(self, name, value):
        raise AttributeError("SupernaturalNumber is immutable")

    @property
    def exponents(self) -> dict[int, int | float]:
        return dict(self._exps)

    def exponent(self, p: int) -> int | float:
        return self._exps.get(p, 0)

    @classmethod
    def one(cls) -> "SupernaturalNumber":
        return cls()

    @classmethod
    def from_integer(cls, n: int) -> "SupernaturalNumber":
        if not (isinstance(n, int) and n >= 1):
            raise ValueError(f"expected a positive integer, got {n!r}")
        return cls(primes.factorint(n))

    @classmethod
    def parse(cls, text: str) -> "SupernaturalNumber":
        """Inverse of str(): e.g. "2^inf * 3^2 * 5"; "1" is the empty product."""
        text = text.strip()
        if text == "1":
            return cls()
        exps: dict[int, int | float] = {}
        for factor in text.split("*"):
            m = _FACTOR_RE.match(factor.strip())
            if m is None:
                raise ValueError(f"malformed factor {factor.strip()!r}")
            p = int(m.group(1))
            e_txt = m.group(2)
            e: int | float = 1 if e_txt is None else (INF if e_txt == "inf" else int(e_txt))
            if p in exps:
                raise ValueError(f"repeated prime {p}")
            exps[p] = e
        return cls(exps)

    def __mul__(self, other: "SupernaturalNumber") -> "SupernaturalNumber":
        exps = dict(self._exps)
        for p, e in other._exps.items():
            exps[p] = exps.get(p, 0) + e  # INF absorbs under +
        return SupernaturalNumber(exps)

    def divides(self, other: "SupernaturalNumber") -> bool:
        return all(e <= other._exps.get(p, 0) for p, e in self._exps.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SupernaturalNumber):
            return NotImplemented
        return self._exps == other._exps

    def __hash__(self) -> int:
        return hash(tuple(self._exps.items()))

    def __str__(self) -> str:
        if not self._exps:
            return "1"
        parts = []
        for p, e in self._exps.items():
            if e == 1:
                parts.append(str(p))
            elif e == INF:
                parts.append(f"{p}^inf")
            else:
                parts.append(f"{p}^{e}")
        return " * ".join(parts)

    def __repr__(self) -> str:
        return f"SupernaturalNumber({self._exps!r})"

