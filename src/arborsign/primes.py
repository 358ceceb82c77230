"""Primality and integer factoring, stdlib only.

Every primality and factoring decision of the package goes through this
module, so that a process that never meets a hard composite never imports
sympy.

- `is_prime`: trial division by the primes below 1000, then Miller-Rabin with
  the prime bases 2..41, which is deterministic below 3.317e24, then
  Baillie-PSW above that (a strong base-2 test and a strong Lucas test with
  Selfridge's parameters, as in sympy.isprime above 2^64).
- `factorint`: trial division, then `is_prime`, then Pollard-Brent rho.  A
  composite that rho does not split within `RHO_STEPS` steps is handed to
  sympy.factorint, which is imported only then.

Critical-orbit values of x^2 + c form a rigid divisibility sequence, so their
prime divisors are mostly small; trial division and rho split them at once.
"""
from __future__ import annotations

import math

_TRIAL_BOUND = 1000


def _sieve(bound: int) -> tuple[int, ...]:
    flags = bytearray([1]) * bound
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(bound - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, bound, p)))
    return tuple(p for p in range(bound) if flags[p])


_SMALL_PRIMES = _sieve(_TRIAL_BOUND)

# Miller-Rabin with these bases is correct for every n below _MR_BOUND
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981

# Rho iterations spent on one composite before sympy.factorint takes it over.
# A prime factor p is typically found after about sqrt(p) iterations, so this
# splits off every factor up to about 36 bits.
RHO_STEPS = 1 << 18


def _strong_probable_prime(n: int, a: int) -> bool:
    """Strong Fermat test of odd n > 2 to base a."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test of odd n with no prime factor below _TRIAL_BOUND,
    with Selfridge's parameters: the first D in 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1, Q = (1 - D)/4."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # gcd(D, n) > 1 and |D| < n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    # U_k, V_k and Q^k mod n, from k = 1 along the bits of d:
    # U_2k = U_k V_k, V_2k = V_k^2 - 2Q^k, U_k+1 = (U_k + V_k)/2,
    # V_k+1 = (D U_k + V_k)/2, halving mod the odd n.
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = (U + n if U & 1 else U) >> 1
            V = (V + n if V & 1 else V) >> 1
            U, V, Qk = U % n, V % n, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Whether the integer n is prime: exact below 3.317e24, Baillie-PSW above
    (no composite passing it is known)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < _TRIAL_BOUND * _TRIAL_BOUND:
        return True
    if n < _MR_BOUND:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def next_prime(n: int) -> int:
    """The smallest prime greater than n."""
    m = max(n + 1, 2)
    while not is_prime(m):
        m += 1
    return m


def _rho_split(n: int) -> int | None:
    """A proper divisor of the odd composite n found by Pollard-Brent rho with
    x -> x^2 + c, trying c = 1, 2, ... within RHO_STEPS iterations in all;
    None when the budget runs out."""
    steps = 0
    c = 0
    while steps < RHO_STEPS:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and steps < RHO_STEPS:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            steps += 2 * r
            r *= 2
        if g == n:  # the batch overshot: step back one iteration at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return None


def factorint(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of a positive integer, in increasing p."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n!r}")
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _rho_split(m)
        if d is not None:
            pending += [d, m // d]
            continue
        import sympy  # only for composites that rho could not split

        for p, e in sympy.factorint(m).items():
            factors[int(p)] = factors.get(int(p), 0) + int(e)
    return dict(sorted(factors.items()))
