"""Automorphism groups of finite rooted d-ary trees via portraits.

An automorphism of the depth-k complete rooted d-ary tree is recorded as a
portrait: one permutation of {0..d-1} per internal vertex, addressed by the
string of decimal digits leading to it, so portraits have arity d <= 10.
The group is the k-fold iterated wreath product of the symmetric group S_d.
Also provides the level sign homomorphisms and the exact group orders.
"""
from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from itertools import chain, product

Perm = tuple[int, ...]  # images of 0..d-1


def perm_compose(a: Perm, b: Perm) -> Perm:
    """(a o b)(i) = a(b(i))."""
    return tuple(a[b[i]] for i in range(len(b)))


def perm_sign(a: Perm) -> int:
    """Sign via cycle decomposition."""
    seen = [False] * len(a)
    sign = 1
    for i in range(len(a)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = a[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _check_perm(p: Perm, d: int) -> Perm:
    p = tuple(p)
    if sorted(p) != list(range(d)):
        raise ValueError(f"{p} is not a permutation of 0..{d - 1}")
    return p


def internal_addresses(d: int, k: int) -> Iterator[str]:
    """All internal-vertex addresses: digit strings of length < k."""
    if d > 10:
        raise ValueError(f"arity {d} is above 10: addresses are strings of decimal digits")
    return chain.from_iterable(_addresses_at_depth(d, j) for j in range(k))


def _addresses_at_depth(d: int, j: int) -> Iterator[str]:
    """Addresses of the d^j vertices at depth j: digit strings of length j."""
    digits = "".join(str(i) for i in range(d))
    return map("".join, product(digits, repeat=j))


class Portrait:
    """An element of Aut T_k(d), one permutation per internal vertex."""

    __slots__ = ("d", "k", "labels")

    def __init__(self, d: int, k: int, labels: Mapping[str, Perm]):
        if d < 2:
            raise ValueError("arity must be >= 2")
        if k < 0:
            raise ValueError("depth must be >= 0")
        addresses = internal_addresses(d, k)  # refuses an arity above 10
        expected = (d**k - 1) // (d - 1)
        if len(labels) != expected:
            raise ValueError(f"expected {expected} labels, got {len(labels)}")
        checked = {}
        for addr in addresses:
            if addr not in labels:
                raise ValueError(f"missing label at vertex {addr!r}")
            checked[addr] = _check_perm(labels[addr], d)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "labels", checked)

    def __setattr__(self, name, value):
        raise AttributeError("Portrait is immutable")

    @classmethod
    def identity(cls, d: int, k: int) -> "Portrait":
        e = tuple(range(d))
        return cls(d, k, {a: e for a in internal_addresses(d, k)})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Portrait):
            return NotImplemented
        return (self.d, self.k, self.labels) == (other.d, other.k, other.labels)

    def apply_to_address(self, addr: str) -> str:
        """Image of a vertex address under this automorphism."""
        out = []
        for m, ch in enumerate(addr):
            out.append(str(self.labels[addr[:m]][int(ch)]))
        return "".join(out)

    def __repr__(self) -> str:
        return f"Portrait(d={self.d}, k={self.k}, labels={self.labels!r})"


def compose(g: Portrait, h: Portrait) -> Portrait:
    """Portrait of g o h (g after h).

    The wreath recursion collapses to: the label of g o h at vertex v is
    label_g(h(v)) o label_h(v), where h(v) is the vertex image under h.
    """
    if (g.d, g.k) != (h.d, h.k):
        raise ValueError(f"({g.d},{g.k}) vs ({h.d},{h.k})")
    labels = {
        addr: perm_compose(g.labels[h.apply_to_address(addr)], p)
        for addr, p in h.labels.items()
    }
    return Portrait(g.d, g.k, labels)


def leaf_permutation(g: Portrait, n: int) -> Perm:
    """Induced permutation of the d^n level-n vertices in lexicographic order."""
    if not 0 <= n <= g.k:
        raise ValueError(f"level {n} not in 0..{g.k}")
    return tuple(_address_to_index(g.apply_to_address(addr), g.d)
                 for addr in _addresses_at_depth(g.d, n))


def _address_to_index(addr: str, d: int) -> int:
    idx = 0
    for ch in addr:
        idx = idx * d + int(ch)
    return idx


def sign_level(g: Portrait, n: int) -> int:
    """Sign of the level-n action, without expanding the permutation.

    Each label at depth j permutes d^(n-1-j) whole blocks of level-n vertices,
    so it contributes its own sign raised to that power; the total sign is the
    product over all internal vertices above level n.  (Validated against the
    expanded leaf permutation by the test suite.)

    Write eps_j for the product of the label signs at depth j.  Then
    sigma_n = eps_(n-1) for even d and sigma_n = eps_0 ... eps_(n-1) for odd
    d.  Both maps (eps_0..eps_(k-1)) -> (sigma_1..sigma_k) are unitriangular,
    and the eps_j are independent, each set by its own labels, so the k level
    signs are independent: every sign vector is the image of some portrait.
    """
    if not 1 <= n <= g.k:
        raise ValueError(f"level {n} not in 1..{g.k}")
    sign = 1
    for j in range(n):
        if g.d ** (n - 1 - j) % 2 == 1:
            for addr in _addresses_at_depth(g.d, j):
                sign *= perm_sign(g.labels[addr])
    return sign


def sign_vector(g: Portrait) -> tuple[int, ...]:
    """(sigma_1(g), ..., sigma_k(g))."""
    return tuple(sign_level(g, n) for n in range(1, g.k + 1))


def group_order(d: int, k: int) -> int:
    """|Aut T_k(d)| = (d!)^((d^k - 1)/(d - 1))."""
    if d < 2:
        raise ValueError("arity must be >= 2")
    if k < 0:
        raise ValueError("depth must be >= 0")
    if k == 0:
        return 1
    return math.factorial(d) ** ((d**k - 1) // (d - 1))


def all_portraits(d: int, k: int) -> Iterator[Portrait]:
    """Exhaustive enumeration of Aut T_k(d); use only at desk scale."""
    from itertools import permutations

    addrs = list(internal_addresses(d, k))
    perms = [tuple(p) for p in permutations(range(d))]
    for combo in product(perms, repeat=len(addrs)):
        yield Portrait(d, k, dict(zip(addrs, combo)))


def random_portrait(d: int, k: int, rng) -> Portrait:
    """Uniformly random portrait from a random.Random instance."""
    labels = {}
    for addr in internal_addresses(d, k):
        p = list(range(d))
        rng.shuffle(p)
        labels[addr] = tuple(p)
    return Portrait(d, k, labels)
