"""arborsign: exact finite truncations of arboreal Galois sign data.

Subpackages by topic: primality and factoring (primes), supernatural degree
bookkeeping (supernat), exact polynomial arithmetic over Q and mod p
(exactpoly), F2 linear algebra on rational square classes (sqclass),
rooted-tree automorphism groups and sign homomorphisms (treegroup),
iterate-discriminant data and index certificates (arboreal), the inductive
construction simulator and verifier (construct), and the batch CLI (cli).
"""

__version__ = "0.1.0"
