"""Seeded group tables for the benchmark, built without the library.

A type is a tuple of atoms such as ("C", 2), ("D", 4), ("Q", 8) or ("S", 3);
its table is the direct product of the atoms' tables. A relabeling is a
seeded permutation of the non-identity elements, so element 0 stays the
identity, as the library requires. Each type also carries its Schur
multiplier and abelianization, so the H^2 oracle is exact and independent
of the library (Kuenneth: H^2(A x B) = H^2(A) + H^2(B) + A_ab (x) B_ab).
"""
from __future__ import annotations

import itertools
from math import gcd


def _cyclic(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def _dihedral(n):
    # r^i s^e with id i + n*e; order 2n
    def mul(x, y):
        a, e = x % n, x // n
        b, f = y % n, y // n
        if e == 0:
            return (a + b) % n + n * f
        return (a - b) % n + n * (1 - f)
    return [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]


def _quaternion():
    # ids: 2*unit + sign, units 1, i, j, k
    table = {(0, u): (0, u) for u in range(4)}
    table.update({(u, 0): (0, u) for u in range(4)})
    table.update({(1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
                  (1, 2): (0, 3), (2, 1): (1, 3), (2, 3): (0, 1),
                  (3, 2): (1, 1), (3, 1): (0, 2), (1, 3): (1, 2)})

    def mul(x, y):
        neg, u = table[(x // 2, y // 2)]
        return 2 * u + (x + y + neg) % 2
    return [[mul(x, y) for y in range(8)] for x in range(8)]


def _symmetric(n):
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms]


def atom_table(atom):
    kind, n = atom
    if kind == "C":
        return _cyclic(n)
    if kind == "D":
        return _dihedral(n)
    if kind == "Q":
        return _quaternion()
    if kind == "S":
        return _symmetric(n)
    raise ValueError(f"unknown atom {atom!r}")


def product_table(atoms):
    tables = [atom_table(a) for a in atoms]
    sizes = [len(t) for t in tables]
    elems = list(itertools.product(*[range(s) for s in sizes]))
    index = {e: i for i, e in enumerate(elems)}
    return [[index[tuple(t[a][b] for t, a, b in zip(tables, x, y))] for y in elems]
            for x in elems]


def parse_type(name):
    """'C2xD4' -> (('C', 2), ('D', 4)); 'Q8' -> (('Q', 8),)."""
    atoms = []
    for part in name.split("x"):
        kind, n = part[0], int(part[1:])
        if kind not in "CDQS" or (kind == "Q" and n != 8):
            raise ValueError(f"unknown atom {part!r}")
        atoms.append((kind, n))
    return tuple(atoms)


def relabel(table, perm):
    """Table of the same group with element x renamed perm[x]; perm[0] == 0."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        pa = perm[a]
        row = table[a]
        for b in range(n):
            out[pa][perm[b]] = perm[row[b]]
    return out


def random_relabeling(rng, n):
    rest = list(range(1, n))
    rng.shuffle(rest)
    return [0] + rest


# -- oracle data: multipliers and abelianizations of the atoms -----------------

def _atom_multiplier(atom):
    """Elementary cyclic factors of H^2(atom, C*)."""
    kind, n = atom
    if kind == "D":
        return [2] if n % 2 == 0 else []
    if kind == "S":
        return [2] if n >= 4 else []
    return []          # cyclic groups and Q8


def _atom_abelianization(atom):
    kind, n = atom
    if kind == "C":
        return [n]
    if kind == "D":
        return [2, 2] if n % 2 == 0 else [2]
    if kind == "Q":
        return [2, 2]
    return [2] if n >= 2 else []


def _prime_powers(n):
    out, p = [], 2
    while n > 1:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append((p, q))
        p += 1
    return out


def invariant_factors(cyclic_orders):
    """Invariant factors (ascending divisibility, 1s dropped) of a product of
    cyclic groups of the given orders."""
    by_prime = {}
    for m in cyclic_orders:
        for p, q in _prime_powers(m):
            by_prime.setdefault(p, []).append(q)
    for qs in by_prime.values():
        qs.sort(reverse=True)
    depth = max((len(qs) for qs in by_prime.values()), default=0)
    factors = []
    for i in range(depth):
        f = 1
        for qs in by_prime.values():
            if i < len(qs):
                f *= qs[i]
        factors.append(f)
    return tuple(sorted(factors))


def expected_h2(atoms):
    """Invariant factors of H^2(G, C*) for the direct product of the atoms."""
    orders = []
    for a in atoms:
        orders.extend(_atom_multiplier(a))
    for a, b in itertools.combinations(atoms, 2):
        for x in _atom_abelianization(a):
            for y in _atom_abelianization(b):
                orders.append(gcd(x, y))
    return invariant_factors([m for m in orders if m > 1])
