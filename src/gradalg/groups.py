"""Finite groups as validated multiplication tables, plus subgroup machinery.

Elements are identifiers 0..n-1 and 0 is always the neutral element; every
downstream module relies on that normalization. Groups are built from small
spec strings ("C4", "C2xC2", "D4", "Q8", "S3", products of those) or from an
explicit table, and are validated on construction.

Cache policy: every value derived from a table (exponent, center, subgroup
list, normalizers, the table and member lists as numpy arrays, and the
cohomology layer's frames, kernels, solvers and H^2) is computed once and
kept on that group object through FiniteGroup.cached, the one store. A
value of a subgroup is kept in its parent's store under (name, members),
so equal Subgroup objects share it; Subgroup itself keeps no cache. Nothing
is evicted: the store lives and dies with the group object, so a fresh
relabeling of the same table pays the full cost again.
"""
from __future__ import annotations

import itertools
import re
from math import lcm

import numpy as np

from .config import DEFAULT_ORDER_CAP
from .errors import AmbientMismatch, NotASubgroup, OrderCapExceeded, SpecMalformed, TableInvalid


class FiniteGroup:
    """Immutable finite group given by its multiplication table."""

    def __init__(self, mul, name="G", labels=None, order_cap=DEFAULT_ORDER_CAP, _validated=False):
        mul = tuple(tuple(row) for row in mul)
        n = len(mul)
        if order_cap is not None and n > order_cap:
            raise OrderCapExceeded(f"group order {n} exceeds cap {order_cap}")
        self.order = n
        self.mul_table = mul
        self.name = name
        self.labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(n))
        if len(self.labels) != n:
            raise TableInvalid("labels length does not match order")
        if not _validated:
            self._validate()
        self.inv_table = self._build_inverses()
        self._cache = {}

    def _validate(self):
        n = self.order
        if n == 0:
            raise TableInvalid("empty table")
        for i, row in enumerate(self.mul_table):
            if len(row) != n:
                raise TableInvalid(f"row {i} has length {len(row)}, expected {n}")
            for v in row:
                if not (0 <= v < n):
                    raise TableInvalid(f"entry {v} out of range in row {i}")
        for x in range(n):
            if self.mul_table[0][x] != x or self.mul_table[x][0] != x:
                raise TableInvalid("element 0 is not neutral")
        for x in range(n):
            if 0 not in self.mul_table[x]:
                raise TableInvalid(f"element {x} has no right inverse")
        mul = self.mul_table
        for a in range(n):
            for b in range(n):
                ab = mul[a][b]
                row_ab = mul[ab]
                row_b = mul[b]
                row_a = mul[a]
                for c in range(n):
                    if row_ab[c] != row_a[row_b[c]]:
                        raise TableInvalid(f"associativity fails at ({a},{b},{c})")

    def _build_inverses(self):
        inv = [0] * self.order
        for x in range(self.order):
            inv[x] = self.mul_table[x].index(0)
        return tuple(inv)

    def mul(self, a, b):
        return self.mul_table[a][b]

    def inv(self, a):
        return self.inv_table[a]

    def conj(self, a, by):
        """Conjugate of a: by * a * by^-1."""
        return self.mul(self.mul(by, a), self.inv(by))

    @property
    def mul_array(self):
        """The multiplication table as a read-only int64 array."""
        return self.cached("mul_array", lambda: _frozen(self.mul_table))

    @property
    def inv_array(self):
        """The inverse of each element as a read-only int64 array."""
        return self.cached("inv_array", lambda: _frozen(self.inv_table))

    def cached(self, key, build):
        """The value stored under key, from build() on the first call.

        If build raises, nothing is stored.
        """
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def element_order(self, x):
        k, y = 1, x
        while y != 0:
            y = self.mul(y, x)
            k += 1
        return k

    @property
    def exponent(self):
        return self.full_subgroup().exponent

    @property
    def center(self):
        """Sorted tuple of central element identifiers."""
        mul = self.mul_table
        return self.cached("center", lambda: tuple(
            z for z in range(self.order)
            if all(mul[z][g] == mul[g][z] for g in range(self.order))))

    # a validated table has the whole set and {0} as subgroups
    def full_subgroup(self):
        return self.cached("full", lambda: Subgroup(self, range(self.order), _validated=True))

    def trivial_subgroup(self):
        return self.cached("trivial", lambda: Subgroup(self, (0,), _validated=True))

    def label_of(self, x):
        return self.labels[x]

    def element_by_label(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no element labelled {label!r} in {self.name}") from None

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


class Subgroup:
    """A subgroup of a parent group, stored as a sorted member tuple."""

    def __init__(self, parent: FiniteGroup, members, _validated=False):
        self.parent = parent
        self.members = tuple(sorted(set(members)))
        if not _validated:
            self._validate()
        # member -> index in the sorted member tuple
        self.positions = {m: i for i, m in enumerate(self.members)}

    def _validate(self):
        if not self.members or self.members[0] != 0:
            raise NotASubgroup("subgroup must contain the neutral element 0")
        mem = set(self.members)
        for a in self.members:
            if not (0 <= a < self.parent.order):
                raise NotASubgroup(f"member {a} outside parent")
            if self.parent.inv(a) not in mem:
                raise NotASubgroup(f"member {a} has inverse outside the set")
            for b in self.members:
                if self.parent.mul(a, b) not in mem:
                    raise NotASubgroup(f"set not closed: {a}*{b} escapes")
        if self.parent.order % len(self.members):
            raise NotASubgroup("member count does not divide parent order")

    @property
    def order(self):
        return len(self.members)

    def __contains__(self, x):
        return x in self.positions

    def __le__(self, other: "Subgroup"):
        if self.parent is not other.parent:
            return False
        return set(self.members) <= set(other.members)

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.members == other.members
        )

    def __hash__(self):
        return hash((id(self.parent), self.members))

    def position(self, x):
        """Index of ambient element x inside the sorted member list."""
        return self.positions[x]

    def _cached(self, name, build):
        return self.parent.cached((name, self.members), build)

    @property
    def member_array(self):
        """The members as a read-only int64 array."""
        return self._cached("member_array", lambda: _frozen(self.members))

    @property
    def position_array(self):
        """position(x) for every parent element x as a read-only int64
        array, -1 outside the subgroup."""
        def build():
            out = np.full(self.parent.order, -1, dtype=np.int64)
            out[list(self.members)] = np.arange(self.order)
            out.setflags(write=False)
            return out
        return self._cached("position_array", build)

    @property
    def exponent(self):
        return self._cached("exponent", lambda: lcm(*map(self.parent.element_order, self.members)))

    def as_group(self) -> FiniteGroup:
        """The subgroup as a standalone group on identifiers 0..|H|-1 (member positions)."""
        def build():
            mem, G = self.members, self.parent
            table = [[self.positions[G.mul(a, b)] for b in mem] for a in mem]
            return FiniteGroup(table, name=f"{G.name}|{list(mem)}",
                               labels=[G.label_of(m) for m in mem], order_cap=None,
                               _validated=True)
        return self._cached("as_group", build)

    def is_central(self):
        return self._cached("central", lambda: set(self.members) <= set(self.parent.center))

    def __repr__(self):
        return f"Subgroup({self.parent.name}, {list(self.members)})"


def _frozen(values):
    out = np.array(values, dtype=np.int64)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# constructors

def _check_cap(n, order_cap):
    if order_cap is not None and n > order_cap:
        raise OrderCapExceeded(f"group order {n} exceeds cap {order_cap}")


def cyclic(n, order_cap=DEFAULT_ORDER_CAP):
    if n < 1:
        raise SpecMalformed("cyclic group needs order >= 1")
    _check_cap(n, order_cap)
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, name=f"C{n}", order_cap=order_cap, _validated=True)


def dihedral(n, order_cap=DEFAULT_ORDER_CAP):
    """Dihedral group of order 2n: rotations r^i (ids 0..n-1), reflections r^i s (ids n..2n-1)."""
    if n < 1:
        raise SpecMalformed("dihedral group needs n >= 1")
    _check_cap(2 * n, order_cap)

    def mul(x, y):
        a, e = x % n, x // n
        b, f = y % n, y // n
        if e == 0:
            return (a + b) % n + n * f
        return (a - b) % n + n * (1 - f)

    table = [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]
    labels = [f"r{i}" for i in range(n)] + [f"r{i}s" for i in range(n)]
    return FiniteGroup(table, name=f"D{n}", labels=labels, order_cap=order_cap)


_Q8_LABELS = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
# basis products: (sign, basis) for e,i,j,k
_Q8_BASIS = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (2, 0): (1, 2), (3, 0): (1, 3),
    (1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0),
    (1, 2): (1, 3), (2, 1): (-1, 3),
    (2, 3): (1, 1), (3, 2): (-1, 1),
    (3, 1): (1, 2), (1, 3): (-1, 2),
}


def quaternion8(order_cap=DEFAULT_ORDER_CAP):
    _check_cap(8, order_cap)

    def mul(x, y):
        bx, sx = x // 2, x % 2
        by, sy = y // 2, y % 2
        sign, basis = _Q8_BASIS[(bx, by)]
        neg = (sx + sy + (1 if sign < 0 else 0)) % 2
        return 2 * basis + neg

    table = [[mul(x, y) for y in range(8)] for x in range(8)]
    return FiniteGroup(table, name="Q8", labels=_Q8_LABELS, order_cap=order_cap)


def _cycle_label(perm):
    n = len(perm)
    seen = [False] * n
    parts = []
    for start in range(n):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("(" + "".join(str(p + 1) for p in cyc) + ")")
    return "".join(parts) if parts else "e"


def symmetric(n, order_cap=DEFAULT_ORDER_CAP):
    """Sym(n) on points 1..n; elements are permutations in lexicographic order."""
    if not (1 <= n <= 5):
        raise SpecMalformed("symmetric group supported for 1 <= n <= 5")
    perms = sorted(itertools.permutations(range(n)))
    _check_cap(len(perms), order_cap)
    index = {p: i for i, p in enumerate(perms)}
    # mul(p, q) = p after q
    table = [
        [index[tuple(p[q[i]] for i in range(n))] for q in perms]
        for p in perms
    ]
    labels = [_cycle_label(p) for p in perms]
    return FiniteGroup(table, name=f"S{n}", labels=labels, order_cap=order_cap)


def product(*groups, order_cap=DEFAULT_ORDER_CAP):
    if not groups:
        raise SpecMalformed("empty product")
    if len(groups) == 1:
        return groups[0]
    n = 1
    for g in groups:
        n *= g.order
    _check_cap(n, order_cap)
    sizes = [g.order for g in groups]

    def decode(x):
        comps = []
        for size in reversed(sizes):
            comps.append(x % size)
            x //= size
        return tuple(reversed(comps))

    def encode(comps):
        x = 0
        for size, c in zip(sizes, comps):
            x = x * size + c
        return x

    def mul(x, y):
        cx, cy = decode(x), decode(y)
        return encode(tuple(g.mul(a, b) for g, a, b in zip(groups, cx, cy)))

    table = [[mul(x, y) for y in range(n)] for x in range(n)]
    labels = [
        "(" + ",".join(g.label_of(c) for g, c in zip(groups, decode(x))) + ")"
        for x in range(n)
    ]
    name = "x".join(g.name for g in groups)
    return FiniteGroup(table, name=name, labels=labels, order_cap=order_cap)


def from_table(mul, name="G", labels=None, order_cap=DEFAULT_ORDER_CAP):
    return FiniteGroup(mul, name=name, labels=labels, order_cap=order_cap)


_SPEC_ATOM = re.compile(r"^([CDS])(\d+)$|^(Q8)$")


def parse_spec(text, order_cap=DEFAULT_ORDER_CAP):
    """Build a group from a spec string: C<n>, D<n>, Q8, S<n>, joined by 'x' for products.

    Each factor and the product are checked against order_cap before their
    tables are built, so an over-cap spec fails at once.
    """
    text = text.strip()
    if not text:
        raise SpecMalformed("empty group spec")
    factors = []
    for atom in text.split("x"):
        m = _SPEC_ATOM.match(atom.strip())
        if not m:
            raise SpecMalformed(f"unknown group spec atom {atom!r}")
        if m.group(3):
            factors.append(quaternion8(order_cap=order_cap))
            continue
        fam, n = m.group(1), int(m.group(2))
        make = {"C": cyclic, "D": dihedral, "S": symmetric}[fam]
        factors.append(make(n, order_cap=order_cap))
    return product(*factors, order_cap=order_cap)


# ---------------------------------------------------------------------------
# subgroup machinery

def closure(G: FiniteGroup, seed):
    """Smallest subgroup member set containing the seed."""
    mem = {0}
    frontier = list(set(seed) | {0})
    mem.update(frontier)
    while frontier:
        x = frontier.pop()
        for y in list(mem):
            for z in (G.mul(x, y), G.mul(y, x)):
                if z not in mem:
                    mem.add(z)
                    frontier.append(z)
        ix = G.inv(x)
        if ix not in mem:
            mem.add(ix)
            frontier.append(ix)
    return frozenset(mem)


def enumerate_subgroups(G: FiniteGroup):
    """All subgroups of G, sorted by size then lexicographic member list."""
    def build():
        found = {frozenset({0})}
        frontier = [frozenset({0})]
        while frontier:
            base = frontier.pop()
            for x in range(1, G.order):
                if x in base:
                    continue
                ext = closure(G, base | {x})
                if ext not in found:
                    found.add(ext)
                    frontier.append(ext)
        subs = [Subgroup(G, s, _validated=True) for s in found]
        subs.sort(key=lambda H: (H.order, H.members))
        return subs
    return G.cached("subgroups", build)


def normalizer(G: FiniteGroup, H: Subgroup) -> Subgroup:
    if H.parent is not G:
        raise NotASubgroup("subgroup belongs to a different group")

    def build():
        mem = set(H.members)
        norm = [d for d in range(G.order) if {G.conj(h, d) for h in H.members} == mem]
        return Subgroup(G, norm, _validated=True)
    return G.cached(("normalizer", H.members), build)


def conjugate_subgroup(H: Subgroup, d) -> Subgroup:
    """The subgroup d H d^-1 of the same parent."""
    G = H.parent
    return Subgroup(G, sorted(G.conj(h, d) for h in H.members), _validated=True)


def is_central_in(H: Subgroup, N: Subgroup) -> bool:
    """Whether every element of H commutes with every element of N (H, N same parent)."""
    G = H.parent
    return all(G.mul(h, x) == G.mul(x, h) for h in H.members for x in N.members)


def same_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    """Structural equality: identical multiplication tables on the same id set.

    Groups loaded from separate files compare equal here even though they are
    distinct objects; labels and names are presentation only and ignored.
    """
    return a is b or (a.order == b.order and a.mul_table == b.mul_table)


def same_subgroup(h1: Subgroup, h2: Subgroup) -> bool:
    return same_group(h1.parent, h2.parent) and h1.members == h2.members


def rehome(H: Subgroup, G: FiniteGroup) -> Subgroup:
    """H as a subgroup of G, a group object with the same table as H's parent.

    Objects loaded from separate files carry separate copies of one table;
    rehoming puts them on one group object so they can be compared.
    AmbientMismatch if the tables differ.
    """
    if H.parent is G:
        return H
    if not same_group(H.parent, G):
        raise AmbientMismatch("subgroup lives in a group with a different table")
    return Subgroup(G, H.members, _validated=True)
