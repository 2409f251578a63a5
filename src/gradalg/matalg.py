"""Graded matrix algebras M_k(F^sigma[H]) with an elementary grading.

The basis is {E_ij eta_zeta} with 1-based matrix indices; a degree tuple
theta of length k over the ambient group G makes E_ij eta_zeta homogeneous
of degree theta_i^-1 zeta theta_j.  Two tuples give isomorphic graded
algebras exactly when one is reachable from the other by permuting slots,
multiplying slots by subgroup elements, and a global normalizer shift;
that orbit test and the explicit regrading isomorphism live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cocycles import conjugate_class
from .errors import (
    DomainMismatch,
    IndexOutOfRange,
    InvalidWitness,
    LengthMismatch,
    ValidationError,
    VerificationFailed,
)
from .graded import GradedElement, GradedMap, MonomialAlgebra
from .groups import normalizer
from .twisted import TwistedGroupAlgebra


class MatBasisElt(NamedTuple):
    i: int
    j: int
    zeta: int


class GradedMatrixAlgebra(MonomialAlgebra):
    """M_k(B) for a twisted group algebra B, graded by a degree tuple."""

    def __init__(self, base, theta):
        theta = tuple(int(t) for t in theta)
        if len(theta) < 1:
            raise ValidationError("degree tuple must have at least one entry")
        n = base.ambient.order
        for t in theta:
            if not (0 <= t < n):
                raise ValidationError(f"degree tuple entry {t} is not a group element")
        self.base = base
        self.theta = theta
        self.k = len(theta)
        self._keys = None
        self._degrees = None

    @property
    def subgroup(self):
        return self.base.subgroup

    @property
    def sigma(self):
        return self.base.sigma

    @property
    def field(self):
        return self.base.field

    @property
    def ambient(self):
        return self.base.ambient

    @property
    def dim(self):
        return self.k * self.k * self.subgroup.order

    def basis_keys(self):
        """The keys (i, j, zeta) in row-major order, built once."""
        if self._keys is None:
            members = self.subgroup.members
            k = self.k
            self._keys = tuple(
                MatBasisElt(i, j, z)
                for i in range(1, k + 1) for j in range(1, k + 1) for z in members)
        return self._keys

    @property
    def degrees(self):
        """Stored degree table, built once: key -> theta_i^-1 zeta theta_j."""
        if self._degrees is None:
            G = self.ambient
            th = self.theta
            self._degrees = {
                key: G.mul(G.mul(G.inv(th[key.i - 1]), key.zeta), th[key.j - 1])
                for key in self.basis_keys()
            }
        return self._degrees

    def degree_of_key(self, key):
        return self.degrees[key]

    def degree_of(self, i, j, zeta):
        if not (1 <= i <= self.k and 1 <= j <= self.k):
            raise IndexOutOfRange(f"matrix position ({i}, {j}) outside 1..{self.k}")
        if zeta not in self.base.support():
            raise DomainMismatch(f"element {zeta} is not in the support subgroup")
        return self.degrees[MatBasisElt(i, j, zeta)]

    def support(self):
        return frozenset(self.degrees.values())

    @property
    def theta_in_normalizer(self):
        """Whether every degree tuple entry normalizes the support subgroup."""
        N = set(normalizer(self.ambient, self.subgroup).members)
        return all(t in N for t in self.theta)

    def multiply_basis_exp(self, key1, key2):
        if key1.j != key2.i:
            return None
        e, prod = self.base.multiply_basis_exp(key1.zeta, key2.zeta)
        return e, MatBasisElt(key1.i, key2.j, prod)

    def multiply_rows_exp(self, rows):
        """multiply_basis_exp for the basis positions in rows against every
        basis position, as two (len(rows), dim) arrays: exponents and product
        positions in basis_keys() order, position -1 for a zero product.
        Row (i, j, z) meets only the keys (j, l, y), in the base grid's row
        of z."""
        k, h = self.k, self.subgroup.order
        rows = np.asarray(rows, dtype=np.int64)
        i, rest = np.divmod(rows, k * h)
        j, z = np.divmod(rest, h)
        base_exp, base_prod = self.base.multiply_rows_exp(z)
        at = np.arange(rows.size)
        exp = np.zeros((rows.size, k, k, h), dtype=np.int64)
        prod = np.full((rows.size, k, k, h), -1, dtype=np.int64)
        exp[at, j] = base_exp[:, None, :]
        prod[at, j] = (i[:, None, None] * k + np.arange(k)[None, :, None]) * h + base_prod[:, None, :]
        return exp.reshape(rows.size, -1), prod.reshape(rows.size, -1)

    # -- element constructors ---------------------------------------------

    def zero(self):
        return GradedElement(self, {})

    def one(self):
        c = self.base.sigma_value(0, 0).inv()
        return GradedElement(
            self, {MatBasisElt(p, p, 0): c for p in range(1, self.k + 1)})

    def basis_element(self, key):
        key = MatBasisElt(*key)
        self.degree_of(key.i, key.j, key.zeta)
        return GradedElement(self, {key: self.field.one()})

    def element(self, mapping):
        for key in mapping:
            key = MatBasisElt(*key)
            self.degree_of(key.i, key.j, key.zeta)
        return GradedElement(self, {MatBasisElt(*k): v for k, v in mapping.items()})

    # -- checks -------------------------------------------------------------

    def verify_grading(self):
        """Exhaustively check deg(ab) = deg(a) deg(b) against the stored table."""
        G = self.ambient
        keys = self.basis_keys()
        table = self.degrees
        missing = object()
        for key in keys:
            if table.get(key, missing) is missing:
                return False
        for k1 in keys:
            for k2 in keys:
                hit = self.multiply_basis(k1, k2)
                if hit is None:
                    continue
                _, out = hit
                if table.get(out, missing) != G.mul(table[k1], table[k2]):
                    return False
        return True

    def with_field(self, field):
        if field.modulus == self.field.modulus:
            return self
        return GradedMatrixAlgebra(self.base.with_field(field), self.theta)

    def __eq__(self, other):
        if not isinstance(other, GradedMatrixAlgebra):
            return NotImplemented
        return self.base == other.base and self.theta == other.theta

    __hash__ = None

    def __repr__(self):
        return f"M{self.k}({self.base!r}; theta={self.theta})"


@dataclass(frozen=True)
class LambdaWitness:
    """A regrading move: slot permutation alpha (1-based images), subgroup
    shifts xis, and a normalizer element delta.  Sends the degree tuple
    theta to tau with tau_j = delta xi_j theta_{alpha(j)}."""

    delta: int
    alpha: tuple
    xis: tuple

    def validate(self, algebra):
        k = algebra.k
        G = algebra.ambient
        if len(self.alpha) != k or sorted(self.alpha) != list(range(1, k + 1)):
            raise InvalidWitness("alpha is not a permutation of 1..k")
        if len(self.xis) != k:
            raise InvalidWitness("xis length does not match the matrix size")
        if any(x not in algebra.base.support() for x in self.xis):
            raise InvalidWitness("shift entries must lie in the support subgroup")
        N = normalizer(G, algebra.subgroup)
        if self.delta not in set(N.members):
            raise InvalidWitness("delta does not normalize the support subgroup")

    def target_tuple(self, algebra):
        G = algebra.ambient
        th = algebra.theta
        return tuple(
            G.mul(self.delta, G.mul(self.xis[j], th[self.alpha[j] - 1]))
            for j in range(algebra.k))


def _coset_reps(G, big_members, sub_members):
    """Smallest representative of each coset d*S inside the bigger subgroup."""
    seen = set()
    reps = []
    for d in big_members:
        if d in seen:
            continue
        reps.append(d)
        for h in sub_members:
            seen.add(G.mul(d, h))
    return reps


def _lexmin_matching(adj):
    """Lexicographically smallest injective matching covering every source.

    adj[j] lists candidate targets in ascending order.  Greedy choice with a
    feasibility check (augmenting paths on the remaining sources) is exact.
    """
    k = len(adj)

    def rest_feasible(used, start):
        match_of = {}

        def try_assign(j, seen):
            for i in adj[j]:
                if i in used or i in seen:
                    continue
                seen.add(i)
                if i not in match_of or try_assign(match_of[i], seen):
                    match_of[i] = j
                    return True
            return False

        return all(try_assign(j, set()) for j in range(start, k))

    used = set()
    out = []
    for j in range(k):
        pick = None
        for i in adj[j]:
            if i in used:
                continue
            used.add(i)
            if rest_feasible(used, j + 1):
                pick = i
                break
            used.remove(i)
        if pick is None:
            return None
        out.append(pick)
    return out


def slot_matchings(H, rows, cols):
    """The regrading slot matchings of the tuple rows onto the tuple cols.

    Scans the coset representatives delta of the support subgroup H inside
    its normalizer, smallest first.  For each, shifts[j][i] is
    delta^-1 rows_j cols_i^-1, and slot j may go to slot i when that shift
    lies in H.  Yields (delta, matching, shifts) for each delta that admits
    an injective matching of every row slot, with the lexicographically
    smallest matching (matching[j] is the column slot of row slot j).
    """
    G = H.parent
    members = set(H.members)
    for delta in _coset_reps(G, normalizer(G, H).members, H.members):
        dinv = G.inv(delta)
        shifts = [[G.mul(dinv, G.mul(r, G.inv(c))) for c in cols] for r in rows]
        matching = _lexmin_matching(
            [[i for i, x in enumerate(row) if x in members] for row in shifts])
        if matching is not None:
            yield delta, matching, shifts


def lambda_membership(target, algebra):
    """Decide whether the degree tuple target is a regrading of algebra's.

    Scans coset representatives delta of the support subgroup inside its
    normalizer; for each, slots match when target_j theta_i^-1 lands in
    delta H.  Returns the first witness in (delta, matching) order, or None.
    """
    G = algebra.ambient
    k = algebra.k
    target = tuple(int(t) for t in target)
    if len(target) != k:
        raise LengthMismatch(f"target tuple has {len(target)} entries, need {k}")
    for t in target:
        if not (0 <= t < G.order):
            raise ValidationError(f"target entry {t} is not a group element")
    for delta, matching, shifts in slot_matchings(algebra.subgroup, target, algebra.theta):
        witness = LambdaWitness(
            delta=delta,
            alpha=tuple(i + 1 for i in matching),
            xis=tuple(shifts[j][matching[j]] for j in range(k)))
        if witness.target_tuple(algebra) != target:
            raise VerificationFailed("constructed regrading witness misses the target tuple")
        return witness
    return None


def regrade_iso(algebra, witness):
    """The graded isomorphism attached to a regrading witness.

    Returns (target, phi) where target carries the degree tuple
    witness.target_tuple(algebra) and the cocycle conjugated by delta, and
    phi sends E_ij eta_zeta to a scalar multiple of one target basis
    element.  The scalar realizes the slot shifts as conjugation by an
    invertible homogeneous diagonal, so phi is a graded isomorphism.
    """
    witness.validate(algebra)
    G = algebra.ambient
    sigma = algebra.sigma
    field = algebra.field
    step = field.modulus // sigma.modulus
    r = sigma.entry
    delta = witness.delta
    rho = conjugate_class(sigma, delta)
    target = GradedMatrixAlgebra(
        TwistedGroupAlgebra(algebra.subgroup, rho, field),
        witness.target_tuple(algebra))
    inv_alpha = {witness.alpha[j]: j + 1 for j in range(algebra.k)}
    assign = {}
    for key in algebra.basis_keys():
        a = inv_alpha[key.i]
        b = inv_alpha[key.j]
        xa = witness.xis[a - 1]
        xb = witness.xis[b - 1]
        xb_inv = G.inv(xb)
        left = G.mul(xa, key.zeta)
        coef = field.root(
            (r(xa, key.zeta) + r(left, xb_inv) - r(xb, xb_inv) - r(0, 0)) * step)
        assign[key] = (coef, MatBasisElt(a, b, G.conj(G.mul(left, xb_inv), delta)))
    return target, GradedMap.monomial(algebra, target, assign)
