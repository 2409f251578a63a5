"""Degree-bounded multilinear graded polynomial identities.

A multilinear graded polynomial of degree n over a degree assignment
(g_1, ..., g_n) is a combination sum_w c_w x_{w(1)} ... x_{w(n)} over
permutations w, where the variable x_i only takes homogeneous values of
degree g_i.  Its identities at the assignment form the kernel of the
evaluation matrix: one row per (basis substitution, landing basis key), one
column per permutation in lexicographic order.

Both algebra types are monomial, so every entry of that matrix is 0 or a
root of unity zeta_M^e (M the field's root order), and rows are built as
exponents from basis products, scaled to start with zeta^0 and
deduplicated.  The products are read from the algebra's structure-constant
grid over basis positions (multiply_rows_exp, the tables that witness
verification also uses), built once per call.  The rows of every
assignment of one degree are built together in numpy, in steps of a
bounded number of (substitution, permutation) entries: the products of
all permutations grow prefix by prefix as gathers on the grid, the
entries of a substitution are grouped into rows by the basis position
they land on, and one stable sort per step drops each assignment's
repeated rows, keeping the first substitution of each.

A kernel is lifted from one prime, in the manner of Dixon, "Exact solution
of linear equations using p-adic expansions", Numer. Math. 40 (1982), and
Wang, Guy and Davenport, "P-adic reconstruction of rational numbers",
SIGSAM Bull. 16 (1982).  The rows are row-reduced modulo a prime
p = 1 (mod M) under each of the phi(M) ring maps zeta_M -> g^j (g of order M,
j a unit mod M), stacked in one array; the pivot entries of the phi(M)
reduced forms are interpolated to power-basis coefficients and each is
reconstructed as a rational.  The lift is then checked exactly, in integer
arithmetic modulo the M-th cyclotomic polynomial, to kill every row.  Rows
independent modulo p are independent over Q(zeta_M), so the rank is at
least the modular rank r; the width - r lifted vectors are independent (an
identity block on the free columns) and kill every row, so it is at most r.
So the modular pivots are the exact row-reduced form's, and the lift is the
canonical kernel basis: one vector per free column, with a 1 there and
support on the pivots left of it.  When the maps disagree on the pivots, a
reconstruction fails or the check finds a row the lift does not kill,
another prime is added by CRT (a prime with earlier pivots replaces the
ones before it), so the spaces are exact for any prime.  A single row is
its own reduced form, and its kernel is written down with no prime.

A row space depends only on its set of distinct rows, and many degree
assignments share one, so a call lifts each (width, row set) once and keeps
the kernel in integer form: per vector, integer polynomials for its
coordinates and one denominator.  A containment shares these kernels
between its two algebras, which live over one field.  Every identity of A
is one of B exactly when A's kernel kills every row of B, so each pair of
row sets is decided by one kill mask; when it is not contained, the mask
column of the first vector B does not kill gives the witness row of every
assignment with that pair, and the value of the separating polynomial
there is summed from the grid's products in exponent form.  Only the
identity spaces returned and the separating polynomials become CycloNumber
vectors.  Nothing is kept between calls, except each field's table of x^t
modulo Phi_M and the primes with their maps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, isqrt, lcm, prod

import numpy as np

from .config import EngineConfig
from .cyclo import CycloNumber, cyclo_field
from .errors import (
    AlgebraMismatch,
    AmbientMismatch,
    DegreeCapExceeded,
    DegreeMismatch,
    FieldMismatch,
    LengthMismatch,
    ValidationError,
    VerificationFailed,
)
from .graded import GradedElement
from .groups import same_group


@dataclass(frozen=True)
class DegreeAssignment:
    """Degrees (ambient element ids) prescribed for the variables x_1..x_n."""

    degs: tuple

    def __post_init__(self):
        object.__setattr__(self, "degs", tuple(int(g) for g in self.degs))
        if not self.degs:
            raise ValidationError("degree assignment needs at least one variable")

    @property
    def n(self):
        return len(self.degs)


class GradedMultilinearPoly:
    """Sparse multilinear polynomial: permutation tuple -> coefficient."""

    def __init__(self, assignment, coeffs, field):
        self.assignment = assignment
        self.field = field
        n = assignment.n
        clean = {}
        for perm, c in coeffs.items():
            perm = tuple(perm)
            if sorted(perm) != list(range(1, n + 1)):
                raise ValidationError(f"{perm} is not a permutation of 1..{n}")
            if not c.is_zero():
                clean[perm] = c
        self.coeffs = clean

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, GradedMultilinearPoly):
            return NotImplemented
        return (self.assignment == other.assignment
                and self.field.modulus == other.field.modulus
                and self.coeffs == other.coeffs)

    __hash__ = None

    def __repr__(self):
        if not self.coeffs:
            return "<poly 0>"
        parts = [
            f"{c!r}*x" + "x".join(str(i) for i in perm)
            for perm, c in sorted(self.coeffs.items())
        ]
        return "<poly " + " + ".join(parts) + ">"


def evaluate(poly, algebra, subst):
    """Substitute homogeneous elements into a multilinear polynomial.

    subst[i] must be zero or homogeneous of the assigned degree; the
    polynomial's coefficients are lifted into the algebra's field, which
    must contain them.
    """
    degs = poly.assignment.degs
    if len(subst) != len(degs):
        raise LengthMismatch(
            f"{len(subst)} substitutions for {len(degs)} variables")
    field = algebra.field
    if field.modulus % poly.field.modulus != 0:
        raise FieldMismatch(
            "polynomial coefficients do not fit in the algebra's field")
    for i, elt in enumerate(subst):
        if elt.algebra != algebra:
            raise AlgebraMismatch(f"substitution {i + 1} is from another algebra")
        if elt.is_zero():
            continue
        if elt.degrees() != frozenset({degs[i]}):
            raise DegreeMismatch(
                f"substitution {i + 1} is not homogeneous of degree {degs[i]}")
    out = algebra.zero()
    for perm, c in poly.coeffs.items():
        term = subst[perm[0] - 1]
        for idx in perm[1:]:
            term = term * subst[idx - 1]
        out = out + term.scaled(c.lift_to(field))
    return out


@dataclass(frozen=True)
class IdentitySpace:
    """Kernel of the evaluation map at one degree assignment.

    basis is the canonical kernel basis over permutations in lexicographic
    order (one vector per free column of the row-reduced evaluation
    matrix), so equal spaces have equal bases.
    """

    algebra: object
    assignment: DegreeAssignment
    basis: tuple

    @property
    def dimension(self):
        return len(self.basis)


def _perms(n):
    return sorted(itertools.permutations(range(1, n + 1)))


# (substitution x permutation) entries of the evaluation matrix built in one
# step of _assignment_rows; every array of a step holds about this many
_CHUNK_ENTRIES = 1 << 15


class _Grid:
    """One algebra's structure constants over basis positions, read once
    from multiply_rows_exp: exp[a, b] and prod[a, b] give e_a e_b =
    zeta_M^exp e_prod (prod -1 for zero).  A last row of prod -1 and exp 0
    stands for a zero left factor, so a product position -1 reads it.

    comps maps each degree of the support to the positions of its basis, in
    basis_keys() order; table holds the same lists as padded rows and sizes
    their lengths, with a last row of size 0 for a degree outside the
    support, and row_of gives the row of each element of the grading group.  The two
    tables hold dim**2 entries each, so a grid costs O(dim**2) memory.
    """

    def __init__(self, algebra):
        self.keys = algebra.basis_keys()
        dim = len(self.keys)
        exp, prod = algebra.multiply_rows_exp(np.arange(dim))
        self.exp = np.vstack([exp, np.zeros((1, dim), dtype=np.int64)])
        self.prod = np.vstack([prod, np.full((1, dim), -1, dtype=np.int64)])
        self.comps = {}
        for pos, key in enumerate(self.keys):
            self.comps.setdefault(algebra.degree_of_key(key), []).append(pos)
        self.row_of = np.full(algebra.ambient.order, len(self.comps), dtype=np.int64)
        self.row_of[list(self.comps)] = np.arange(len(self.comps))
        self.sizes = np.array([len(c) for c in self.comps.values()] + [0], dtype=np.int64)
        self.table = np.zeros((len(self.sizes), self.sizes.max()), dtype=np.int64)
        for i, c in enumerate(self.comps.values()):
            self.table[i, :len(c)] = c


@lru_cache(maxsize=None)
def _prefix_steps(n):
    """The permutations of range(n) in lexicographic order, grown one
    variable at a time: for each length k = 2..n, the prefixes of length k
    in lexicographic order, as (index of the prefix of length k - 1,
    variable appended)."""
    steps = []
    for k in range(2, n + 1):
        shorter = {p: i for i, p in enumerate(itertools.permutations(range(n), k - 1))}
        grown = list(itertools.permutations(range(n), k))
        steps.append((np.array([shorter[p[:-1]] for p in grown]),
                      np.array([p[-1] for p in grown])))
    return tuple(steps)


def _products(grid, subst):
    """(pos, exp): e_w(1) ... e_w(n) = zeta_M^exp e_pos for the
    substitutions subst (one row of basis positions each) and every
    permutation w in lexicographic order, gathered from the grid prefix by
    prefix; pos is -1 for a zero product."""
    pos, exp = subst, np.zeros_like(subst)
    for parent, var in _prefix_steps(subst.shape[1]):
        left, right = pos[:, parent], subst[:, var]
        pos, exp = grid.prod[left, right], exp[:, parent] + grid.exp[left, right]
    return pos, exp


def _evaluation_rows(grid, subst, m):
    """Rows of the evaluation matrix in exponent form for the substitutions
    subst (one row of basis positions each), and the substitution of each
    row.

    A nonzero product lands on one basis position; the row of
    (substitution, landing position) holds zeta_m^e as e at the columns
    that land there and -1 elsewhere, scaled to start with zeta^0.  Rows
    come by substitution, then by first column.
    """
    pos, exp = _products(grid, subst)
    count, width = pos.shape
    at = np.arange(count)[:, None]
    # lead[s, c]: the first column of substitution s that lands where c does
    order = np.argsort(pos, axis=1, kind="stable")
    landed = pos[at, order]
    start = np.ones(landed.shape, dtype=bool)
    start[:, 1:] = landed[:, 1:] != landed[:, :-1]
    head = np.maximum.accumulate(np.where(start, np.arange(width), 0), axis=1)
    lead = np.empty_like(order)
    lead[at, order] = order[at, head]
    live = pos >= 0
    # the entries that lead a row, by substitution then column
    first = np.flatnonzero(live & (lead == np.arange(width)))
    row_of = np.zeros(pos.size, dtype=np.int64)
    row_of[first] = np.arange(first.size)
    row = row_of[at * width + lead]
    E = np.full((first.size, width), -1, dtype=np.min_scalar_type(-m))
    E[row[live], np.nonzero(live)[1]] = (exp - exp[at, lead])[live] % m
    return E, first // width


def _distinct_rows(E, subst, owner, count):
    """(rows, substs, sorted, rank, bounds) for the count owners of the rows
    of E; owners do not decrease down E.

    rows and substs are each owner's distinct rows in order of first
    occurrence, with the substitution of that occurrence; sorted holds the
    same rows sorted, and rank[i] is the place of rows[i] among its owner's
    sorted rows.  Owner i's rows are [bounds[i], bounds[i + 1]) of each."""
    # a stable sort by owner, then row, keeps first occurrences first
    order = np.lexsort((*E.T[::-1], owner))
    rows, owners = E[order], owner[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (owners[1:] != owners[:-1]) | (rows[1:] != rows[:-1]).any(axis=1)
    srt = order[new]
    where = np.argsort(srt, kind="stable")
    occ = srt[where]
    bounds = np.searchsorted(owner[occ], np.arange(count + 1))
    rank = where - np.repeat(bounds[:-1], np.diff(bounds))
    return E[occ], subst[occ], E[srt], rank, bounds


def _assignment_rows(grid, degs, m):
    """The evaluation rows, in exponent form, of the degree assignments in
    the rows of the array degs, yielded once per step for the assignments
    the step finishes, in order, as (sorted, substs, rank, bounds): the
    assignment i of the step has the distinct rows sorted[bounds[i]:
    bounds[i + 1]], sorted, and its first basis substitution (as basis
    positions) of each of them in substs over the same span, in order of
    first occurrence, with rank giving the place of that row in sorted.

    The substitutions of all assignments, each in itertools.product order
    over its components, are laid end to end and built in steps of about
    _CHUNK_ENTRIES entries, so memory does not grow with the assignments.
    The distinct rows of an assignment that a step cuts are carried to the
    head of the next step, which keeps first occurrences.
    """
    count, n = degs.shape
    width = factorial(n)
    comp = grid.row_of[degs]
    radix = grid.sizes[comp]
    # itertools.product order: the last variable runs fastest
    stride = np.ones_like(radix)
    for k in range(n - 2, -1, -1):
        stride[:, k] = stride[:, k + 1] * radix[:, k + 1]
    offsets = np.concatenate([[0], np.cumsum(radix.prod(axis=1))])
    total = int(offsets[-1])
    step = max(1, _CHUNK_ENTRIES // width)
    rows = np.zeros((0, width), dtype=np.min_scalar_type(-m))
    substs = np.zeros((0, n), dtype=np.int64)
    carried = 0
    done = 0
    for lo in range(0, total, step):
        hi = min(lo + step, total)
        t = np.arange(lo, hi)
        owner = np.searchsorted(offsets, t, side="right") - 1
        subst = grid.table[comp[owner], (t - offsets[owner])[:, None] // stride[owner] % radix[owner]]
        E, of = _evaluation_rows(grid, subst, m)
        # assignments done .. run_on - 1 end in this step; run_on runs on
        run_on = int(np.searchsorted(offsets, hi, side="right")) - 1
        rows, substs, ordered, rank, bounds = _distinct_rows(
            np.concatenate([rows[carried:], E]),
            np.concatenate([substs[carried:], subst[of]]),
            np.concatenate([np.zeros(len(rows) - carried, dtype=np.int64), owner[of] - done]),
            run_on - done + 1)
        carried = bounds[-2]
        if run_on > done:
            yield ordered[:carried], substs[:carried], rank[:carried], bounds[:-1]
        done = run_on
    if done < count:
        yield (rows[:0], substs[:0], np.zeros(0, dtype=np.int64),
               np.zeros(count - done + 1, dtype=np.int64))


def _is_prime(p):
    return p > 1 and all(p % q for q in range(2, isqrt(p) + 1))


@lru_cache(maxsize=None)
def _prime(m, i):
    """(p, g): the i-th largest prime p = 1 (mod m) with phi(m) p**2 < 2**63,
    from i = 0, and an element g of order m modulo p, so that zeta_m -> g
    is a ring map.  The bound keeps a product of two residues, and a sum of
    phi(m) of them, inside int64."""
    phi = sum(gcd(j, m) == 1 for j in range(m))
    p = (isqrt(2**63 // phi) - 2) // m * m + 1
    for _ in range(i + 1):
        while not _is_prime(p):
            p -= m
        p -= m
    p += m
    primes = [q for q in range(2, m + 1) if m % q == 0 and _is_prime(q)]
    h = 2
    while True:
        g = pow(h, (p - 1) // m, p)
        if all(pow(g, m // q, p) != 1 for q in primes):
            return p, g
        h += 1


def _inverse_mod(mat, p):
    """The inverse of the invertible square matrix mat (lists of ints)
    modulo the prime p."""
    size = len(mat)
    rows = [list(r) + [int(i == j) for j in range(size)] for i, r in enumerate(mat)]
    for c in range(size):
        s = next(r for r in range(c, size) if rows[r][c] % p)
        rows[c], rows[s] = rows[s], rows[c]
        inv = pow(rows[c][c], p - 2, p)
        rows[c] = [x * inv % p for x in rows[c]]
        for r in range(size):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[c])]
    return [r[size:] for r in rows]


@lru_cache(maxsize=None)
def _maps(m, p, g):
    """(powers, interpolate) for the phi(m) ring maps zeta_m -> g^j modulo
    p, j a unit modulo m: powers[k, e] = g^(j_k e) for e < m, with a last
    column 0 that an absent entry (-1) picks; interpolate is minus the
    inverse of the Vandermonde matrix V[k, i] = g^(j_k i), i < phi(m), and
    takes the images of a field element under the maps to minus its
    power-basis coefficients.  Both are cached, so they are read-only."""
    units = [j for j in range(m) if gcd(j, m) == 1]
    powers = np.array([[pow(g, j * e, p) for e in range(m)] + [0] for j in units],
                      dtype=np.int64)
    vandermonde = [[pow(g, j * i, p) for i in range(len(units))] for j in units]
    interpolate = -np.array(_inverse_mod(vandermonde, p), dtype=np.int64) % p
    powers.flags.writeable = interpolate.flags.writeable = False
    return powers, interpolate


def _modular_rref(E, m, p, g):
    """(pivots, coeffs) of the rows E (exponent form) modulo p, or None
    when the phi(m) maps give different pivots.

    The images of E under the maps are row-reduced together, as one stacked
    array.  coeffs[i, a, b] is power-basis coefficient i, modulo p, of the
    entry at pivot a of the kernel vector of the b-th free column: minus
    the reduced form's entry there.
    """
    powers, interpolate = _maps(m, p, g)
    A = powers[:, E]
    maps, rows, width = A.shape
    at = np.arange(maps)
    pivots = []
    for c in range(width):
        r = len(pivots)
        if r == rows:
            break
        nonzero = A[:, r:, c] != 0
        s = nonzero.argmax(axis=1)
        hit = nonzero[at, s]
        if not hit.all():
            if hit.any():
                return None
            continue
        s += r
        top = A[at, s]
        A[at, s] = A[:, r]
        top = top * np.array([pow(int(x), p - 2, p) for x in top[:, c]])[:, None] % p
        A[:, r] = top
        factor = A[:, :, c, None].copy()
        factor[:, r] = 0
        A[:, :, c:] = (A[:, :, c:] - factor * top[:, None, c:]) % p
        pivots.append(c)
    free = [c for c in range(width) if c not in pivots]
    images = A[:, :len(pivots)][:, :, free]
    return pivots, (interpolate @ images.reshape(maps, -1) % p).reshape(images.shape)


def _rational(x, modulus, bound):
    """The fraction a/b with a = b x (mod modulus), |a| <= bound and
    0 < b <= bound, as (a, b), or None (Wang's half-extended Euclid)."""
    r0, r1, s0, s1 = modulus, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if not s1 or abs(s1) > bound:
        return None
    a, b = (r1, s1) if s1 > 0 else (-r1, -s1)
    return (a, b) if gcd(a, b) == 1 else None


def _scalar(field, coeffs, den):
    """sum_i coeffs[i] zeta^i / den, for integer power-basis coefficients."""
    hit = [i for i, c in enumerate(coeffs) if c]
    if len(hit) == 1:
        # c x^i with i < phi is the monomial c zeta^i, as field.element gives it
        return CycloNumber(field, Fraction(coeffs[hit[0]], den), hit[0])
    return field.element([Fraction(c, den) for c in coeffs])


class _Kernel:
    """A row set's canonical kernel basis in integer form: vector v is
    polys[v] / dens[v], where polys[v, j] holds the integer coefficients of
    coordinate j over the power basis, padded with zeros to m.  Kernels
    compare and hash by identity, one per row set per call."""

    __slots__ = ("polys", "dens", "dimension", "_vectors")

    def __init__(self, polys, dens):
        self.polys = polys
        self.dens = dens
        self.dimension = len(dens)
        self._vectors = {}

    def vector(self, v, field):
        """The nonzero coordinates of vector v as {column: CycloNumber},
        built once."""
        if v not in self._vectors:
            den, phi = self.dens[v], field.degree
            polys = self.polys[v, :, :phi]
            out = {}
            for j in np.flatnonzero(polys.any(axis=1)).tolist():
                out[j] = _scalar(field, polys[j].tolist(), den)
            self._vectors[v] = out
        return self._vectors[v]


def _reconstruct(pivots, images, width, field):
    """The kernel whose pivot entries have the CRT images (p, coeffs) of
    _modular_rref, or None when a coefficient has no rational with
    numerator and denominator below sqrt(P / 2), P the product of the
    primes.  A residue within that bound of 0 or P is an integer as it
    stands."""
    m, phi = field.modulus, field.degree
    if len(images) == 1:
        modulus, X = images[0]
    else:
        modulus = prod(p for p, _ in images)
        X = np.zeros(images[0][1].shape, dtype=object)
        for p, coeffs in images:
            q = modulus // p
            X = (X + coeffs.astype(object) * (q * pow(q, -1, p))) % modulus
    bound = isqrt(modulus // 2)
    num = np.where(X <= bound, X, X - modulus)
    free = [c for c in range(width) if c not in pivots]
    dens = [1] * len(free)
    scaled = num
    fractions = np.nonzero((X > bound) & (X < modulus - bound))
    if fractions[0].size:
        den = np.ones(X.shape, dtype=object)
        for at in zip(*fractions):
            frac = _rational(int(X[at]), modulus, bound)
            if frac is None:
                return None
            num[at], den[at] = frac
        dens = [lcm(*den[:, :, b].ravel().tolist()) for b in range(len(free))]
        scaled = num.astype(object) * (np.array(dens, dtype=object) // den)
    if scaled.dtype == object and max([*dens, *np.abs(scaled).ravel().tolist()], default=0) < 2**62:
        scaled = scaled.astype(np.int64)
    polys = np.zeros((len(free), width, m), dtype=scaled.dtype)
    polys[np.arange(len(free)), free, 0] = dens
    polys[:, pivots, :phi] = scaled.transpose(2, 1, 0)
    return _Kernel(polys, dens)


# lifts that add primes past this many raise; 64 primes of 31 bits
# reconstruct every numerator and denominator below 2**990
_MAX_PRIMES = 64


def _lift(E, width, field):
    """The canonical kernel of the rows E (exponent form, width columns),
    lifted from as many primes as it takes and checked exactly."""
    m = field.modulus
    if len(E) < 2:
        # no rows, or one row r: its kernel needs no prime, the vector of
        # each column f after r's first nonzero column l is e_f - (r_f / r_l) e_l
        polys = np.eye(width, dtype=np.int64)[:, :, None] * np.eye(1, m, dtype=np.int64)
        if len(E):
            lead, *rest = np.flatnonzero(E[0] >= 0).tolist()
            polys = np.delete(polys, lead, axis=0)
            ratios = _residue_array(field, np.int64)[(E[0, rest] - E[0, lead]) % m]
            polys[np.array(rest, dtype=np.int64) - 1, lead, :field.degree] = -ratios
        return _Kernel(polys, [1] * len(polys))
    best, images = None, []
    for i in range(_MAX_PRIMES):
        p, g = _prime(m, i)
        out = _modular_rref(E, m, p, g)
        if out is None:
            continue
        pivots, coeffs = out
        if best is None or pivots + [width] < best + [width]:
            best, images = pivots, []
        elif pivots != best:
            continue
        images.append((p, coeffs))
        kernel = _reconstruct(best, images, width, field)
        if kernel is not None and not _not_killed(E, kernel.polys, field).any():
            return kernel
    raise VerificationFailed(f"no kernel lift of {len(E)} rows from {_MAX_PRIMES} primes")


@lru_cache(maxsize=None)
def _residues(field):
    """(rows, bound): row t holds the coefficients of x^t modulo Phi_m as
    Python ints, for t < m, and bound is their largest absolute value.
    Built once per field; the rows are tuples, so no caller can change
    them."""
    rows = tuple(tuple(int(c) for c in field.root(t).coeffs) for t in range(field.modulus))
    return rows, max(abs(x) for row in rows for x in row)


@lru_cache(maxsize=None)
def _residue_array(field, dtype):
    """_residues(field)'s rows as a read-only array of dtype."""
    out = np.array(_residues(field)[0], dtype=dtype)
    out.flags.writeable = False
    return out


def _dtype(width, polys, field):
    """int64 when every sum and product of a kill check or witness value
    on polys stays below 2**63, else object (Python ints)."""
    big = int(np.abs(polys).max()) if polys.size else 0
    return np.int64 if field.modulus * width * big * _residues(field)[1] < 2**63 else object


def _not_killed(E, polys, field):
    """Mask over the rows r of E (exponent form) and the vectors v of a
    kernel's polys array: whether sum_j zeta_m^E[r, j] v_j != 0 in the
    field Q(zeta_m), decided exactly.

    Coordinate j of vector v is the integer polynomial polys[v, j](x), up
    to one positive scale per vector, which does not change the mask.  Row
    r sums the rotations x^E[r, j] v_j(x) in Z[x]/(x^m - 1), as one
    product of its one-hot (column, exponent) indicator with every
    vector's rotations, which is then reduced modulo Phi_m by the field's
    table of residues.  int64 is used only when the bound on every sum and
    product is below 2**63, else Python ints.
    """
    rows, width = E.shape
    if not len(polys) or not rows:
        return np.zeros((rows, len(polys)), dtype=bool)
    m = field.modulus
    dtype = _dtype(width, polys, field)
    at, col = np.nonzero(E >= 0)
    onehot = np.zeros((rows, width * m), dtype=dtype)
    onehot[at, col * m + E[at, col]] = 1
    # rotations[j, e, v, t]: coefficient t of x^e v_j(x) modulo x^m - 1
    shift = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m
    rotations = polys.astype(dtype)[:, :, shift].transpose(1, 2, 0, 3).reshape(width * m, -1)
    total = (onehot @ rotations).reshape(rows, len(polys), m)
    return (total @ _residue_array(field, dtype) != 0).any(axis=2)


def _witness_values(grid, separated, algebra):
    """The value in algebra (over the grid's field) of each separating
    vector at its witness substitution, for separated = [(degs, kernel,
    index, subst, ...)], one GradedElement each: sum_w c_w zeta^e_w at each
    landing position, from the grid's products.  A zero value raises
    VerificationFailed."""
    if not separated:
        return []
    field = algebra.field
    m, phi = field.modulus, field.degree
    substs = np.array([entry[3] for entry in separated])
    polys = np.array([kernel.polys[v] for _, kernel, v, *_ in separated])
    pos, exp = _products(grid, substs)
    count, width = pos.shape
    dim = len(grid.keys)
    dtype = _dtype(width, polys, field)
    shift = (np.arange(m)[None, None, :] - exp[:, :, None]) % m
    rotated = polys.astype(dtype)[np.arange(count)[:, None, None], np.arange(width)[None, :, None],
                                  shift]
    slot = np.where(pos >= 0, np.arange(count)[:, None] * dim + pos, count * dim)
    total = np.zeros((count * dim + 1, m), dtype=dtype)
    np.add.at(total, slot.ravel(), rotated.reshape(-1, m))
    value = (total[:-1] @ _residue_array(field, dtype)).reshape(count, dim, phi)
    dens = [kernel.dens[v] for _, kernel, v, *_ in separated]
    terms = [{} for _ in separated]
    for s, p in zip(*np.nonzero(value.any(axis=2))):
        terms[s][grid.keys[p]] = _scalar(field, value[s, p].tolist(), dens[s])
    for (degs, *_), found in zip(separated, terms):
        if not found:
            raise VerificationFailed(f"separating witness evaluates to zero at {degs}")
    return [GradedElement(algebra, found) for found in terms]


def _row_sets(grid, degs, field, kernels):
    """Per step of _assignment_rows over the assignments degs: the step,
    and the kernel of each assignment it finishes.

    A kernel depends only on the set of rows (and, for the empty set, on
    the width), so kernels maps a width to a dict from the sorted rows as
    bytes to the kernel, and each set is lifted once per dict."""
    width = factorial(degs.shape[1])
    table = kernels.setdefault(width, {})
    for step in _assignment_rows(grid, degs, field.modulus):
        ordered, _, _, bounds = step
        blob = ordered.tobytes()
        size = width * ordered.itemsize
        found = []
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            key = blob[lo * size:hi * size]
            kernel = table.get(key)
            if kernel is None:
                kernel = table[key] = _lift(ordered[lo:hi], width, field)
            found.append(kernel)
        yield step, found


def _check_cap(n, config):
    if n > config.degree_cap:
        raise DegreeCapExceeded(
            f"degree {n} exceeds the configured cap {config.degree_cap}")


def identity_space(algebra, assignment, config=None):
    """All multilinear identities of the algebra at one degree assignment.

    A degree whose component is zero makes every substitution for that
    variable zero, so the kernel is the full n!-dimensional space.  A degree
    that is not an element of the grading group is refused.
    """
    config = config or EngineConfig()
    _check_cap(assignment.n, config)
    for g in assignment.degs:
        if not 0 <= g < algebra.ambient.order:
            raise ValidationError(f"degree {g} is not an element of the grading group")
    field = algebra.field
    degs = np.array([assignment.degs], dtype=np.int64)
    (kernel,) = [k for _, found in _row_sets(_Grid(algebra), degs, field, {}) for k in found]
    perms = _perms(assignment.n)
    basis = tuple(_poly(assignment, perms, kernel.vector(v, field), field)
                  for v in range(kernel.dimension))
    return IdentitySpace(algebra=algebra, assignment=assignment, basis=basis)


def _poly(assignment, perms, vec, field):
    return GradedMultilinearPoly(assignment, {perms[j]: c for j, c in vec.items()}, field)


@dataclass(frozen=True)
class AssignmentVerdict:
    degs: tuple
    contained: bool
    dim_source: int
    dim_target: int
    separating: GradedMultilinearPoly = None
    witness_substitution: tuple = None
    witness_value: object = None


@dataclass(frozen=True)
class ContainmentReport:
    """Per-assignment comparison of identity spaces up to degree n_max."""

    n_max: int
    verdicts: tuple
    skipped: tuple

    @property
    def contained(self):
        """True when every assignment was decided and none separates; a
        report with skipped assignments is undecided, never contained."""
        return not self.skipped and all(v.contained for v in self.verdicts)


def _over_budget(supports, grids, n, budget):
    """(degs, over): every degree assignment of degree n over supports, in
    itertools.product order, as the rows of an array, and whether its
    estimated row count, n! times the larger of its substitution counts in
    the grids (at least 1), exceeds budget."""
    count = len(supports)
    at = np.indices((count,) * n).reshape(n, -1).T
    sizes = [grid.sizes[grid.row_of[supports]] for grid in grids]
    big = max(int(s.max()) for s in sizes) ** n * factorial(n) >= 2**62
    rows = [s.astype(object if big else np.int64)[at].prod(axis=1) for s in sizes]
    over = factorial(n) * np.maximum(np.maximum(*rows), 1) > budget
    return supports[at], over.astype(bool)


def multilinear_containment(A, B, n_max, config=None):
    """Compare multilinear identities: is every identity of A (first
    argument) an identity of B, degree by degree up to n_max?

    Assignments run over the union of the two supports.  An assignment
    whose estimated row count exceeds the work budget is skipped and
    listed, and a report with skipped assignments is not contained.  The
    identities of A lie among those of B exactly when A's kernel kills
    every evaluation row of B.  A non-contained assignment records the
    first basis polynomial of A's space that some row of B does not kill,
    together with the first basis substitution in B where it does not
    vanish.
    """
    config = config or EngineConfig()
    if n_max < 1:
        raise ValidationError("n_max must be at least 1")
    _check_cap(n_max, config)
    if not same_group(A.ambient, B.ambient):
        raise AmbientMismatch("algebras are graded by different groups")
    field = cyclo_field(lcm(A.field.modulus, B.field.modulus))
    B2 = B.with_field(field)
    grid_a, grid_b = _Grid(A.with_field(field)), _Grid(B2)
    supports = np.array(sorted(set(grid_a.comps) | set(grid_b.comps)), dtype=np.int64)
    # both algebras live over field, so they share one kernel per row set
    kernels = {}
    # (kernel of A, kernel of B) -> None when contained, else the index of
    # A's first separating kernel vector and the mask of B's sorted rows it
    # does not kill
    separators = {}
    verdicts = []
    skipped = []
    for n in range(1, n_max + 1):
        perms = _perms(n)
        assignments, over = _over_budget(supports, (grid_a, grid_b), n, config.work_budget)
        skipped.extend(map(tuple, assignments[over].tolist()))
        todo = assignments[~over]
        sources = [k for _, found in _row_sets(grid_a, todo, field, kernels) for k in found]
        pairs = zip(map(tuple, todo.tolist()), sources)
        for (ordered, substs, rank, bounds), found in _row_sets(grid_b, todo, field, kernels):
            separated = []
            for lo, hi, kb in zip(bounds[:-1].tolist(), bounds[1:].tolist(), found):
                degs, ka = next(pairs)
                sep = separators.get((ka, kb), False)
                if sep is False:
                    sep = separators[ka, kb] = _separator(ka, ordered[lo:hi], field)
                if sep is None:
                    verdicts.append(AssignmentVerdict(
                        degs=degs, contained=True,
                        dim_source=ka.dimension, dim_target=kb.dimension))
                    continue
                index, missed = sep
                row = lo + int(missed[rank[lo:hi]].argmax())
                separated.append((degs, ka, index, substs[row], kb.dimension, len(verdicts)))
                verdicts.append(None)
            values = _witness_values(grid_b, separated, B2)
            for (degs, ka, index, subst, dim_target, at), value in zip(separated, values):
                verdicts[at] = AssignmentVerdict(
                    degs=degs, contained=False,
                    dim_source=ka.dimension, dim_target=dim_target,
                    separating=_poly(DegreeAssignment(degs), perms, ka.vector(index, field), field),
                    witness_substitution=tuple(grid_b.keys[pos] for pos in subst.tolist()),
                    witness_value=value)
    return ContainmentReport(n_max=n_max, verdicts=tuple(verdicts),
                             skipped=tuple(skipped))


def _separator(kernel, rows, field):
    """None when the kernel of A kills every one of the rows of B, else
    (i, missed): the index of the first vector of A's kernel that some row
    does not kill, and the mask of the rows it does not kill.

    One kill mask decides the pair of row sets and gives the witness row of
    every assignment with it, with no further exact check."""
    mask = _not_killed(rows, kernel.polys, field)
    hit = np.flatnonzero(mask.any(axis=0))
    if not hit.size:
        return None
    return int(hit[0]), mask[:, hit[0]]
