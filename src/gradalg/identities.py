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
repeated rows, keeping the first substitution of each.  The rows that stay
independent modulo a prime p = 1 (mod M), with zeta_M sent to an element
of order M, are independent over Q(zeta_M) and form a minor of at most n!
rows, which fieldlin row-reduces exactly.  Every other row is then checked
exactly, in integer arithmetic modulo the M-th cyclotomic polynomial, to be
killed by the minor's kernel; a row that is not joins the minor.  This is
the split of Dixon, "Exact solution of linear equations using p-adic
expansions", Numer. Math. 40 (1982): the prime only picks the pivot rows,
so the spaces are exact for any prime.

A row space depends only on its set of distinct rows, and many degree
assignments share one, so a call reduces each (width, row set) once; a
containment shares these reductions between its two algebras, which live
over one field, and decides each pair of row sets once.  When a pair is not
contained, one exact check of B's rows against A's whole kernel picks the
separating kernel vector and the rows of B it does not kill, and every
assignment with that pair takes its witness row from those rows, so the
witnesses need no exact work per assignment.  Nothing is kept between
calls, except each field's table of x^t modulo Phi_m.

Containment compares row spaces: every identity of A is one of B exactly
when the rows of B lie in the row space of A.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, isqrt, lcm, prod
from typing import NamedTuple

import numpy as np

from . import fieldlin
from .config import EngineConfig
from .cyclo import cyclo_field
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
    basis_keys() order; table holds the same lists as padded rows, index
    the row of each degree, and sizes their lengths, with a last row of
    size 0 for a degree outside the support.  The two tables hold dim**2
    entries each, so a grid costs O(dim**2) memory.
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
        self.index = {g: i for i, g in enumerate(self.comps)}
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


def _evaluation_rows(grid, subst, m):
    """Rows of the evaluation matrix in exponent form for the substitutions
    subst (one row of basis positions each), and the substitution of each
    row.

    The products e_w(1) ... e_w(n) for every substitution and permutation w
    are gathered from the grid prefix by prefix.  A nonzero product lands on
    one basis position; the row of (substitution, landing position) holds
    zeta_m^e as e at the columns that land there and -1 elsewhere, scaled
    to start with zeta^0.  Rows come by substitution, then by first column.
    """
    pos, exp = subst, np.zeros_like(subst)
    for parent, var in _prefix_steps(subst.shape[1]):
        left, right = pos[:, parent], subst[:, var]
        pos, exp = grid.prod[left, right], exp[:, parent] + grid.exp[left, right]
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
    """(rows, substs, sorted rows, bounds): the distinct rows of E for each
    of the count owners, in order of first occurrence and each with the
    substitution of that occurrence, and sorted.  Owner i's rows are
    [bounds[i], bounds[i + 1]) of each; owners do not decrease down E."""
    # a stable sort by owner, then row, keeps first occurrences first
    order = np.lexsort((*E.T[::-1], owner))
    rows, owners = E[order], owner[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (owners[1:] != owners[:-1]) | (rows[1:] != rows[:-1]).any(axis=1)
    srt = order[new]
    occ = np.sort(srt)
    bounds = np.searchsorted(owner[occ], np.arange(count + 1))
    return E[occ], subst[occ], E[srt], bounds


def _assignment_rows(grid, assignments, n, m):
    """For each degree assignment of degree n, in order: the distinct rows
    of its evaluation matrix in exponent form, in order of first occurrence,
    the first basis substitution (as basis positions) that gives each, and
    the key (width, sorted rows as bytes) of the row set.

    The substitutions of all assignments, each in itertools.product order
    over its components, are laid end to end and built in steps of about
    _CHUNK_ENTRIES entries, so memory does not grow with the assignments.
    The distinct rows of an assignment that a step cuts are carried to the
    head of the next step, which keeps first occurrences.
    """
    width = factorial(n)
    comp = np.array([[grid.index.get(g, -1) for g in degs] for degs in assignments],
                    dtype=np.int64).reshape(len(assignments), n)
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
        rows, substs, ordered, bounds = _distinct_rows(
            np.concatenate([rows[carried:], E]),
            np.concatenate([substs[carried:], subst[of]]),
            np.concatenate([np.zeros(len(rows) - carried, dtype=np.int64), owner[of] - done]),
            run_on - done + 1)
        for i in range(run_on - done):
            seg = slice(bounds[i], bounds[i + 1])
            yield rows[seg], substs[seg], (width, ordered[seg].tobytes())
        carried, done = bounds[-2], run_on
    for _ in range(done, len(assignments)):
        yield rows[:0], substs[:0], (width, b"")


def _is_prime(p):
    return p > 1 and all(p % q for q in range(2, isqrt(p) + 1))


@lru_cache(maxsize=None)
def _prime_for(m):
    """(p, g): the largest prime p < 2**31 with p = 1 (mod m), and an
    element g of order m modulo p, so that zeta_m -> g is a ring map."""
    p = (2**31 - 2) // m * m + 1
    while not _is_prime(p):
        p -= m
    primes = [q for q in range(2, m + 1) if m % q == 0 and _is_prime(q)]
    h = 2
    while True:
        g = pow(h, (p - 1) // m, p)
        if all(pow(g, m // q, p) != 1 for q in primes):
            return p, g
        h += 1


def _pivot_rows(E, m):
    """Indices of the rows of E (exponent form) that are independent modulo
    the prime for m, taken greedily in order: at most width of them.

    Rows independent modulo p are independent over Q(zeta_m).  The search
    row-reduces the transpose, whose pivot columns are those rows; p < 2**31
    keeps every product of two residues below 2**62, inside int64.
    """
    p, g = _prime_for(m)
    # a zero entry, stored as -1, picks the trailing 0
    powers = np.array([pow(g, e, p) for e in range(m)] + [0], dtype=np.int64)
    A = powers[E].T.copy()
    width = A.shape[0]
    picked = []
    r = c = 0
    while r < width:
        hit = np.flatnonzero(A[r:, c:].any(axis=0))
        if not hit.size:
            break
        c += int(hit[0])
        s = r + int(np.flatnonzero(A[r:, c])[0])
        A[[r, s]] = A[[s, r]]
        A[r, c:] = A[r, c:] * pow(int(A[r, c]), p - 2, p) % p
        A[r + 1:, c:] = (A[r + 1:, c:] - A[r + 1:, c, None] * A[r, c:]) % p
        picked.append(c)
        r += 1
        c += 1
    return picked


@lru_cache(maxsize=None)
def _residues(field):
    """(rows, bound): row t holds the coefficients of x^t modulo Phi_m as
    Python ints, for t < m, and bound is their largest absolute value.
    Built once per field; the rows are tuples, so no caller can change
    them."""
    rows = tuple(tuple(int(c) for c in field.root(t).coeffs) for t in range(field.modulus))
    return rows, max(abs(x) for row in rows for x in row)


def _not_killed(E, vectors, field):
    """Mask over the rows r of E (exponent form) and the vectors v: whether
    sum_j zeta_m^E[r, j] v_j != 0 in the field Q(zeta_m), decided exactly.

    Each v is scaled to integer polynomials v_j(x) of degree < phi(m); row r
    sums the rotations x^E[r, j] v_j(x) in Z[x]/(x^m - 1), which is then
    reduced modulo Phi_m by the field's table of residues.  int64 is used
    only when the bound on every sum and product is below 2**63, else
    Python ints.  _reduce asks whether any kernel vector misses a row;
    _separator scans a pair of row sets once, and its mask for the
    separating vector gives the witness rows of every assignment with that
    pair.
    """
    rows, width = E.shape
    if not vectors or not rows:
        return np.zeros((rows, len(vectors)), dtype=bool)
    m = field.modulus
    residues, small = _residues(field)
    polys = []
    for v in vectors:
        coeffs = [c.coeffs if not c.is_zero() else () for c in v]
        den = lcm(*(q.denominator for cs in coeffs for q in cs))
        polys.append([[q.numerator * (den // q.denominator) for q in cs] + [0] * (m - len(cs))
                      for cs in coeffs])
    big = max(abs(x) for P in polys for vj in P for x in vj)
    dtype = np.int64 if m * width * big * small < 2**63 else object
    K = np.array(polys, dtype=dtype)
    total = np.zeros((rows, len(vectors), m), dtype=dtype)
    for j in range(width):
        live = np.flatnonzero(E[:, j] >= 0)
        # coefficient t of x^e v_j(x) modulo x^m - 1 is coefficient t - e of v_j
        shift = (np.arange(m)[None, :] - E[live, j, None]) % m
        total[live] += K[:, j][:, shift].transpose(1, 0, 2)
    reduced = total @ np.array(residues, dtype=dtype)
    return (reduced != 0).any(axis=2)


class _RowSpace(NamedTuple):
    """The row space of an evaluation matrix: its key (width, sorted
    distinct rows as bytes), rref and canonical kernel basis, and the
    distinct rows in exponent form with, per row, the first basis
    substitution (as basis positions) that gives it."""

    key: tuple
    reduced: list
    pivots: list
    kernel: list
    rows: np.ndarray
    substs: np.ndarray


def _row_spaces(grid, assignments, n, field, reductions):
    """Exact row spaces of the evaluation matrices at degree assignments of
    degree n, one per assignment, in order.

    A row space depends only on its set of rows (and, for the empty set,
    on the width), so reductions maps that key to (reduced, pivots,
    kernel) and each set is reduced once per dict.  The rows and
    substitutions stay per assignment.
    """
    for E, substs, key in _assignment_rows(grid, assignments, n, field.modulus):
        if key not in reductions:
            reductions[key] = _reduce(E, field)
        yield _RowSpace(key, *reductions[key], E, substs)


def _reduce(E, field):
    """(reduced, pivots, kernel) of the rows E (exponent form), exactly.

    The rows picked modulo a prime form the minor that fieldlin reduces;
    every row left out is then checked to be killed by the minor's kernel,
    and the first that is not joins the minor.  So the result is exact for
    any prime, and canonical: it does not depend on the order of the rows.
    """
    width = E.shape[1]
    minor = _pivot_rows(E, field.modulus)
    zero = field.zero()
    while True:
        reduced, pivots = fieldlin.rref(
            [[field.root(e) if e >= 0 else zero for e in E[i].tolist()] for i in minor],
            field)
        kernel = fieldlin.kernel_basis(reduced, pivots, width, field)
        out = np.ones(len(E), dtype=bool)
        out[minor] = False
        out = np.flatnonzero(out)
        missed = out[_not_killed(E[out], kernel, field).any(axis=1)]
        if not missed.size:
            return reduced, pivots, kernel
        minor.append(int(missed[0]))


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
    (space,) = _row_spaces(_Grid(algebra), [assignment.degs], assignment.n,
                           algebra.field, {})
    kernel = space.kernel
    perms = _perms(assignment.n)
    basis = tuple(_poly(assignment, perms, v, algebra.field) for v in kernel)
    return IdentitySpace(algebra=algebra, assignment=assignment, basis=basis)


def _poly(assignment, perms, vec, field):
    return GradedMultilinearPoly(
        assignment,
        {perms[i]: c for i, c in enumerate(vec) if not c.is_zero()},
        field)


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

    def verdict_for(self, degs):
        degs = tuple(int(g) for g in degs)
        for v in self.verdicts:
            if v.degs == degs:
                return v
        return None


def multilinear_containment(A, B, n_max, config=None):
    """Compare multilinear identities: is every identity of A (first
    argument) an identity of B, degree by degree up to n_max?

    Assignments run over the union of the two supports.  An assignment
    whose estimated row count exceeds the work budget is skipped and
    listed, and a report with skipped assignments is not contained.  The
    identities of A lie among those of B exactly when the
    evaluation rows of B lie in the row space of A's.  A non-contained
    assignment records the first basis polynomial of A's space that some
    row of B does not kill, together with the first basis substitution in
    B where it does not vanish.
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
    dims_a = {g: len(pos) for g, pos in grid_a.comps.items()}
    dims_b = {g: len(pos) for g, pos in grid_b.comps.items()}
    supports = sorted(set(dims_a) | set(dims_b))
    # both algebras live over field, so they share one reduction per row set
    reductions = {}
    # (key of A, key of B) -> None when contained, else the index of A's
    # first separating kernel vector and the rows of B (as bytes) it does
    # not kill
    separators = {}
    verdicts = []
    skipped = []
    for n in range(1, n_max + 1):
        perms = _perms(n)
        todo = []
        for degs in itertools.product(supports, repeat=n):
            ra = prod(dims_a.get(g, 0) for g in degs)
            rb = prod(dims_b.get(g, 0) for g in degs)
            if factorial(n) * max(ra, rb, 1) > config.work_budget:
                skipped.append(degs)
            else:
                todo.append(degs)
        for degs, a, b in zip(todo, _row_spaces(grid_a, todo, n, field, reductions),
                              _row_spaces(grid_b, todo, n, field, reductions)):
            dim_source = len(perms) - len(a.reduced)
            dim_target = len(perms) - len(b.reduced)
            if (a.key, b.key) not in separators:
                separators[a.key, b.key] = _separator(a, b, field, degs)
            sep = separators[a.key, b.key]
            if sep is None:
                verdicts.append(AssignmentVerdict(
                    degs=tuple(degs), contained=True,
                    dim_source=dim_source, dim_target=dim_target))
                continue
            index, missed = sep
            row = next(i for i, r in enumerate(b.rows) if r.tobytes() in missed)
            separating = _poly(DegreeAssignment(degs), perms, a.kernel[index], field)
            subst = tuple(grid_b.keys[pos] for pos in b.substs[row].tolist())
            value = evaluate(separating, B2, tuple(B2.basis_element(k) for k in subst))
            if value.is_zero():
                raise VerificationFailed(
                    f"separating witness evaluates to zero at {tuple(degs)}")
            verdicts.append(AssignmentVerdict(
                degs=tuple(degs), contained=False,
                dim_source=dim_source, dim_target=dim_target,
                separating=separating,
                witness_substitution=subst,
                witness_value=value))
    return ContainmentReport(n_max=n_max, verdicts=tuple(verdicts),
                             skipped=tuple(skipped))


def _separator(a, b, field, degs):
    """None when the rows of B lie in the row space of A, else (i, missed):
    the index of the first vector of A's kernel basis that some row of B
    does not kill, and the rows of B (as bytes) that it does not kill.

    The rows of B are scanned against the whole kernel once, so a
    containment finds the witness row of every assignment with this pair
    of row sets in missed, with no further exact check."""
    if all(fieldlin.in_span(a.reduced, a.pivots, row) for row in b.reduced):
        return None
    mask = _not_killed(b.rows, a.kernel, field)
    hit = np.flatnonzero(mask.any(axis=0))
    if not hit.size:
        raise VerificationFailed(
            f"no identity of the source separates at {tuple(degs)}")
    i = int(hit[0])
    return i, frozenset(row.tobytes() for row in b.rows[mask[:, i]])
