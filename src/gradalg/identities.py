"""Degree-bounded multilinear graded polynomial identities.

A multilinear graded polynomial of degree n over a degree assignment
(g_1, ..., g_n) is a combination sum_w c_w x_{w(1)} ... x_{w(n)} over
permutations w, where the variable x_i only takes homogeneous values of
degree g_i.  Identity spaces are computed exactly as kernels over the
coefficient field, with substitutions running over component bases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial, lcm, prod

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


def _evaluation_rows(algebra, perms, degs):
    """One row per (substitution, landing basis key): evaluation coefficients
    of the n! monomials."""
    field = algebra.field
    comps = [algebra.component_basis(g) for g in degs]
    rows = []
    for subst in itertools.product(*comps):
        landed = {}
        for col, perm in enumerate(perms):
            term = subst[perm[0] - 1]
            for idx in perm[1:]:
                term = term * subst[idx - 1]
            for key, c in term.terms.items():
                row = landed.setdefault(key, [field.zero()] * len(perms))
                row[col] = row[col] + c
        rows.extend(landed[key] for key in sorted(landed))
    return rows


def _check_cap(n, config):
    if n > config.degree_cap:
        raise DegreeCapExceeded(
            f"degree {n} exceeds the configured cap {config.degree_cap}")


def identity_space(algebra, assignment, config=None):
    """All multilinear identities of the algebra at one degree assignment.

    A degree whose component is zero makes every substitution for that
    variable zero, so the kernel is the full n!-dimensional space.
    """
    config = config or EngineConfig()
    _check_cap(assignment.n, config)
    perms = _perms(assignment.n)
    rows = _evaluation_rows(algebra, perms, assignment.degs)
    kernel = fieldlin.kernel_basis(rows, len(perms), algebra.field)
    basis = tuple(
        GradedMultilinearPoly(
            assignment,
            {perms[i]: v[i] for i in range(len(perms)) if not v[i].is_zero()},
            algebra.field)
        for v in kernel)
    return IdentitySpace(algebra=algebra, assignment=assignment, basis=basis)


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
        return all(v.contained for v in self.verdicts)

    def verdict_for(self, degs):
        degs = tuple(int(g) for g in degs)
        for v in self.verdicts:
            if v.degs == degs:
                return v
        return None


def _poly_vector(poly, perms, field):
    zero = field.zero()
    return [poly.coeffs.get(p, zero) for p in perms]


def _separating_witness(poly, algebra):
    """A basis substitution in the second algebra where the polynomial does
    not vanish; exists whenever the polynomial is not one of its identities."""
    comps = [algebra.component_basis(g) for g in poly.assignment.degs]
    for subst in itertools.product(*comps):
        value = evaluate(poly, algebra, subst)
        if not value.is_zero():
            keys = tuple(elt.support_keys()[0] for elt in subst)
            return keys, value
    return None, None


def multilinear_containment(A, B, n_max, config=None):
    """Compare multilinear identities: is every identity of A (first
    argument) an identity of B, degree by degree up to n_max?

    Assignments run over the union of the two supports.  An assignment
    whose estimated row count exceeds the work budget is skipped and
    listed; a non-contained assignment records the first separating basis
    polynomial of A's space together with a substitution in B where it
    does not vanish.
    """
    config = config or EngineConfig()
    if n_max < 1:
        raise ValidationError("n_max must be at least 1")
    _check_cap(n_max, config)
    if not same_group(A.ambient, B.ambient):
        raise AmbientMismatch("algebras are graded by different groups")
    field = cyclo_field(lcm(A.field.modulus, B.field.modulus))
    A2 = A.with_field(field)
    B2 = B.with_field(field)
    dims_a = {g: len(A2.component_basis(g)) for g in A2.support()}
    dims_b = {g: len(B2.component_basis(g)) for g in B2.support()}
    supports = sorted(set(dims_a) | set(dims_b))
    verdicts = []
    skipped = []
    for n in range(1, n_max + 1):
        perms = _perms(n)
        for degs in itertools.product(supports, repeat=n):
            ra = prod(dims_a.get(g, 0) for g in degs)
            rb = prod(dims_b.get(g, 0) for g in degs)
            if factorial(n) * max(ra, rb, 1) > config.work_budget:
                skipped.append(tuple(degs))
                continue
            assignment = DegreeAssignment(degs)
            space_a = identity_space(A2, assignment, config)
            space_b = identity_space(B2, assignment, config)
            b_rows = [_poly_vector(p, perms, field) for p in space_b.basis]
            reduced, pivots = fieldlin.rref(b_rows, field)
            separating = None
            for poly in space_a.basis:
                vec = _poly_vector(poly, perms, field)
                if not fieldlin.in_span(reduced, pivots, vec):
                    separating = poly
                    break
            if separating is None:
                verdicts.append(AssignmentVerdict(
                    degs=tuple(degs), contained=True,
                    dim_source=space_a.dimension, dim_target=space_b.dimension))
            else:
                keys, value = _separating_witness(separating, B2)
                verdicts.append(AssignmentVerdict(
                    degs=tuple(degs), contained=False,
                    dim_source=space_a.dimension, dim_target=space_b.dimension,
                    separating=separating,
                    witness_substitution=keys, witness_value=value))
    return ContainmentReport(n_max=n_max, verdicts=tuple(verdicts),
                             skipped=tuple(skipped))
