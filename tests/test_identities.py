"""Multilinear graded identities: spaces, evaluation, and containment."""
import hashlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import factorial, lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradalg import fieldlin, identities, jsonio
from gradalg.catalog import catalog_group, klein_sign_cocycle
from gradalg.cocycles import ExpCocycle, ExpFunction, coboundary_from, trivial_cocycle
from gradalg.config import EngineConfig
from gradalg.cyclo import cyclo_field
from gradalg.errors import (
    AlgebraMismatch,
    DegreeCapExceeded,
    DegreeMismatch,
    FieldMismatch,
    LengthMismatch,
    ValidationError,
)
from gradalg.groups import Subgroup
from gradalg.identities import (
    AssignmentVerdict,
    ContainmentReport,
    DegreeAssignment,
    GradedMultilinearPoly,
    evaluate,
    identity_space,
    multilinear_containment,
)
from gradalg.matalg import GradedMatrixAlgebra
from gradalg.twisted import TwistedGroupAlgebra

from conftest import lift


@pytest.fixture(scope="module")
def plain(klein):
    return TwistedGroupAlgebra(klein.full_subgroup())


@pytest.fixture(scope="module")
def signed(klein, sign_cocycle):
    return TwistedGroupAlgebra(klein.full_subgroup(), sign_cocycle)


def commutator(field, sign=-1):
    return GradedMultilinearPoly(
        DegreeAssignment((1, 2)),
        {(1, 2): field.one(), (2, 1): field.from_fraction(sign)},
        field,
    )


def test_assignment_validation():
    with pytest.raises(ValidationError):
        DegreeAssignment(())
    assert DegreeAssignment((1, 2)).n == 2


def test_poly_validation():
    F = cyclo_field(2)
    with pytest.raises(ValidationError):
        GradedMultilinearPoly(DegreeAssignment((1, 2)), {(1, 1): F.one()}, F)
    p = GradedMultilinearPoly(DegreeAssignment((1, 2)), {(1, 2): F.zero()}, F)
    assert p.is_zero()


def test_commutator_is_plain_identity(plain):
    p = commutator(plain.field)
    out = evaluate(p, plain, (plain.eta(1), plain.eta(2)))
    assert out.is_zero()


def test_anticommutator_holds_in_twisted_algebra(signed):
    p = commutator(signed.field, sign=1)
    assert evaluate(p, signed, (signed.eta(1), signed.eta(2))).is_zero()
    # while the commutator does not vanish there
    q = commutator(signed.field)
    val = evaluate(q, signed, (signed.eta(1), signed.eta(2)))
    assert val.terms == {3: signed.field.from_fraction(2)}


def test_evaluate_validation(plain, signed):
    p = commutator(plain.field)
    with pytest.raises(LengthMismatch):
        evaluate(p, plain, (plain.eta(1),))
    with pytest.raises(AlgebraMismatch):
        evaluate(p, plain, (plain.eta(1), signed.eta(2)))
    with pytest.raises(DegreeMismatch):
        evaluate(p, plain, (plain.eta(2), plain.eta(2)))
    with pytest.raises(DegreeMismatch):
        evaluate(p, plain, (plain.eta(1) + plain.eta(2), plain.eta(2)))
    wide = GradedMultilinearPoly(
        DegreeAssignment((1, 2)),
        {(1, 2): cyclo_field(8).root()},
        cyclo_field(8),
    )
    with pytest.raises(FieldMismatch):
        evaluate(wide, plain, (plain.eta(1), plain.eta(2)))
    # zero substitutions are fine regardless of degree bookkeeping
    assert evaluate(p, plain, (plain.zero(), plain.eta(2))).is_zero()


def test_identity_space_dimensions(plain, signed):
    two = DegreeAssignment((1, 2))
    sp = identity_space(plain, two)
    sq = identity_space(signed, two)
    assert sp.dimension == 1
    assert sq.dimension == 1
    (p,), (q,) = sp.basis, sq.basis
    assert p.coeffs[(1, 2)] == -p.coeffs[(2, 1)]
    assert q.coeffs[(1, 2)] == q.coeffs[(2, 1)]


def test_identity_space_outside_support(c4):
    B = TwistedGroupAlgebra(Subgroup(c4, (0, 2)))
    sp = identity_space(B, DegreeAssignment((1,)))
    # empty component: everything is an identity
    assert sp.dimension == 1
    assert identity_space(B, DegreeAssignment((2,))).dimension == 0


@pytest.mark.parametrize("degs, bad", [((1, 99), 99), ((-1, 2), -1), ((4,), 4)])
def test_identity_space_refuses_degrees_outside_the_group(signed, degs, bad):
    with pytest.raises(ValidationError, match=f"degree {bad} is not"):
        identity_space(signed, DegreeAssignment(degs))


def test_identity_space_degree_cap(plain):
    with pytest.raises(DegreeCapExceeded):
        identity_space(plain, DegreeAssignment((0,) * 5))
    cfg = EngineConfig(degree_cap=2)
    with pytest.raises(DegreeCapExceeded):
        identity_space(plain, DegreeAssignment((0, 0, 0)), cfg)


def _verdict(rep, degs):
    """The verdict of rep at the assignment degs, or None if it has none."""
    return next((v for v in rep.verdicts if v.degs == tuple(degs)), None)


def test_containment_same_algebra(plain):
    rep = multilinear_containment(plain, plain, 2)
    assert rep.contained
    assert not rep.skipped
    assert rep.n_max == 2


def test_containment_separates_plain_from_twisted(plain, signed):
    rep = multilinear_containment(plain, signed, 2)
    assert not rep.contained
    v = _verdict(rep, (1, 2))
    assert v is not None and not v.contained
    sep = v.separating
    assert sep.coeffs[(1, 2)] == -sep.coeffs[(2, 1)]
    assert v.witness_substitution is not None
    assert not v.witness_value.is_zero()
    # the witness substitution really is a certificate (the separating poly
    # lives over the harmonized field, so lift the target algebra to match)
    wide = signed.with_field(sep.field)
    subst = tuple(wide.eta(k) for k in v.witness_substitution)
    assert evaluate(sep, wide, subst) == v.witness_value


def test_containment_separates_twisted_from_plain(plain, signed):
    rep = multilinear_containment(signed, plain, 2)
    assert not rep.contained
    v = _verdict(rep, (2, 1))
    sep = v.separating
    assert sep.coeffs[(1, 2)] == sep.coeffs[(2, 1)]


def test_containment_across_subalgebra(klein, plain):
    line = TwistedGroupAlgebra(Subgroup(klein, (0, 1)))
    # the big algebra satisfies fewer constraints per degree, never more
    rep = multilinear_containment(plain, line, 2)
    assert rep.contained


def test_containment_budget_skips(plain):
    cfg = EngineConfig(work_budget=1)
    rep = multilinear_containment(plain, plain, 3, cfg)
    # nothing decided was violated, but skipped work leaves the report undecided
    assert all(v.contained for v in rep.verdicts)
    assert not rep.contained
    assert {len(v.degs) for v in rep.verdicts} == {1}
    assert len(rep.skipped) == 16 + 64
    assert _verdict(rep, (1, 2)) is None


def test_containment_validation(plain, c4):
    with pytest.raises(ValidationError):
        multilinear_containment(plain, plain, 0)
    from gradalg.errors import AmbientMismatch

    with pytest.raises(AmbientMismatch):
        multilinear_containment(plain, TwistedGroupAlgebra(c4.full_subgroup()), 1)


# SHA-256 of json.dumps(containment_to_json(rep), sort_keys=True) for the
# degree-4 containment of M_2(F^sign[V4]) in M_2(F[V4]), theta = (0, 1): the
# report must not move when the evaluation or the kill check changes
DEGREE_4_SHA256 = "6801a2dce220f60085e988927b72bfc80cad4948042bc791e6b96c5e1e1ae326"


def test_degree_4_containment_report_is_pinned(plain, signed):
    rep = multilinear_containment(GradedMatrixAlgebra(signed, (0, 1)),
                                  GradedMatrixAlgebra(plain, (0, 1)), 4,
                                  EngineConfig(work_budget=10**7))
    text = json.dumps(jsonio.containment_to_json(rep), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DEGREE_4_SHA256


def test_matrix_algebra_identity_space(c4):
    # 2x2 over the trivially supported algebra: degree (0,0) carries the
    # diagonal; no multilinear identity in two variables survives there
    B = TwistedGroupAlgebra(c4.trivial_subgroup())
    A = GradedMatrixAlgebra(B, (0, 1))
    # degree 0 is the diagonal, which is commutative
    sp = identity_space(A, DegreeAssignment((0, 0)))
    assert sp.dimension == 1
    # the degree-1 component is spanned by a square-zero matrix unit
    sq = identity_space(A, DegreeAssignment((1, 1)))
    assert sq.dimension == 2


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_space_members_vanish_on_random_substitutions(data, klein, sign_cocycle):
    sigma = data.draw(st.sampled_from([None, sign_cocycle]))
    algebra = TwistedGroupAlgebra(klein.full_subgroup(), sigma)
    n = data.draw(st.integers(1, 3))
    degs = tuple(data.draw(st.lists(
        st.integers(0, 3), min_size=n, max_size=n)))
    space = identity_space(algebra, DegreeAssignment(degs))
    if not space.basis:
        return
    poly = data.draw(st.sampled_from(list(space.basis)))
    F = algebra.field
    subst = []
    for g in degs:
        q = Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3)))
        subst.append(algebra.eta(g).scaled(F.from_fraction(q)))
    assert evaluate(poly, algebra, tuple(subst)).is_zero()


# -- reference: the whole evaluation matrix --------------------------------------

def component_basis(algebra, g):
    """Basis of the degree-g component, in basis-key order."""
    return tuple(algebra.basis_element(key) for key in algebra.basis_keys()
                 if algebra.degree_of_key(key) == g)


def _full_kernel(algebra, degs):
    """Canonical kernel of the undeduplicated evaluation matrix, one row per
    (basis substitution, landing key), built from GradedElement products."""
    perms = sorted(itertools.permutations(range(1, len(degs) + 1)))
    F = algebra.field
    rows = []
    for subst in itertools.product(*(component_basis(algebra, g) for g in degs)):
        landed = {}
        for col, perm in enumerate(perms):
            term = subst[perm[0] - 1]
            for idx in perm[1:]:
                term = term * subst[idx - 1]
            for key, c in term.terms.items():
                landed.setdefault(key, [F.zero()] * len(perms))[col] = c
        rows.extend(landed.values())
    return perms, fieldlin.kernel_basis(*fieldlin.rref(rows, F), len(perms), F)


def _vector(poly, perms):
    return [poly.coeffs.get(w, poly.field.zero()) for w in perms]


def _reference_verdict(A, B, degs):
    """The verdict at degs as the kernels of the whole matrices give it:
    the first basis identity of A that is not one of B, if any, with the
    first basis substitution in B where it does not vanish."""
    perms, ka = _full_kernel(A, degs)
    _, kb = _full_kernel(B, degs)
    # v lies in the span of kb exactly when adding it leaves the rank as is
    rank = len(fieldlin.rref(kb, B.field)[0])
    sep = next((v for v in ka if len(fieldlin.rref(kb + [v], B.field)[0]) > rank), None)
    if sep is None:
        return AssignmentVerdict(degs, True, len(ka), len(kb))
    poly = GradedMultilinearPoly(
        DegreeAssignment(degs),
        {w: c for w, c in zip(perms, sep) if not c.is_zero()}, B.field)
    for subst in itertools.product(*(component_basis(B, g) for g in degs)):
        value = evaluate(poly, B, subst)
        if not value.is_zero():
            keys = tuple(next(iter(elt.terms)) for elt in subst)
            return AssignmentVerdict(degs, False, len(ka), len(kb), poly, keys, value)
    raise AssertionError("separating polynomial vanishes on every substitution")


def _reference_report(A, B, rep):
    """rep rebuilt assignment by assignment from _reference_verdict, over
    the field that both algebras are widened to."""
    field = cyclo_field(lcm(A.field.modulus, B.field.modulus))
    A2, B2 = A.with_field(field), B.with_field(field)
    return ContainmentReport(
        n_max=rep.n_max,
        verdicts=tuple(_reference_verdict(A2, B2, v.degs) for v in rep.verdicts),
        skipped=rep.skipped)


def _products(grid_exp, grid_prod, subst):
    """e_w(1) ... e_w(n) for the basis positions subst and every permutation
    w, in lexicographic order, by a walk over permutation prefixes: (e, pos)
    for zeta_M^e times the basis element at pos, or None for zero."""
    out = []

    def walk(e, pos, rest):
        if not rest:
            out.append((e, pos))
            return
        row_exp, row_prod = grid_exp[pos], grid_prod[pos]
        for k, right in enumerate(rest):
            tail = rest[:k] + rest[k + 1:]
            hit = row_prod[right]
            if hit < 0:
                out.extend([None] * factorial(len(tail)))
            else:
                walk(e + row_exp[right], hit, tail)

    for k, first in enumerate(subst):
        walk(0, first, subst[:k] + subst[k + 1:])
    return out


def _exponent_rows(grid, degs, m):
    """Distinct rows of the evaluation matrix at degs in exponent form (-1
    for zero), each scaled to start with zeta^0 and mapped to the first
    basis substitution (as basis positions) that gives it, one substitution
    and one permutation at a time."""
    grid_exp, grid_prod = grid.exp.tolist(), grid.prod.tolist()
    width = factorial(len(degs))
    rows = {}
    for subst in itertools.product(*(grid.comps.get(g, ()) for g in degs)):
        landed = {}
        for col, hit in enumerate(_products(grid_exp, grid_prod, subst)):
            if hit is not None:
                landed.setdefault(hit[1], [-1] * width)[col] = hit[0]
        for row in landed.values():
            lead = next(e for e in row if e >= 0)
            rows.setdefault(
                tuple((e - lead) % m if e >= 0 else -1 for e in row), subst)
    return rows


GROUPS = ("C2xC2", "C4", "Q8", "S3")


def _draw_algebra(data, name, matrix):
    """A twisted group algebra on all of the group, twisted by a coboundary
    of a drawn modulus (and on V4 maybe by the sign class), or M_2 over one
    with a drawn degree tuple."""
    G = catalog_group(name)
    H = G.full_subgroup()
    m = data.draw(st.sampled_from((1, 2, 3, 4, 6)), label="modulus")
    vec = data.draw(st.lists(st.integers(0, m - 1), min_size=H.order,
                             max_size=H.order), label="f")
    mat = coboundary_from(ExpFunction(H, m, vec)).mat
    if name == "C2xC2" and m % 2 == 0 and data.draw(st.booleans(), label="sign"):
        mat = mat + lift(klein_sign_cocycle(H), m).mat
    base = TwistedGroupAlgebra(H, ExpCocycle(H, m, mat))
    if not matrix:
        return base
    theta = data.draw(st.tuples(st.integers(0, G.order - 1),
                                st.integers(0, G.order - 1)), label="theta")
    return GradedMatrixAlgebra(base, theta)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_space_matches_the_whole_evaluation_matrix(data):
    name = data.draw(st.sampled_from(GROUPS), label="group")
    algebra = _draw_algebra(data, name, data.draw(st.booleans(), label="M_2"))
    n = data.draw(st.integers(1, 3), label="n")
    order = algebra.ambient.order
    degs = tuple(data.draw(st.lists(st.integers(0, order - 1), min_size=n,
                                    max_size=n), label="degs"))
    space = identity_space(algebra, DegreeAssignment(degs))
    perms, kernel = _full_kernel(algebra, degs)
    assert [_vector(p, perms) for p in space.basis] == kernel


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_containment_matches_the_whole_evaluation_matrix(data):
    name = data.draw(st.sampled_from(GROUPS), label="group")
    A = _draw_algebra(data, name, data.draw(st.booleans(), label="A is M_2"))
    B = _draw_algebra(data, name, data.draw(st.booleans(), label="B is M_2"))
    twisted = not isinstance(A, GradedMatrixAlgebra) and not isinstance(B, GradedMatrixAlgebra)
    n_max = data.draw(st.integers(1, 3 if twisted else 2), label="n_max")
    rep = multilinear_containment(A, B, n_max)
    assert not rep.skipped
    assert rep == _reference_report(A, B, rep)


def test_containment_from_a_subalgebra_with_empty_row_sets(klein, plain):
    """F[<a>] inside V4 has no evaluation rows at an assignment that uses a
    degree outside <a>, at degrees 1, 2 and 3, while F[V4] has rows there:
    each degree's empty row set needs a kernel of its own width."""
    line = TwistedGroupAlgebra(Subgroup(klein, (0, 1)))
    rep = multilinear_containment(line, plain, 3)
    assert {len(v.degs) for v in rep.verdicts if not v.contained} == {1, 2, 3}
    assert rep == _reference_report(line, plain, rep)


@pytest.mark.parametrize("pair", ["Q8 coboundary", "V4 sign"])
def test_one_exact_reduction_per_row_set(monkeypatch, pair, klein, sign_cocycle, q8):
    """A containment lifts the kernel of each distinct (width, row set)
    once, for A and B together, and its report is still the one the whole
    matrices give, assignment by assignment."""
    if pair == "Q8 coboundary":
        H = q8.full_subgroup()
        A = TwistedGroupAlgebra(H)
        f = ExpFunction(H, 4, [0, 1, 2, 3, 1, 2, 3, 0])
        B = TwistedGroupAlgebra(H, ExpCocycle(H, 4, coboundary_from(f).mat))
    else:
        A = TwistedGroupAlgebra(klein.full_subgroup(), sign_cocycle)
        B = TwistedGroupAlgebra(klein.full_subgroup())
    field = cyclo_field(lcm(A.field.modulus, B.field.modulus))
    grids = [identities._Grid(X.with_field(field)) for X in (A, B)]
    supports = sorted(set(grids[0].comps) | set(grids[1].comps))
    keys = {(factorial(n), frozenset(_exponent_rows(grid, degs, field.modulus)))
            for n in (1, 2, 3) for degs in itertools.product(supports, repeat=n)
            for grid in grids}
    lifts = []
    real_lift = identities._lift
    monkeypatch.setattr(identities, "_lift", lambda *args: lifts.append(args) or real_lift(*args))
    rep = multilinear_containment(A, B, 3)
    monkeypatch.undo()
    lifted = {(width, frozenset(map(tuple, E.tolist()))) for E, width, _ in lifts}
    assert len(lifts) == len(lifted) < len(rep.verdicts) // 4
    assert lifted == keys
    reference = _reference_report(A, B, rep)
    assert jsonio.containment_to_json(rep) == jsonio.containment_to_json(reference)
    assert rep == reference


def _lift_outputs(klein, sign_cocycle):
    """Identity spaces at degrees 3 and 4 of M_2 over V4, plain and signed,
    and three containment reports to degree 3 among them and F^sign[V4]."""
    H = klein.full_subgroup()
    signed = TwistedGroupAlgebra(H, sign_cocycle)
    m2 = GradedMatrixAlgebra(TwistedGroupAlgebra(H, trivial_cocycle(H, 2)), (0, 1))
    m2_signed = GradedMatrixAlgebra(signed, (0, 1))
    assignments = [DegreeAssignment(d) for d in ((1, 1, 0), (0, 2, 1), (3, 3, 0, 1))]
    spaces = [identity_space(A, a).basis for A in (m2, m2_signed) for a in assignments]
    reports = [jsonio.containment_to_json(multilinear_containment(A, B, 3))
               for A, B in ((signed, m2), (m2, signed), (m2_signed, m2))]
    return spaces, reports


def test_exact_finish_repairs_a_starved_pivot_search(monkeypatch, klein, sign_cocycle):
    """Rows independent modulo p are independent over Q(zeta), but a prime
    can lose rank.  A first prime that keeps only the first row has that
    effect at its worst: its lift must fail the exact check, and a second
    prime, with earlier pivots, must replace it, leaving spaces and reports
    unchanged."""
    expected = _lift_outputs(klein, sign_cocycle)
    first = identities._prime(2, 0)[0]
    real = identities._modular_rref
    primes = []

    def starved(E, m, p, g):
        primes.append(p)
        return real(E[:1] if p == first else E, m, p, g)

    monkeypatch.setattr(identities, "_modular_rref", starved)
    assert _lift_outputs(klein, sign_cocycle) == expected
    assert primes.count(first) < len(primes)  # second primes were added


def _smallest_prime(m):
    """(p, g) for the smallest prime p = 1 (mod m) and an element g of
    order m modulo p."""
    p = m + 1
    while any(p % q == 0 for q in range(2, p)):
        p += m
    g = next(h for h in range(2, p) if all(
        pow(h, k * (p - 1) // m, p) != 1 for k in range(1, m)))
    return p, pow(g, (p - 1) // m, p)


def _dense(vec, width, field):
    return [vec.get(j, field.zero()) for j in range(width)]


@pytest.mark.parametrize("first", [3, 7], ids=["fails to verify", "fails to reconstruct"])
def test_a_failed_first_prime_adds_a_second(monkeypatch, first, klein, sign_cocycle, q8):
    """Over Q the kernel of the rows (1, 1, 0) and (1, -1, 1) is spanned by
    (-1/2, 1/2, 1).  Modulo 3, 1/2 = -1 is a small residue, so the lift
    takes it as it stands and fails the exact check; modulo 7, 1/2 = 4 has
    no reconstruction with both parts below sqrt(7/2).  Either way the
    lift adds a second prime by CRT and gives fieldlin's kernel.  A first
    prime whose maps of zeta_M disagree on the pivots is passed over.  With
    the smallest prime = 1 (mod M) first everywhere, spaces and reports are
    unchanged."""
    H = q8.full_subgroup()
    q_plain = TwistedGroupAlgebra(H)
    q_twist = _coboundary_twist(q8, [0, 1, 2, 3, 1, 2, 3, 0])

    def outputs():
        spaces, reports = _lift_outputs(klein, sign_cocycle)
        reports.append(jsonio.containment_to_json(multilinear_containment(q_twist, q_plain, 3)))
        spaces.append(identity_space(q_twist, DegreeAssignment((1, 2, 5, 3))).basis)
        return spaces, reports

    expected = outputs()
    real = identities._prime
    asked = []

    def prime(m, i):
        asked.append(i)
        if i:
            return real(m, i - 1)
        return (first, first - 1) if m == 2 else _smallest_prime(m)

    monkeypatch.setattr(identities, "_prime", prime)
    F = cyclo_field(2)
    E = np.array([[0, 0, -1], [0, 1, 0]], dtype=np.int8)
    kernel = identities._lift(E, 3, F)
    assert asked == [0, 1]
    rows = [[F.root(e) if e >= 0 else F.zero() for e in row] for row in E.tolist()]
    assert [_dense(kernel.vector(0, F), 3, F)] == fieldlin.kernel_basis(
        *fieldlin.rref(rows, F), 3, F)
    assert kernel.vector(0, F)[0] == F.from_fraction(Fraction(-1, 2))
    # the two maps of zeta_4 modulo 5 give these rows different pivots
    F4 = cyclo_field(4)
    E4 = np.array([[0, 0, 0, 3], [0, 2, -1, -1], [0, 1, 3, 2]], dtype=np.int8)
    assert identities._modular_rref(E4, 4, 5, 2) is None
    asked.clear()
    kernel = identities._lift(E4, 4, F4)
    assert asked == [0, 1]
    rows = [[F4.root(e) if e >= 0 else F4.zero() for e in row] for row in E4.tolist()]
    assert [_dense(kernel.vector(0, F4), 4, F4)] == fieldlin.kernel_basis(
        *fieldlin.rref(rows, F4), 4, F4)
    assert outputs() == expected


def test_an_integer_entry_lifted_from_two_primes(monkeypatch):
    """Over Q the kernel of the rows (1, 1, 1) and (0, 1, -1) is spanned by
    (-2, 1, 1).  Modulo 3, -2 = 1 is a small residue, taken as the integer
    1, which fails the exact check; modulo 21 = 3 * 7, -2 = 19 is within
    sqrt(21 / 2) of 21, an integer as it stands, so the two-prime lift has
    no fraction to rescale and gives fieldlin's kernel."""
    primes = {0: (3, 2), 1: (7, 6)}
    asked = []

    def prime(m, i):
        asked.append(i)
        return primes[i]

    monkeypatch.setattr(identities, "_prime", prime)
    F = cyclo_field(2)
    E = np.array([[0, 0, 0], [-1, 0, 1]], dtype=np.int8)
    kernel = identities._lift(E, 3, F)
    assert asked == [0, 1]
    rows = [[F.root(e) if e >= 0 else F.zero() for e in row] for row in E.tolist()]
    assert [_dense(kernel.vector(0, F), 3, F)] == fieldlin.kernel_basis(
        *fieldlin.rref(rows, F), 3, F)
    assert kernel.vector(0, F)[0] == F.from_fraction(Fraction(-2))
    assert kernel.polys.dtype == np.int64 and kernel.dens == [1]


def test_lift_needs_no_fieldlin(monkeypatch, klein, sign_cocycle, c4, q8):
    """identities neither imports nor calls fieldlin: with its rref and
    kernel_basis raising, the spaces and containments of the
    benchmark's algebra kinds (V4 sign, C4 and Q8 coboundary twists, M_2
    over V4 and C4) run, and match the whole matrices afterwards."""
    assert not hasattr(identities, "fieldlin")
    V = klein.full_subgroup()
    signed, plain = TwistedGroupAlgebra(V, sign_cocycle), TwistedGroupAlgebra(V)
    c_twist = _coboundary_twist(c4, [0, 1, 3, 2])
    q_twist = _coboundary_twist(q8, [0, 1, 2, 3, 1, 2, 3, 0])
    m2_v, m2_c = GradedMatrixAlgebra(signed, (0, 1)), GradedMatrixAlgebra(c_twist, (0, 1))
    cases = [(signed, plain, 3), (c_twist, TwistedGroupAlgebra(c4.full_subgroup()), 3),
             (q_twist, TwistedGroupAlgebra(q8.full_subgroup()), 2),
             (m2_v, GradedMatrixAlgebra(plain, (0, 1)), 2),
             (m2_c, GradedMatrixAlgebra(TwistedGroupAlgebra(c4.full_subgroup()), (0, 2)), 2)]

    def refuse(*args):
        raise AssertionError("fieldlin was called")

    for name in ("rref", "kernel_basis"):
        monkeypatch.setattr(fieldlin, name, refuse)
    reports = [(A, B, multilinear_containment(A, B, n)) for A, B, n in cases]
    spaces = [identity_space(X, DegreeAssignment(d)) for X, d in
              ((m2_v, (3, 3, 0, 1)), (m2_c, (1, 3, 2, 0)), (signed, (1, 2, 3, 1)),
               (q_twist, (1, 2, 5, 3)))]
    monkeypatch.undo()
    assert any(not rep.contained for _, _, rep in reports)
    for A, B, rep in reports:
        assert rep == _reference_report(A, B, rep)
    for space in spaces[2:]:
        perms, kernel = _full_kernel(space.algebra, space.assignment.degs)
        assert [_vector(p, perms) for p in space.basis] == kernel


def _polys(vectors, m):
    """CycloNumber vectors in the integer form of a kernel's polys array:
    each vector scaled by the lcm of its coefficients' denominators."""
    polys = []
    for v in vectors:
        coeffs = [c.coeffs if not c.is_zero() else () for c in v]
        den = lcm(*(q.denominator for cs in coeffs for q in cs))
        polys.append([[q.numerator * (den // q.denominator) for q in cs] + [0] * (m - len(cs))
                      for cs in coeffs])
    big = max(abs(x) for P in polys for vj in P for x in vj)
    return np.array(polys, dtype=np.int64 if big < 2**62 else object)


def test_not_killed_is_exact_past_int64():
    """Kernel coefficients too large for the int64 bound switch the check
    to Python ints; the answer must not change."""
    F = cyclo_field(4)
    # the vector (zeta a, a) kills row (e0, e1) exactly when zeta^(e0+1) = -zeta^e1
    E = np.array([[0, 0], [0, 3], [1, 0], [0, -1]])
    for a in (Fraction(1), Fraction(5**30, 3**40)):
        v = [F.from_fraction(a) * F.root(1), F.from_fraction(a)]
        assert identities._not_killed(E, _polys([v], 4), F)[:, 0].tolist() == [
            True, False, False, True]


def test_not_killed_masks_rows_by_vector():
    """One call decides every (row, vector) pair."""
    F = cyclo_field(4)
    E = np.array([[0, 0], [0, 2], [1, 0]])
    # (1, 1) kills only (0, 2); (1, -1) only (0, 0); (zeta, 1) only (1, 0)
    vectors = [[F.one(), F.one()], [F.one(), -F.one()], [F.root(1), F.one()]]
    mask = identities._not_killed(E, _polys(vectors, 4), F)
    assert mask.tolist() == [[True, False, True], [False, True, True], [True, True, False]]
    assert identities._not_killed(E[:0], _polys(vectors, 4), F).shape == (0, 3)
    assert identities._not_killed(E, np.zeros((0, 2, 4), dtype=np.int64), F).shape == (3, 0)


@pytest.mark.parametrize("m", range(1, 31))
def test_residue_table_is_the_powers_of_zeta(m):
    F = cyclo_field(m)
    rows, bound = identities._residues(F)
    assert rows == tuple(tuple(int(c) for c in F.root(t).coeffs) for t in range(m))
    assert bound == max(abs(x) for row in rows for x in row)
    assert identities._residues(F) is identities._residues(cyclo_field(m))
    with pytest.raises(TypeError):
        rows[0][0] = 7


def test_witness_rows_come_from_the_separator_scan(monkeypatch, klein, sign_cocycle):
    """Outside the lifts, one kill mask per pair of row sets decides the
    pair and gives the witness row of every separated assignment with it;
    the witness values come from the grid, not from evaluate; and the
    report is still the one the whole matrices give."""
    A = TwistedGroupAlgebra(klein.full_subgroup(), sign_cocycle)
    B = TwistedGroupAlgebra(klein.full_subgroup())
    calls = {"lift": 0, "other": 0}
    scanned = []
    inside = []
    real_not_killed, real_lift = identities._not_killed, identities._lift
    real_separator = identities._separator

    def not_killed(*args):
        calls["lift" if inside else "other"] += 1
        return real_not_killed(*args)

    def lift(*args):
        inside.append(1)
        try:
            return real_lift(*args)
        finally:
            inside.pop()

    def separator(kernel, rows, field):
        out = real_separator(kernel, rows, field)
        scanned.append((id(kernel), rows.tobytes(), out is not None))
        return out

    def evaluate(*args):
        raise AssertionError("evaluate was called")

    monkeypatch.setattr(identities, "_not_killed", not_killed)
    monkeypatch.setattr(identities, "_lift", lift)
    monkeypatch.setattr(identities, "_separator", separator)
    monkeypatch.setattr(identities, "evaluate", evaluate)
    rep = multilinear_containment(A, B, 3)
    monkeypatch.undo()
    separated = [v for v in rep.verdicts if not v.contained]
    assert len(set(scanned)) == len(scanned) == calls["other"] < len(rep.verdicts)
    assert 0 < sum(hit for _, _, hit in scanned) < len(separated)
    reference = _reference_report(A, B, rep)
    assert rep == reference
    assert jsonio.containment_to_json(rep) == jsonio.containment_to_json(reference)


def test_witness_values_match_evaluate(klein, sign_cocycle, q8):
    """Every witness value summed from the grid is evaluate's value of the
    separating polynomial at the witness substitution, in both directions
    over V4 and Q8 and in M_2(V4)."""
    V, Q = klein.full_subgroup(), q8.full_subgroup()
    signed, plain = TwistedGroupAlgebra(V, sign_cocycle), TwistedGroupAlgebra(V)
    q_twist = _coboundary_twist(q8, [0, 1, 2, 3, 1, 2, 3, 0])
    m2s, m2p = GradedMatrixAlgebra(signed, (0, 1)), GradedMatrixAlgebra(plain, (0, 1))
    checked = 0
    for A, B, n in ((signed, plain, 3), (plain, signed, 3), (q_twist, TwistedGroupAlgebra(Q), 3),
                    (m2s, m2p, 2), (m2p, m2s, 2)):
        for v in multilinear_containment(A, B, n).verdicts:
            if v.contained:
                continue
            wide = B.with_field(v.separating.field)
            subst = tuple(wide.basis_element(k) for k in v.witness_substitution)
            assert evaluate(v.separating, wide, subst) == v.witness_value
            checked += 1
    assert checked > 50


# -- batched rows against the walk -----------------------------------------------

def _coboundary_twist(G, f):
    H = G.full_subgroup()
    return TwistedGroupAlgebra(H, ExpCocycle(H, 4, coboundary_from(ExpFunction(H, 4, f)).mat))


def _walk_cases():
    """(algebra, n, assignments): every assignment of degree <= 3 of the
    twisted algebras (a line of V4 adds degrees outside the support), of
    degree <= 2 of M_2 over V4 and C4, and degree-4 identity-space
    assignments."""
    V, C, Q = (catalog_group(name) for name in ("C2xC2", "C4", "Q8"))
    sign = TwistedGroupAlgebra(V.full_subgroup(), klein_sign_cocycle(V.full_subgroup()))
    plain = TwistedGroupAlgebra(V.full_subgroup())
    line = TwistedGroupAlgebra(Subgroup(V, (0, 1)))
    c_twist = _coboundary_twist(C, [0, 1, 3, 2])
    q_twist = _coboundary_twist(Q, [0, 1, 2, 3, 1, 2, 3, 0])
    m2_sign, m2_plain = GradedMatrixAlgebra(sign, (0, 1)), GradedMatrixAlgebra(plain, (0, 2))
    m2_c = GradedMatrixAlgebra(c_twist, (0, 1))
    cases = []
    for algebra, n_max in ((sign, 3), (plain, 3), (line, 3), (c_twist, 3), (q_twist, 3),
                           (m2_sign, 2), (m2_plain, 2), (m2_c, 2)):
        for n in range(1, n_max + 1):
            cases.append((algebra, n, list(itertools.product(
                range(algebra.ambient.order), repeat=n))))
    cases += [(m2_sign, 4, [(3, 3, 0, 1), (1, 2, 3, 0)]), (m2_c, 4, [(1, 3, 2, 0)]),
              (sign, 4, [(1, 2, 3, 1)]), (q_twist, 4, [(1, 2, 5, 3), (4, 4, 4, 4)])]
    return cases


@pytest.mark.parametrize("chunk", [None, 10], ids=["default chunk", "chunk of 10"])
def test_batched_rows_match_the_walk(monkeypatch, chunk):
    """For every assignment, the batched builder gives the walk's distinct
    rows in the same order, each with the same first substitution, and the
    same rows sorted, which key the row set.  Chunks of 10 entries split single
    assignments (and degree 2 and 3 runs of assignments) across steps."""
    if chunk is not None:
        monkeypatch.setattr(identities, "_CHUNK_ENTRIES", chunk)
    split = 0
    for algebra, n, assignments in _walk_cases():
        grid = identities._Grid(algebra)
        m, width = algebra.field.modulus, factorial(n)
        step = max(1, identities._CHUNK_ENTRIES // width)
        built = []
        for ordered, substs, rank, bounds in identities._assignment_rows(
                grid, np.array(assignments).reshape(-1, n), m):
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                built.append((ordered[lo:hi], ordered[lo:hi][rank[lo:hi]], substs[lo:hi]))
        assert len(built) == len(assignments)
        for degs, (ordered, rows, substs) in zip(assignments, built):
            walk = _exponent_rows(grid, degs, m)
            assert [tuple(r) for r in rows.tolist()] == list(walk)
            assert [tuple(s) for s in substs.tolist()] == list(walk.values())
            assert ordered.tobytes() == np.array(
                sorted(walk), dtype=rows.dtype).reshape(-1, width).tobytes()
            split += prod(len(grid.comps.get(g, ())) for g in degs) > step
    assert (split > 0) == (chunk is not None)


def test_identity_evaluation_leaves_numpy_ma_unimported():
    """numpy.ma loads lazily (np.unique imports it), and in a process that
    compiles its imports from source it costs several MB of resident
    memory; building rows must not load it."""
    code = """if True:
        import sys
        from gradalg.catalog import catalog_group, klein_sign_cocycle
        from gradalg.identities import DegreeAssignment, identity_space, multilinear_containment
        from gradalg.matalg import GradedMatrixAlgebra
        from gradalg.twisted import TwistedGroupAlgebra
        H = catalog_group("C2xC2").full_subgroup()
        signed = TwistedGroupAlgebra(H, klein_sign_cocycle(H))
        plain = TwistedGroupAlgebra(H)
        m2_signed = GradedMatrixAlgebra(signed, (0, 1))
        identity_space(m2_signed, DegreeAssignment((3, 3, 0, 1)))
        multilinear_containment(m2_signed, GradedMatrixAlgebra(plain, (0, 1)), 2)
        print(multilinear_containment(plain, signed, 3).contained, "numpy.ma" in sys.modules)
    """
    src = os.path.dirname(os.path.dirname(identities.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in (os.environ.get("PYTHONPATH"),) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split() == ["False", "False"]
