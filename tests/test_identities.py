"""Multilinear graded identities: spaces, evaluation, and containment."""
import itertools
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
from gradalg.groups import Subgroup, cyclic
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
    assert val.support_keys() == (3,)
    assert val.coefficient(3) == signed.field.from_fraction(2)


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


def test_containment_same_algebra(plain):
    rep = multilinear_containment(plain, plain, 2)
    assert rep.contained
    assert not rep.skipped
    assert rep.n_max == 2


def test_containment_separates_plain_from_twisted(plain, signed):
    rep = multilinear_containment(plain, signed, 2)
    assert not rep.contained
    v = rep.verdict_for((1, 2))
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
    v = rep.verdict_for((2, 1))
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
    assert rep.verdict_for((1, 2)) is None


def test_containment_validation(plain, c4):
    with pytest.raises(ValidationError):
        multilinear_containment(plain, plain, 0)
    from gradalg.errors import AmbientMismatch

    with pytest.raises(AmbientMismatch):
        multilinear_containment(plain, TwistedGroupAlgebra(c4.full_subgroup()), 1)


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
    reduced, pivots = fieldlin.rref(kb, B.field)
    sep = next((v for v in ka if not fieldlin.in_span(reduced, pivots, v)), None)
    if sep is None:
        return AssignmentVerdict(degs, True, len(ka), len(kb))
    poly = GradedMultilinearPoly(
        DegreeAssignment(degs),
        {w: c for w, c in zip(perms, sep) if not c.is_zero()}, B.field)
    for subst in itertools.product(*(component_basis(B, g) for g in degs)):
        value = evaluate(poly, B, subst)
        if not value.is_zero():
            keys = tuple(elt.support_keys()[0] for elt in subst)
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
        mat = mat + klein_sign_cocycle(H).lift(m).mat
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
    """A containment reduces each distinct (width, row set) once, for A and
    B together, and its report is still the one the whole matrices give,
    assignment by assignment."""
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
    calls = []
    real_rref = fieldlin.rref
    monkeypatch.setattr(fieldlin, "rref", lambda rows, F: calls.append(1) or real_rref(rows, F))
    rep = multilinear_containment(A, B, 3)
    monkeypatch.undo()
    assert len(calls) == len(keys) < len(rep.verdicts) // 4
    reference = _reference_report(A, B, rep)
    assert jsonio.containment_to_json(rep) == jsonio.containment_to_json(reference)
    assert rep == reference


def test_exact_finish_repairs_a_starved_pivot_search(monkeypatch, klein, sign_cocycle):
    """Rows independent modulo p are independent over Q(zeta), but a prime
    can lose rank.  Keeping only the first modular pivot row has that effect
    at its worst; the exact check must then bring every missing row back,
    leaving spaces and reports unchanged."""
    H = klein.full_subgroup()
    signed = TwistedGroupAlgebra(H, sign_cocycle)
    m2 = GradedMatrixAlgebra(TwistedGroupAlgebra(H, trivial_cocycle(H, 2)), (0, 1))
    m2_signed = GradedMatrixAlgebra(signed, (0, 1))
    assignments = [DegreeAssignment(d) for d in ((1, 1, 0), (0, 2, 1), (3, 3, 0, 1))]

    def outputs():
        spaces = [identity_space(A, a).basis for A in (m2, m2_signed) for a in assignments]
        reports = [jsonio.containment_to_json(multilinear_containment(A, B, 3))
                   for A, B in ((signed, m2), (m2, signed), (m2_signed, m2))]
        return spaces, reports

    calls = []
    real_rref = fieldlin.rref
    monkeypatch.setattr(fieldlin, "rref", lambda rows, F: calls.append(1) or real_rref(rows, F))
    expected = outputs()
    exact_calls = len(calls)
    real_pivots = identities._pivot_rows
    monkeypatch.setattr(identities, "_pivot_rows", lambda E, m: real_pivots(E, m)[:1])
    calls.clear()
    assert outputs() == expected
    assert len(calls) > exact_calls  # the minor was repaired


def test_not_killed_is_exact_past_int64():
    """Kernel coefficients too large for the int64 bound switch the check
    to Python ints; the answer must not change."""
    F = cyclo_field(4)
    # the vector (zeta a, a) kills row (e0, e1) exactly when zeta^(e0+1) = -zeta^e1
    E = np.array([[0, 0], [0, 3], [1, 0], [0, -1]])
    for a in (Fraction(1), Fraction(5**30, 3**40)):
        v = [F.from_fraction(a) * F.root(1), F.from_fraction(a)]
        assert identities._not_killed(E, [v], F)[:, 0].tolist() == [True, False, False, True]


def test_not_killed_masks_rows_by_vector():
    """One call decides every (row, vector) pair."""
    F = cyclo_field(4)
    E = np.array([[0, 0], [0, 2], [1, 0]])
    # (1, 1) kills only (0, 2); (1, -1) only (0, 0); (zeta, 1) only (1, 0)
    vectors = [[F.one(), F.one()], [F.one(), -F.one()], [F.root(1), F.one()]]
    mask = identities._not_killed(E, vectors, F)
    assert mask.tolist() == [[True, False, True], [False, True, True], [True, True, False]]
    assert identities._not_killed(E[:0], vectors, F).shape == (0, 3)
    assert identities._not_killed(E, [], F).shape == (3, 0)


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
    """Outside _reduce, _not_killed runs once per pair of row sets that
    reaches the kernel scan, never once per separated assignment, and the
    report is still the one the whole matrices give."""
    A = TwistedGroupAlgebra(klein.full_subgroup(), sign_cocycle)
    B = TwistedGroupAlgebra(klein.full_subgroup())
    calls = {"reduce": 0, "other": 0}
    scanned = []
    inside = []
    real_not_killed, real_reduce = identities._not_killed, identities._reduce
    real_separator = identities._separator

    def not_killed(*args):
        calls["reduce" if inside else "other"] += 1
        return real_not_killed(*args)

    def reduce(*args):
        inside.append(1)
        try:
            return real_reduce(*args)
        finally:
            inside.pop()

    def separator(a, b, field, degs):
        out = real_separator(a, b, field, degs)
        if out is not None:
            scanned.append((a.key, b.key))
        return out

    monkeypatch.setattr(identities, "_not_killed", not_killed)
    monkeypatch.setattr(identities, "_reduce", reduce)
    monkeypatch.setattr(identities, "_separator", separator)
    rep = multilinear_containment(A, B, 3)
    monkeypatch.undo()
    separated = [v for v in rep.verdicts if not v.contained]
    assert len(set(scanned)) == len(scanned) < len(separated)
    assert calls["other"] <= len(scanned)
    reference = _reference_report(A, B, rep)
    assert rep == reference
    assert jsonio.containment_to_json(rep) == jsonio.containment_to_json(reference)


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
    rows in the same order, each with the same first substitution, and
    keys the row set by its sorted rows.  Chunks of 10 entries split single
    assignments (and degree 2 and 3 runs of assignments) across steps."""
    if chunk is not None:
        monkeypatch.setattr(identities, "_CHUNK_ENTRIES", chunk)
    split = 0
    for algebra, n, assignments in _walk_cases():
        grid = identities._Grid(algebra)
        m, width = algebra.field.modulus, factorial(n)
        step = max(1, identities._CHUNK_ENTRIES // width)
        built = list(identities._assignment_rows(grid, assignments, n, m))
        assert len(built) == len(assignments)
        for degs, (rows, substs, key) in zip(assignments, built):
            walk = _exponent_rows(grid, degs, m)
            assert [tuple(r) for r in rows.tolist()] == list(walk)
            assert [tuple(s) for s in substs.tolist()] == list(walk.values())
            ordered = np.array(sorted(walk), dtype=rows.dtype).reshape(-1, width)
            assert key == (width, ordered.tobytes())
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
