"""Multilinear graded identities: spaces, evaluation, and containment."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert rep.contained  # nothing decided was violated
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
