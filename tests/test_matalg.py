"""Graded matrix algebras: degree tables, grading checks, and regrading moves."""
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradalg.catalog import catalog_group
from gradalg.cocycles import ExpCocycle, ExpFunction, all_classes, coboundary_from
from gradalg.embed import verify_graded_isomorphism
from gradalg.errors import (
    DomainMismatch,
    IndexOutOfRange,
    InvalidWitness,
    ValidationError,
)
from gradalg.graded import GradedElement, GradedMap
from gradalg.groups import Subgroup, closure, cyclic, enumerate_subgroups, normalizer
from gradalg.matalg import (
    GradedMatrixAlgebra,
    LambdaWitness,
    MatBasisElt,
    _coset_reps,
    _lexmin_matching,
    lambda_membership,
    regrade_iso,
)
from gradalg.twisted import TwistedGroupAlgebra

from conftest import lift


@pytest.fixture
def transposition_block(s3):
    """M_2 over the plain algebra of a transposition line in S3."""
    H = Subgroup(s3, closure(s3, [s3.element_by_label("(12)")]))
    return GradedMatrixAlgebra(TwistedGroupAlgebra(H), (0, 0))


def test_constructor_validation(klein, sign_cocycle):
    B = TwistedGroupAlgebra(klein.full_subgroup(), sign_cocycle)
    with pytest.raises(ValidationError):
        GradedMatrixAlgebra(B, ())
    with pytest.raises(ValidationError):
        GradedMatrixAlgebra(B, (0, 4))


def test_dimensions_and_keys(klein, sign_cocycle):
    B = TwistedGroupAlgebra(klein.full_subgroup(), sign_cocycle)
    A = GradedMatrixAlgebra(B, (0, 1, 2))
    assert A.k == 3
    assert A.dim == 9 * 4
    keys = A.basis_keys()
    assert len(keys) == A.dim
    assert MatBasisElt(1, 3, 2) in keys


def test_degree_table_conjugates_by_slots(s3):
    t12 = s3.element_by_label("(12)")
    t13 = s3.element_by_label("(13)")
    t23 = s3.element_by_label("(23)")
    H = Subgroup(s3, (0, t12))
    A = GradedMatrixAlgebra(TwistedGroupAlgebra(H), (t13, t13))
    # within a diagonal slot the support line is conjugated
    assert A.degree_of(1, 1, t12) == t23
    assert A.degree_of(2, 2, t12) == t23
    assert A.degree_of(1, 1, 0) == 0
    with pytest.raises(IndexOutOfRange):
        A.degree_of(0, 1, 0)
    with pytest.raises(IndexOutOfRange):
        A.degree_of(1, 3, 0)
    with pytest.raises(DomainMismatch):
        A.degree_of(1, 1, t13)


def test_support_need_not_be_a_subgroup(c4):
    B = TwistedGroupAlgebra(c4.trivial_subgroup())
    A = GradedMatrixAlgebra(B, (0, 1))
    assert sorted(A.support()) == [0, 1, 3]


def test_unit_and_multiplication(klein, sign_cocycle):
    B = TwistedGroupAlgebra(klein.full_subgroup(), sign_cocycle)
    A = GradedMatrixAlgebra(B, (0, 3))
    one = A.one()
    for key in A.basis_keys():
        e = A.basis_element(key)
        assert one * e == e
        assert e * one == e
    e12 = A.basis_element((1, 2, 1))
    e21 = A.basis_element((2, 1, 2))
    prod = e12 * e21
    assert list(prod.terms) == [MatBasisElt(1, 1, 3)]
    assert (e21 * e21).is_zero()


def test_deg_multiplicativity_spot(klein, sign_cocycle):
    B = TwistedGroupAlgebra(klein.full_subgroup(), sign_cocycle)
    A = GradedMatrixAlgebra(B, (0, 2))
    G = A.ambient
    for k1 in A.basis_keys():
        for k2 in A.basis_keys():
            hit = A.multiply_basis_exp(k1, k2)
            if hit is None:
                assert k1.j != k2.i
                continue
            _, out = hit
            assert A.degree_of_key(out) == G.mul(A.degree_of_key(k1),
                                                 A.degree_of_key(k2))


def test_theta_in_normalizer(s3):
    t12 = s3.element_by_label("(12)")
    t13 = s3.element_by_label("(13)")
    H = Subgroup(s3, (0, t12))
    B = TwistedGroupAlgebra(H)
    assert GradedMatrixAlgebra(B, (0, t12)).theta_in_normalizer
    assert not GradedMatrixAlgebra(B, (0, t13)).theta_in_normalizer


# -- regrading witnesses -------------------------------------------------------


def test_witness_validation(transposition_block):
    A = transposition_block
    t13 = A.ambient.element_by_label("(13)")
    t12 = A.ambient.element_by_label("(12)")
    with pytest.raises(InvalidWitness):
        LambdaWitness(0, (1, 1), (0, 0)).validate(A)
    with pytest.raises(InvalidWitness):
        LambdaWitness(0, (1, 2), (0,)).validate(A)
    with pytest.raises(InvalidWitness):
        LambdaWitness(0, (1, 2), (0, t13)).validate(A)
    with pytest.raises(InvalidWitness):
        LambdaWitness(t13, (1, 2), (0, 0)).validate(A)
    LambdaWitness(t12, (2, 1), (0, t12)).validate(A)


def test_target_tuple(transposition_block):
    A = transposition_block
    G = A.ambient
    t12 = G.element_by_label("(12)")
    w = LambdaWitness(t12, (2, 1), (0, t12))
    # tau_j = delta * xi_j * theta_{alpha(j)}
    assert w.target_tuple(A) == (t12, G.mul(t12, t12))


def test_membership_yes_and_reconstruction(transposition_block):
    A = transposition_block
    t12 = A.ambient.element_by_label("(12)")
    for target in ((t12, 0), (0, t12), (t12, t12)):
        w = lambda_membership(target, A)
        assert w is not None
        w.validate(A)
        assert w.target_tuple(A) == target


def test_membership_no_for_off_orbit_tuple(transposition_block):
    A = transposition_block
    t13 = A.ambient.element_by_label("(13)")
    assert lambda_membership((t13, t13), A) is None


def test_membership_respects_normalizer_cosets(s3):
    A3 = Subgroup(s3, closure(s3, [s3.element_by_label("(123)")]))
    A = GradedMatrixAlgebra(TwistedGroupAlgebra(A3), (0, 0))
    # A3 is normal, so every tuple delta*(xi_j) is reachable
    t12 = s3.element_by_label("(12)")
    r = s3.element_by_label("(123)")
    w = lambda_membership((t12, s3.mul(t12, r)), A)
    assert w is not None
    assert w.target_tuple(A) == (t12, s3.mul(t12, r))


def test_regrade_iso_produces_isomorphism(s3):
    A3 = Subgroup(s3, closure(s3, [s3.element_by_label("(123)")]))
    B = TwistedGroupAlgebra(A3)
    A = GradedMatrixAlgebra(B, (0, s3.element_by_label("(12)")))
    r = s3.element_by_label("(123)")
    w = LambdaWitness(s3.element_by_label("(13)"), (2, 1), (r, 0))
    target, phi = regrade_iso(A, w)
    assert target.theta == w.target_tuple(A)
    assert verify_graded_isomorphism(phi, A, target)


def test_regrade_iso_identity_witness(transposition_block):
    A = transposition_block
    target, phi = regrade_iso(A, LambdaWitness(0, (1, 2), (0, 0)))
    assert target.theta == (0, 0)
    for key in A.basis_keys():
        assert phi.image(key).degrees() <= frozenset({A.degree_of_key(key)})
    assert verify_graded_isomorphism(phi, A, target)


def test_regrade_iso_rejects_bad_witness(transposition_block):
    with pytest.raises(InvalidWitness):
        regrade_iso(transposition_block, LambdaWitness(0, (2, 2), (0, 0)))


def _regrade_reference(A, w, target):
    """The images of regrade_iso(A, w), key by key, by its formula in field,
    cocycle and group calls: the oracle for its arrays."""
    G, field, r = A.ambient, A.field, A.sigma.entry
    step = field.modulus // A.sigma.modulus
    inv_alpha = {w.alpha[j]: j + 1 for j in range(A.k)}
    out = {}
    for key in A.basis_keys():
        a, b = inv_alpha[key.i], inv_alpha[key.j]
        xa, xb = w.xis[a - 1], w.xis[b - 1]
        xb_inv = G.inv(xb)
        left = G.mul(xa, key.zeta)
        coef = field.root((r(xa, key.zeta) + r(left, xb_inv) - r(xb, xb_inv) - r(0, 0)) * step)
        moved = G.conj(G.mul(left, xb_inv), w.delta)
        out[key] = GradedElement(target, {MatBasisElt(a, b, moved): coef})
    return out


def _check_regrade(A, w):
    target, phi = regrade_iso(A, w)
    expect = _regrade_reference(A, w, target)
    ref = GradedMap(A, target, expect)
    assert phi.targets.tolist() == ref.targets.tolist()
    assert phi.exps.tolist() == ref.exps.tolist()
    assert phi.mags == ref.mags == (1,)
    assert not phi.mag_of.any()
    assert phi.images == expect
    assert verify_graded_isomorphism(phi, A, target)


def _moved(sig, f):
    """sig times the coboundary of f, at a modulus that is a multiple of
    2|H|; an f(e) in 1..2|H|-1 moves r(e, e) too."""
    m = lcm(sig.modulus, 2 * len(f))
    shift = coboundary_from(ExpFunction(sig.domain, m, f))
    return ExpCocycle(sig.domain, m, lift(sig, m).mat + shift.mat)


REGRADE_GROUPS = ("C2xC2", "C4", "Q8", "S3", "D4", "C2xC2xC4")


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_regrade_arrays_match_the_per_key_formula(data):
    G = catalog_group(data.draw(st.sampled_from(REGRADE_GROUPS), label="group"))
    H = data.draw(st.sampled_from(enumerate_subgroups(G)), label="support")
    N = normalizer(G, H)
    sig = data.draw(st.sampled_from(all_classes(H)), label="class")
    f = [data.draw(st.integers(1, 2 * H.order - 1), label="f(e)")] + data.draw(
        st.lists(st.integers(0, 2 * H.order), min_size=H.order - 1, max_size=H.order - 1),
        label="f")
    k = data.draw(st.integers(1, 4), label="k")
    A = GradedMatrixAlgebra(TwistedGroupAlgebra(H, _moved(sig, f)),
                            tuple(data.draw(st.sampled_from(N.members)) for _ in range(k)))
    w = LambdaWitness(
        delta=data.draw(st.sampled_from(N.members), label="delta"),
        alpha=tuple(data.draw(st.permutations(range(1, k + 1)), label="alpha")),
        xis=tuple(data.draw(st.sampled_from(H.members)) for _ in range(k)))
    _check_regrade(A, w)


@pytest.mark.parametrize("name", ["S3", "D4", "Q8"])
def test_regrade_conjugates_a_nonabelian_support_in_order(name):
    """delta outside the centre and shifts that do not commute: the images
    depend on the order of every product. Conjugation by delta and by
    delta^-1 differ where delta^2 is not central, as for a 3-cycle of S3."""
    G = catalog_group(name)
    H = G.full_subgroup()
    outside = [g for g in range(G.order) if g not in G.center]
    delta = next((g for g in outside if G.mul(g, g) not in G.center), outside[0])
    sig = _moved(all_classes(H)[-1], list(range(1, H.order + 1)))
    A = GradedMatrixAlgebra(TwistedGroupAlgebra(H, sig), (0, outside[0], outside[1]))
    _check_regrade(A, LambdaWitness(delta, (2, 3, 1), (outside[1], outside[2], 0)))


# -- matching helpers ----------------------------------------------------------


def test_coset_reps():
    C6 = cyclic(6)
    assert _coset_reps(C6, range(6), (0, 3)) == [0, 1, 2]
    assert _coset_reps(C6, range(6), (0, 2, 4)) == [0, 1]


def test_lexmin_matching():
    assert _lexmin_matching([[0, 1], [0]]) == [1, 0]
    assert _lexmin_matching([[0, 1], [0, 1]]) == [0, 1]
    assert _lexmin_matching([[1], [1]]) is None
    assert _lexmin_matching([[0, 1, 2], [0], [2]]) == [1, 0, 2]
