"""Embedding and isomorphism decisions, product assignments, and towers."""
import pytest

from gradalg import embed
from gradalg.catalog import klein_sign_cocycle
from gradalg.cocycles import all_classes, trivial_cocycle
from gradalg.embed import (
    as_matrix_algebra,
    build_tower,
    matrix_embed,
    matrix_iso,
    product_embed,
    twisted_embed,
    twisted_iso,
    verify_graded_isomorphism,
    verify_graded_monomorphism,
)
from gradalg.errors import (
    AmbientMismatch,
    ChainNotCentral,
    DomainMismatch,
    ExtensionFailed,
    HypothesisError,
    HypothesisViolated,
    NotASubgroup,
    ValidationError,
    VerificationFailed,
)
from gradalg.graded import GradedMap
from gradalg.groups import Subgroup, cyclic, enumerate_subgroups, product
from gradalg.matalg import GradedMatrixAlgebra, LambdaWitness, regrade_iso
from gradalg.twisted import TwistedGroupAlgebra


@pytest.fixture(scope="module")
def v4_algebras(klein):
    """One twisted group algebra per (subgroup, class) pair of the Klein group."""
    out = []
    for H in enumerate_subgroups(klein):
        for sig in all_classes(H):
            out.append(TwistedGroupAlgebra(H, sig))
    return out


# -- twisted embeddings ---------------------------------------------------------


def test_klein_exhaustive_embedding_count(v4_algebras):
    """6 algebra types; containment plus restricted-class equality gives 17 yes."""
    assert len(v4_algebras) == 6
    yes = 0
    for B1 in v4_algebras:
        for B2 in v4_algebras:
            rep = twisted_embed(B1, B2)
            if rep.verdict:
                yes += 1
                assert rep.verified
                w = rep.witness
                assert verify_graded_monomorphism(w.map, w.source, w.target)
                assert set(B1.subgroup.members) <= set(B2.subgroup.members)
                assert B1.dim <= B2.dim
            else:
                assert rep.reasons[0] in ("subgroup containment", "class mismatch")
    assert yes == 17


def test_klein_embedding_is_transitive(v4_algebras):
    classes = v4_algebras
    hits = [[twisted_embed(a, b).verdict for b in classes] for a in classes]
    for i in range(6):
        assert hits[i][i]
        for j in range(6):
            for k in range(6):
                if hits[i][j] and hits[j][k]:
                    assert hits[i][k]


def test_klein_iso_is_discrete(v4_algebras):
    """Distinct (subgroup, class) pairs are never isomorphic."""
    for i, B1 in enumerate(v4_algebras):
        for j, B2 in enumerate(v4_algebras):
            rep = twisted_iso(B1, B2)
            assert rep.verdict == (i == j)
            if rep.verdict:
                assert verify_graded_isomorphism(
                    rep.witness.map, rep.witness.source, rep.witness.target)


def test_mutual_embedding_forces_iso(v4_algebras):
    for B1 in v4_algebras:
        for B2 in v4_algebras:
            both = twisted_embed(B1, B2).verdict and twisted_embed(B2, B1).verdict
            assert both == twisted_iso(B1, B2).verdict


def test_embed_reason_strings(klein, sign_cocycle):
    full = klein.full_subgroup()
    line = Subgroup(klein, (0, 1))
    plain = TwistedGroupAlgebra(full)
    signed = TwistedGroupAlgebra(full, sign_cocycle)
    small = TwistedGroupAlgebra(line)
    assert twisted_embed(plain, small).reasons == ("subgroup containment",)
    assert twisted_embed(plain, signed).reasons == ("class mismatch",)
    assert twisted_iso(small, plain).reasons == ("subgroup containment",)


def test_ambient_alignment_and_mismatch(klein, c4, sign_cocycle):
    copy = product(cyclic(2), cyclic(2))
    B1 = TwistedGroupAlgebra(klein.full_subgroup(), sign_cocycle)
    B2 = TwistedGroupAlgebra(copy.full_subgroup(), klein_sign_cocycle(copy.full_subgroup()))
    rep = twisted_iso(B1, B2)  # separate copies of the same table align
    assert rep.verdict
    with pytest.raises(AmbientMismatch):
        twisted_embed(B1, TwistedGroupAlgebra(c4.full_subgroup()))


def test_verify_rejects_non_multiplicative_map(klein, sign_cocycle):
    full = klein.full_subgroup()
    plain = TwistedGroupAlgebra(full)
    signed = TwistedGroupAlgebra(full, sign_cocycle.lift(4))
    ident = GradedMap.monomial(
        plain, signed, {x: (x, signed.field.one()) for x in plain.basis_keys()})
    assert not verify_graded_monomorphism(ident, plain, signed)


def test_verify_rejects_degree_violation(klein):
    full = klein.full_subgroup()
    plain = TwistedGroupAlgebra(full)
    swap = {0: 0, 1: 2, 2: 1, 3: 3}
    gmap = GradedMap.monomial(
        plain, plain, {x: (swap[x], plain.field.one()) for x in plain.basis_keys()})
    assert not verify_graded_monomorphism(gmap, plain, plain)


# -- matrix embeddings ----------------------------------------------------------


def test_order_two_grid(c4):
    """The size-2 picture: a group algebra and a split matrix grading are
    incomparable, but both sit inside the 2x2 algebra over the group algebra."""
    C2 = cyclic(2)
    A = as_matrix_algebra(TwistedGroupAlgebra(C2.full_subgroup()))
    B = GradedMatrixAlgebra(TwistedGroupAlgebra(C2.trivial_subgroup()), (0, 1))
    C = GradedMatrixAlgebra(TwistedGroupAlgebra(C2.full_subgroup()), (0, 0))
    assert not matrix_embed(A, B).verdict
    assert not matrix_embed(B, A).verdict
    for low in (A, B):
        rep = matrix_embed(low, C)
        assert rep.verdict and rep.verified
        w = rep.witness
        assert verify_graded_monomorphism(w.map, w.source, w.target)


def test_matrix_reasons(klein, sign_cocycle, c4):
    full = klein.full_subgroup()
    signed = TwistedGroupAlgebra(full, sign_cocycle)
    plain = TwistedGroupAlgebra(full)
    assert matrix_embed(
        GradedMatrixAlgebra(signed, (0, 0)),
        GradedMatrixAlgebra(signed, (0,))).reasons == ("size",)
    assert matrix_iso(
        GradedMatrixAlgebra(signed, (0,)),
        GradedMatrixAlgebra(signed, (0, 0))).reasons == ("size",)
    assert matrix_embed(
        as_matrix_algebra(signed), as_matrix_algebra(plain)).reasons == (
        "class mismatch",)
    triv = TwistedGroupAlgebra(c4.trivial_subgroup())
    assert matrix_embed(
        GradedMatrixAlgebra(triv, (0, 0)),
        GradedMatrixAlgebra(triv, (0, 1))).reasons == ("tuple matching",)


def test_matrix_embed_grows_size(klein, sign_cocycle):
    signed = TwistedGroupAlgebra(klein.full_subgroup(), sign_cocycle)
    rep = matrix_embed(as_matrix_algebra(signed), GradedMatrixAlgebra(signed, (0, 1)))
    assert rep.verdict
    w = rep.witness
    assert w.alpha and w.delta in klein.elements()
    assert verify_graded_monomorphism(w.map, w.source, w.target)


def test_matrix_iso_under_regrading(s3):
    A3 = Subgroup(s3, (0, s3.element_by_label("(123)"), s3.element_by_label("(132)")))
    B = TwistedGroupAlgebra(A3)
    A1 = GradedMatrixAlgebra(B, (0, s3.element_by_label("(123)")))
    w = LambdaWitness(s3.element_by_label("(12)"), (2, 1),
                      (s3.element_by_label("(132)"), 0))
    A2, _ = regrade_iso(A1, w)
    assert A2.theta != A1.theta
    rep = matrix_iso(A1, A2)
    assert rep.verdict
    assert verify_graded_isomorphism(rep.witness.map, rep.witness.source,
                                     rep.witness.target)


def test_matrix_iso_detects_off_orbit_tuple(s3):
    """Left shifts cannot mix normalizer cosets slot by slot."""
    A3 = Subgroup(s3, (0, s3.element_by_label("(123)"), s3.element_by_label("(132)")))
    B = TwistedGroupAlgebra(A3)
    A1 = GradedMatrixAlgebra(B, (0, s3.element_by_label("(123)")))
    A2 = GradedMatrixAlgebra(B, (s3.element_by_label("(12)"), 0))
    rep = matrix_iso(A1, A2)
    assert not rep.verdict
    assert rep.reasons == ("tuple matching",)


def test_hypothesis_on_degree_tuple(s3):
    H = Subgroup(s3, (0, s3.element_by_label("(12)")))
    bad = GradedMatrixAlgebra(TwistedGroupAlgebra(H), (0, s3.element_by_label("(13)")))
    good = GradedMatrixAlgebra(TwistedGroupAlgebra(H), (0, 0))
    with pytest.raises(HypothesisViolated):
        matrix_embed(bad, good)
    with pytest.raises(HypothesisViolated):
        matrix_embed(good, bad)


def test_as_matrix_algebra(klein):
    B = TwistedGroupAlgebra(klein.full_subgroup())
    A = as_matrix_algebra(B)
    assert A.k == 1 and A.theta == (0,)
    assert as_matrix_algebra(A) is A
    with pytest.raises(TypeError):
        as_matrix_algebra("nope")


# -- products ------------------------------------------------------------------


def test_product_embed_assignment(klein, sign_cocycle):
    full = klein.full_subgroup()
    line = TwistedGroupAlgebra(Subgroup(klein, (0, 1)))
    other = TwistedGroupAlgebra(Subgroup(klein, (0, 3)))
    plain = TwistedGroupAlgebra(full)
    signed = TwistedGroupAlgebra(full, sign_cocycle)
    rep = product_embed([line, signed], [other, signed, plain])
    assert rep.verdict
    # least-index targets: the line skips {0,3} but lands in the twisted
    # algebra (the restricted class is trivial on every order-2 subgroup)
    assert rep.assignment == (2, 2)
    assert any("least target index" in n for n in rep.notes)
    for w in rep.witness:
        assert verify_graded_monomorphism(w.map, w.source, w.target)


def test_product_embed_notes_overlapping_sources(klein):
    full = klein.full_subgroup()
    line = TwistedGroupAlgebra(Subgroup(klein, (0, 1)))
    plain = TwistedGroupAlgebra(full)
    rep = product_embed([line, plain], [plain])
    assert rep.verdict
    assert rep.assignment == (1, 1)
    assert any("source component 1 embeds into source component 2" in n
               for n in rep.notes)


def test_product_embed_failure_lists_components(klein, sign_cocycle):
    full = klein.full_subgroup()
    signed = TwistedGroupAlgebra(full, sign_cocycle)
    plain = TwistedGroupAlgebra(full)
    rep = product_embed([signed, plain], [plain])
    assert not rep.verdict
    assert rep.reasons == ("component 1 embeds into no target",)
    with pytest.raises(ValidationError):
        product_embed([], [plain])


# -- towers --------------------------------------------------------------------


def test_tower_over_elementary_abelian(sign_cocycle):
    G = product(cyclic(2), cyclic(2), cyclic(2))
    V4 = Subgroup(G, (0, 1, 2, 3))
    sig = klein_sign_cocycle(V4)
    B = TwistedGroupAlgebra(V4, sig)
    rep = build_tower(B, [V4, G.full_subgroup()], k=1, t=2)
    assert len(rep.steps) == 1
    assert rep.steps[0].verdict
    assert rep.cocycles[0] is sig
    assert rep.cocycles[1].domain.order == 8
    assert rep.squares[0].commutes
    for side in ("top", "left", "right", "bottom"):
        assert getattr(rep.squares[0], side).verdict


def test_tower_multi_step():
    G = product(cyclic(2), cyclic(2), cyclic(2))
    line = Subgroup(G, (0, 1))
    V4 = Subgroup(G, (0, 1, 2, 3))
    B = TwistedGroupAlgebra(line, trivial_cocycle(line, 2))
    rep = build_tower(B, [line, V4, G.full_subgroup()], k=2, t=2)
    assert len(rep.steps) == 2
    assert [c.domain.order for c in rep.cocycles] == [2, 4, 8]
    assert all(s.verdict for s in rep.steps)
    assert all(sq.commutes for sq in rep.squares)


def test_tower_extension_failure():
    G = product(cyclic(2), cyclic(4))
    V4 = Subgroup(G, (0, 2, 4, 6))
    B = TwistedGroupAlgebra(V4, klein_sign_cocycle(V4))
    with pytest.raises(ExtensionFailed):
        build_tower(B, [V4, G.full_subgroup()])


def test_tower_chain_validation(s3, klein, sign_cocycle):
    t12 = s3.element_by_label("(12)")
    H = Subgroup(s3, (0, t12))
    B = TwistedGroupAlgebra(H)
    with pytest.raises(ChainNotCentral):
        build_tower(B, [H, s3.full_subgroup()])
    full = klein.full_subgroup()
    signed = TwistedGroupAlgebra(full, sign_cocycle)
    with pytest.raises(ValidationError):
        build_tower(signed, [])
    with pytest.raises(ValidationError):
        build_tower(signed, [full], k=2, t=1)
    with pytest.raises(DomainMismatch):
        build_tower(signed, [Subgroup(klein, (0, 1))])
    with pytest.raises(NotASubgroup):
        build_tower(
            TwistedGroupAlgebra(Subgroup(klein, (0, 1))),
            [Subgroup(klein, (0, 1)), Subgroup(klein, (0, 2))])


def test_unverified_witness_is_an_internal_error(klein, sign_cocycle, monkeypatch):
    # a witness that fails verification is an engine fault (exit 1): neither
    # a yes nor a bad-input error
    assert not issubclass(VerificationFailed, (ValidationError, HypothesisError))
    monkeypatch.setattr(embed, "verify_graded_monomorphism", lambda *args: False)
    line = Subgroup(klein, (0, 1))
    small = TwistedGroupAlgebra(line, trivial_cocycle(line, 2))
    big = TwistedGroupAlgebra(klein.full_subgroup(), sign_cocycle)
    with pytest.raises(VerificationFailed):
        twisted_embed(small, big)
    with pytest.raises(VerificationFailed):
        twisted_iso(big, big)
    with pytest.raises(VerificationFailed):
        matrix_embed(as_matrix_algebra(small), as_matrix_algebra(big))
