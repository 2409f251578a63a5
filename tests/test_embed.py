"""Embedding and isomorphism decisions, product assignments, and towers."""
import functools
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradalg import embed, fieldlin
from gradalg.catalog import catalog_group, klein_sign_cocycle
from gradalg.cocycles import (
    ExpCocycle,
    ExpFunction,
    all_classes,
    coboundary_from,
    restrict,
    trivial_cocycle,
)
from gradalg.cyclo import cyclo_field
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
    AlgebraMismatch,
    AmbientMismatch,
    ChainNotCentral,
    DomainMismatch,
    ExtensionFailed,
    HypothesisError,
    HypothesisViolated,
    InvalidWitness,
    NotASubgroup,
    ValidationError,
    VerificationFailed,
)
from gradalg.graded import GradedMap
from gradalg.groups import Subgroup, cyclic, enumerate_subgroups, normalizer, product
from gradalg.matalg import GradedMatrixAlgebra, LambdaWitness, MatBasisElt, regrade_iso
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
        plain, signed, {x: (signed.field.one(), x) for x in plain.basis_keys()})
    assert not verify_graded_monomorphism(ident, plain, signed)


def test_verify_rejects_degree_violation(klein):
    full = klein.full_subgroup()
    plain = TwistedGroupAlgebra(full)
    swap = {0: 0, 1: 2, 2: 1, 3: 3}
    gmap = GradedMap.monomial(
        plain, plain, {x: (plain.field.one(), swap[x]) for x in plain.basis_keys()})
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


# -- the exponent-form check against the GradedElement products ----------------

GRID_GROUPS = ("C2xC2", "C4", "Q8", "S3", "D4")


@functools.cache
def _catalog_data(name):
    """(subgroups, classes per subgroup, normalizer per subgroup) of a group."""
    G = catalog_group(name)
    subs = enumerate_subgroups(G)
    return (subs, {H.members: all_classes(H) for H in subs},
            {H.members: normalizer(G, H) for H in subs})


def _catalog_algebras(name):
    """Every twisted group algebra of the group, each also as M_2 and M_3
    with a degree tuple from the normalizer."""
    subs, classes, norms = _catalog_data(name)
    for H in subs:
        N = norms[H.members]
        for n, sig in enumerate(classes[H.members]):
            base = TwistedGroupAlgebra(H, sig)
            yield base
            for k in (2, 3):
                yield GradedMatrixAlgebra(
                    base, tuple(N.members[(n + 3 * i) % N.order] for i in range(k)))


@pytest.mark.parametrize("name", GRID_GROUPS)
def test_grid_rows_are_multiply_basis_exp(name):
    """The two statements of the structure constants agree on every pair,
    for rows taken in any order."""
    for A in _catalog_algebras(name):
        keys = list(A.basis_keys())
        pos = {key: i for i, key in enumerate(keys)}
        rows = np.arange(len(keys))[::-1]
        exps, prods = A.multiply_rows_exp(rows)
        assert exps.shape == prods.shape == (len(keys), len(keys))
        for r, a in enumerate(rows):
            for b, key in enumerate(keys):
                hit = A.multiply_basis_exp(keys[a], key)
                if hit is None:
                    assert prods[r, b] == -1
                else:
                    assert (exps[r, b], prods[r, b]) == (hit[0], pos[hit[1]])


def _products_agree(gmap):
    """Multiplicativity by GradedElement products on every basis pair."""
    A, imgs = gmap.source, gmap.images
    for k1, im1 in imgs.items():
        for k2, im2 in imgs.items():
            hit = A.multiply_basis(k1, k2)
            lhs = im1 * im2
            if hit is None:
                if not lhs.is_zero():
                    return False
            else:
                coef, out = hit
                if lhs != imgs[out].scaled(coef):
                    return False
    return True


def _both_product_checks(gmap):
    """(exponent-form check, GradedElement check) of multiplicativity."""
    A, B = gmap.source, gmap.target
    bpos = {bk: i for i, bk in enumerate(B.basis_keys())}
    assign = [gmap.assign[key] for key in A.basis_keys()]
    mono = embed._monomial_form(assign, bpos, A.field.modulus)
    return embed._exp_products_agree(A, B, *mono), _products_agree(gmap)


def _reference_verdict(gmap):
    """Degrees, injectivity by rank and GradedElement products."""
    A, B = gmap.source, gmap.target
    imgs = gmap.images
    for key, img in imgs.items():
        if {B.degree_of_key(bk) for bk in img.terms} != {A.degree_of_key(key)}:
            return False
    rows = [[img.coefficient(bk) for bk in B.basis_keys()] for img in imgs.values()]
    return len(fieldlin.rref(rows, B.field)[0]) == len(rows) and _products_agree(gmap)


def _draw_algebra(data, name, max_dim):
    subs, classes, norms = _catalog_data(name)
    H = data.draw(st.sampled_from(subs), label="support")
    base = TwistedGroupAlgebra(H, data.draw(st.sampled_from(classes[H.members]), label="class"))
    k = data.draw(st.sampled_from([k for k in (1, 2, 3) if k * k * H.order <= max_dim]), label="k")
    if k == 1 and data.draw(st.booleans(), label="twisted group algebra"):
        return base
    N = norms[H.members]
    return GradedMatrixAlgebra(base, tuple(
        data.draw(st.sampled_from(N.members), label="theta") for _ in range(k)))


def _draw_witness(data, name, A):
    """A map the engine builds: a twisted embedding from a subgroup with a
    cohomologous twist, or a matrix embedding into a regraded, possibly
    larger matrix algebra."""
    subs, _, norms = _catalog_data(name)
    if isinstance(A, TwistedGroupAlgebra):
        K = data.draw(st.sampled_from([K for K in subs if set(K.members) <= set(A.subgroup.members)]))
        sig = restrict(A.sigma, K)
        f = data.draw(st.lists(st.integers(0, 7), min_size=K.order - 1, max_size=K.order - 1))
        shift = coboundary_from(ExpFunction(K, 8, [0] + f))
        m = lcm(sig.modulus, 8)
        moved = ExpCocycle(K, m, sig.lift(m).mat + shift.lift(m).mat)
        return twisted_embed(TwistedGroupAlgebra(K, moved), A).witness.map
    N = norms[A.subgroup.members]
    extra = data.draw(st.integers(0, 1), label="extra slots")
    big = GradedMatrixAlgebra(A.base, A.theta + tuple(
        data.draw(st.sampled_from(N.members)) for _ in range(extra)))
    alpha = data.draw(st.permutations(range(1, big.k + 1)), label="alpha")
    lam = LambdaWitness(
        delta=data.draw(st.sampled_from(N.members), label="delta"), alpha=tuple(alpha),
        xis=tuple(data.draw(st.sampled_from(A.subgroup.members)) for _ in range(big.k)))
    target, _ = regrade_iso(big, lam)
    rep = matrix_embed(A, target) if extra else matrix_iso(A, target)
    assert rep.verdict
    return rep.witness.map


MAGNITUDES = (Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-5, 2))


def _conjugated(data, gmap):
    """gmap after conjugation of its matrix source by a rational diagonal,
    composed as monomial data and checked against GradedElement images."""
    S = gmap.source
    d = [data.draw(st.sampled_from(MAGNITUDES), label="diagonal") for _ in range(S.k)]
    conj = GradedMap.monomial(S, S, {key: (S.field.from_fraction(d[key.i - 1] / d[key.j - 1]), key)
                                     for key in S.basis_keys()})
    composed = conj.then(gmap)
    for key, img in conj.images.items():
        (t, c), = img.terms.items()
        assert composed.image(key) == gmap.image(t).scaled(c)
    return composed


def _corrupted(data, gmap):
    """gmap with one fault: a coefficient negated, doubled or moved by a root
    of unity, two targets swapped, a repeated target, or a target moved to
    another column, which sends a product onto a zero."""
    A, B = gmap.source, gmap.target
    assign = dict(gmap.assign)
    keys = list(assign)
    a = data.draw(st.sampled_from(keys), label="key")
    b = data.draw(st.sampled_from([k for k in keys if k != a] or keys), label="other key")
    (ca, ta), (cb, tb) = assign[a], assign[b]
    faults = ["negate", "double", "shift", "swap", "repeat"]
    if isinstance(B, GradedMatrixAlgebra) and B.k > 1:
        faults.append("onto zero")
    fault = data.draw(st.sampled_from(faults), label="fault")
    if fault == "negate":
        assign[a] = (-ca, ta)
    elif fault == "double":
        assign[a] = (ca * 2, ta)
    elif fault == "shift":
        M = B.field.modulus
        assign[a] = (ca * B.field.root(data.draw(st.integers(1, max(1, M - 1)))), ta)
    elif fault == "swap":
        assign[a], assign[b] = (ca, tb), (cb, ta)
    elif fault == "repeat":
        assign[a] = (ca, tb)
    else:
        assign[a] = (ca, MatBasisElt(ta.i, ta.j % B.k + 1, ta.zeta))
    return GradedMap.monomial(A, B, assign)


def _random_monomial(data, name, A):
    """Random targets (repeats allowed) and coefficients into an algebra over
    the same group and field."""
    B = _draw_algebra(data, name, max_dim=48)
    F = cyclo_field(lcm(A.field.modulus, B.field.modulus))
    A, B = A.with_field(F), B.with_field(F)
    bkeys = list(B.basis_keys())
    assign = {}
    for key in A.basis_keys():
        q = data.draw(st.sampled_from(MAGNITUDES), label="magnitude")
        e = data.draw(st.integers(0, F.modulus - 1), label="exponent")
        assign[key] = (F.root(e) * q, data.draw(st.sampled_from(bkeys), label="target"))
    return GradedMap.monomial(A, B, assign)


def _permuted(data, A):
    """The untwisted group algebra of A's support with its basis permuted
    at random and every coefficient 1: no zero products and no exponents,
    so only the product targets can go wrong."""
    T = TwistedGroupAlgebra(A.subgroup)
    keys = list(T.basis_keys())
    perm = data.draw(st.permutations(keys), label="permutation")
    return GradedMap.monomial(T, T, {key: (T.field.one(), t) for key, t in zip(keys, perm)})


def _collapse(A):
    """E_ij eta_z -> eta_z from a matrix algebra onto its base: right on
    every nonzero product, wrong on every zero one."""
    return GradedMap.monomial(A, A.base, {key: (A.field.one(), key.zeta) for key in A.basis_keys()})


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_exponent_check_agrees_with_graded_products(data):
    name = data.draw(st.sampled_from(GRID_GROUPS), label="group")
    A = _draw_algebra(data, name, max_dim=36)
    kind = data.draw(st.sampled_from(
        ["witness", "conjugated", "corrupted", "random", "permuted", "collapse"]), label="map")
    if kind == "random":
        gmap = _random_monomial(data, name, A)
    elif kind == "permuted":
        gmap = _permuted(data, A)
    elif kind == "collapse" and isinstance(A, GradedMatrixAlgebra):
        gmap = _collapse(A)
    else:
        gmap = _draw_witness(data, name, A)
        if kind == "conjugated" and isinstance(gmap.source, GradedMatrixAlgebra):
            gmap = _conjugated(data, gmap)
        elif kind == "corrupted":
            gmap = _corrupted(data, gmap)
    exp_check, loop_check = _both_product_checks(gmap)
    assert exp_check == loop_check
    assert verify_graded_monomorphism(gmap, gmap.source, gmap.target) == _reference_verdict(gmap)


def _c2_matrix():
    C2 = cyclic(2)
    return GradedMatrixAlgebra(TwistedGroupAlgebra(C2.full_subgroup()), (0, 0))


def _diagonal(A, scale):
    """E_ij eta_z -> scale(i, j) E_ij eta_z."""
    return GradedMap.monomial(A, A, {key: (A.field.from_fraction(scale(key.i, key.j)), key)
                                     for key in A.basis_keys()})


def test_diagonal_conjugation_with_rational_magnitudes():
    """E12 -> 2 E12, E21 -> 1/2 E21 is an automorphism with |q| != 1, and
    dropping the 1/2 breaks only the magnitudes."""
    A = _c2_matrix()
    d = (Fraction(1), Fraction(2))
    good = _diagonal(A, lambda i, j: d[j - 1] / d[i - 1])
    bad = _diagonal(A, lambda i, j: 2 if (i, j) == (1, 2) else 1)
    assert verify_graded_isomorphism(good, A, A)
    assert _both_product_checks(good) == (True, True)
    assert not verify_graded_isomorphism(bad, A, A)
    assert _both_product_checks(bad) == (False, False)


def test_product_onto_nonzero_is_caught():
    """The collapse map fails only on products that are zero in the source."""
    A = _c2_matrix()
    assert _both_product_checks(_collapse(A)) == (False, False)
    assert not verify_graded_monomorphism(_collapse(A), A, A.base)


def test_product_on_the_wrong_target_is_caught(c4):
    """Swapping the targets of eta_0 and eta_2 in F[C4] keeps every
    exponent and magnitude; only the product targets are wrong."""
    B = TwistedGroupAlgebra(c4.full_subgroup())
    swap = {0: 2, 2: 0}
    gmap = GradedMap.monomial(B, B, {x: (B.field.one(), swap.get(x, x)) for x in B.basis_keys()})
    assert _both_product_checks(gmap) == (False, False)
    assert not verify_graded_monomorphism(gmap, B, B)


# -- maps that are not monomial -------------------------------------------------


def test_constructors_refuse_non_monomial_maps():
    """Conjugation by u = 1 + E12 on M_2(F[C2]) is a graded automorphism with
    images of up to four terms; it, a zero coefficient, the coefficient
    1 + zeta_4 and a missing key are all refused."""
    A = _c2_matrix()
    e12 = A.basis_element((1, 2, 0))
    u, u_inv = A.one() + e12, A.one() - e12
    images = {key: u * A.basis_element(key) * u_inv for key in A.basis_keys()}
    assert any(len(img.terms) > 1 for img in images.values())
    with pytest.raises(InvalidWitness):
        GradedMap(A, A, images)
    A4 = A.with_field(cyclo_field(4))
    F = A4.field
    key = MatBasisElt(1, 2, 0)
    ident = {k: (F.one(), k) for k in A4.basis_keys()}
    for coef in (0, F.zero(), F.one() + F.root(1)):
        with pytest.raises(InvalidWitness):
            GradedMap.monomial(A4, A4, {**ident, key: (coef, key)})
    del ident[key]
    with pytest.raises(AlgebraMismatch):
        GradedMap.monomial(A4, A4, ident)
