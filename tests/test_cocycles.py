"""Twist tables in exponent form: validity, equivalence, restriction,
conjugation, extension, and the second cohomology description.

The library solves every cohomology question in edge coordinates. The
bar-resolution system, one unknown per pair of non-identity elements and
one identity per triple, lives only here, as the oracle those answers are
checked against.
"""
import functools
import itertools
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradalg import cocycles
from gradalg.catalog import catalog_group, catalog_groups, klein_sign_cocycle
from gradalg.cocycles import (
    ExpCocycle,
    ExpFunction,
    all_classes,
    class_order,
    classes_equivalent,
    coboundary_from,
    cocycle_kernel,
    conjugate_class,
    extend_class,
    h2_over_Fstar,
    is_cocycle,
    normalize,
    restrict,
    trivial_cocycle,
)
from gradalg.cyclo import cyclo_field
from gradalg.errors import (
    DomainMismatch,
    LengthMismatch,
    ModulusTooLarge,
    NotACocycle,
    NotASubgroup,
    VerificationFailed,
)
from gradalg.groups import (
    FiniteGroup,
    Subgroup,
    cyclic,
    enumerate_subgroups,
    parse_spec,
    product,
)
from gradalg.modlin import (
    ModularSolver,
    RowReducer,
    SnfResult,
    howell_reduce,
    kernel_mod,
    snf_mod,
)
from gradalg.twisted import TwistedGroupAlgebra

from conftest import lift


# -- table basics ------------------------------------------------------------

def test_trivial_cocycle_is_trivial(klein):
    sig = trivial_cocycle(klein.full_subgroup())
    assert is_cocycle(sig)
    assert class_order(sig) == 1
    assert sig.modulus == 4


def test_sign_table_is_a_cocycle(sign_cocycle):
    assert is_cocycle(sign_cocycle)
    assert sign_cocycle.modulus == 2
    assert class_order(sign_cocycle) == 2


def test_sign_table_values(klein, sign_cocycle):
    F = cyclo_field(2)
    # the two generators anticommute: r(1,2) != r(2,1)
    assert sign_cocycle.value(F, 1, 2) == F.one()
    assert sign_cocycle.value(F, 2, 1) == F.from_fraction(-1)
    with pytest.raises(DomainMismatch):
        sign_cocycle.value(cyclo_field(3), 1, 2)


def test_cocycle_shape_checked(klein):
    with pytest.raises(LengthMismatch):
        ExpCocycle(klein.full_subgroup(), 2, np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(LengthMismatch):
        ExpFunction(klein.full_subgroup(), 2, np.zeros(3, dtype=np.int64))


def test_is_cocycle_rejects_broken_tables(klein):
    H = klein.full_subgroup()
    mat = np.zeros((4, 4), dtype=np.int64)
    mat[0, 1] = 1  # not normalized at the identity
    assert not is_cocycle(ExpCocycle(H, 2, mat))
    mat = np.zeros((4, 4), dtype=np.int64)
    mat[1, 2] = 1  # breaks the 2-cocycle identity
    assert not is_cocycle(ExpCocycle(H, 2, mat))


def test_lift_and_scale(sign_cocycle):
    lifted = lift(sign_cocycle, 8)
    assert lifted.modulus == 8
    assert is_cocycle(lifted)
    assert class_order(lifted) == 2
    assert classes_equivalent(lifted, sign_cocycle) is not None
    assert class_order(sign_cocycle.scaled(2)) == 1


@pytest.mark.parametrize("modulus", [0, -2, -8])
def test_nonpositive_modulus_is_refused(sign_cocycle, modulus):
    with pytest.raises(DomainMismatch, match="not positive"):
        ExpCocycle(sign_cocycle.domain, modulus, sign_cocycle.mat)
    with pytest.raises(DomainMismatch, match="not positive"):
        trivial_cocycle(sign_cocycle.domain, modulus)


# -- coboundaries and equivalence ---------------------------------------------

@given(st.data())
@settings(max_examples=40)
def test_coboundary_is_trivial_cocycle(data):
    G = catalog_group(data.draw(st.sampled_from(["C2xC2", "C4", "S3", "Q8"])))
    m = data.draw(st.sampled_from([2, 4, 6]))
    vec = np.array(
        data.draw(st.lists(st.integers(0, m - 1), min_size=G.order, max_size=G.order)))
    vec[0] = 0
    sig = coboundary_from(ExpFunction(G.full_subgroup(), m, vec))
    assert is_cocycle(sig)
    assert class_order(sig) == 1
    f = classes_equivalent(sig, trivial_cocycle(G.full_subgroup(), m))
    assert f is not None


def test_equivalence_witness_contract(klein, sign_cocycle):
    """The returned function's coboundary equals the lifted difference."""
    H = klein.full_subgroup()
    vec = np.array([0, 1, 3, 1])
    rho = ExpCocycle(
        H, 4, (lift(sign_cocycle, 4).mat + coboundary_from(ExpFunction(H, 4, vec)).mat) % 4)
    assert is_cocycle(rho)
    f = classes_equivalent(sign_cocycle, rho)
    assert f is not None
    m_w = f.modulus
    lifted = (lift(sign_cocycle, m_w).mat - lift(rho, m_w).mat) % m_w
    assert (coboundary_from(f).mat == lifted).all()


def test_equivalence_negative(klein, sign_cocycle):
    H = klein.full_subgroup()
    assert classes_equivalent(sign_cocycle, trivial_cocycle(H)) is None
    with pytest.raises(DomainMismatch):
        classes_equivalent(sign_cocycle, trivial_cocycle(Subgroup(klein, (0, 1))))


def test_normalize(klein, sign_cocycle):
    H = klein.full_subgroup()
    shifted = ExpCocycle(H, 2, (sign_cocycle.mat + 1) % 2)
    sn, f = normalize(shifted)
    assert (sn.mat[0, :] == 0).all() and (sn.mat[:, 0] == 0).all()
    assert (sn.mat == (shifted.mat - coboundary_from(f).mat) % 2).all()
    with pytest.raises(NotACocycle):
        normalize(ExpCocycle(H, 2, np.eye(4, dtype=np.int64)))


# -- restriction and conjugation ----------------------------------------------

def test_restriction_of_sign_class_is_trivial_on_lines(klein, sign_cocycle):
    for members in ((0, 1), (0, 2)):
        H = Subgroup(klein, members)
        res = restrict(sign_cocycle, H)
        assert classes_equivalent(res, trivial_cocycle(H, 2)) is not None


def test_restriction_to_diagonal_is_a_coboundary(klein, sign_cocycle):
    # the table is -1 on (d, d) for the diagonal involution d; f(d) = i kills it
    H = Subgroup(klein, (0, 3))
    res = restrict(sign_cocycle, H)
    assert res.entry(3, 3) == 1
    f = classes_equivalent(res, trivial_cocycle(H, 2))
    assert f is not None
    assert f.modulus % 4 == 0
    assert f.vec[f.domain.position(3)] % 4 in (1, 3)


def test_restrict_validates_domain(klein, sign_cocycle):
    with pytest.raises(NotASubgroup):
        restrict(sign_cocycle, cyclic(2).full_subgroup())
    small = Subgroup(klein, (0, 1))
    with pytest.raises(NotASubgroup):
        restrict(restrict(sign_cocycle, small), klein.full_subgroup())


def test_conjugate_class_moves_domain(s3):
    t12 = s3.element_by_label("(12)")
    t13 = s3.element_by_label("(13)")
    t23 = s3.element_by_label("(23)")
    H = Subgroup(s3, (0, t12))
    mat = np.array([[0, 0], [0, 1]], dtype=np.int64)
    sig = ExpCocycle(H, 2, mat)
    assert is_cocycle(sig)
    moved = conjugate_class(sig, t13)
    assert moved.domain.members == (0, t23)
    assert moved.entry(t23, t23) == 1
    # conjugating back restores the original table
    back = conjugate_class(moved, s3.inv(t13))
    assert back == sig


def test_conjugate_class_reuses_the_conjugate_subgroup(s3):
    """Two conjugations of one domain by one element share the conjugate
    subgroup, kept in the parent's store, and the table is the one that
    moving each entry on its own gives."""
    H = Subgroup(s3, (0, s3.element_by_label("(123)"), s3.element_by_label("(132)")))
    for xi in range(s3.order):
        sig = ExpCocycle(H, 3, coboundary_from(ExpFunction(H, 3, [0, 1, 2])).mat)
        first, second = conjugate_class(sig, xi), conjugate_class(sig, xi)
        assert first.domain is second.domain
        K = first.domain
        loop = np.zeros_like(sig.mat)
        for i, a in enumerate(H.members):
            for j, b in enumerate(H.members):
                loop[K.position(s3.conj(a, xi)), K.position(s3.conj(b, xi))] = sig.mat[i, j]
        assert np.array_equal(first.mat, loop)
    assert len({conjugate_class(sig, xi).domain.members for xi in range(s3.order)}) == 1


def _identity_by_loops(sig):
    """The 2-cocycle identity checked triple by triple."""
    H, G, r = sig.domain, sig.domain.parent, sig.mat
    pos = H.position
    return all(
        (r[x, y] + r[pos(G.mul(a, b)), z] - r[y, z] - r[x, pos(G.mul(b, c))]) % sig.modulus == 0
        for x, a in enumerate(H.members) for y, b in enumerate(H.members)
        for z, c in enumerate(H.members))


@pytest.mark.parametrize("name", ["C2xC2", "S3", "Q8", "C2xC2xC4"])
def test_cocycle_identity_matches_the_triple_loop(name):
    """The vectorized identity check agrees with the triple loop on catalog
    classes, on their coboundary twists and on tables that are no cocycle."""
    G = catalog_group(name) if name != "C2xC2xC4" else parse_spec(name)
    H = G.full_subgroup()
    m = 2 * G.exponent
    rng = np.random.default_rng(len(name))
    tables = [lift(klein_sign_cocycle(H), m).mat] if name == "C2xC2" else []
    tables.append(coboundary_from(ExpFunction(H, m, rng.integers(0, m, H.order))).mat)
    for _ in range(3):
        bad = tables[0].copy()
        bad[rng.integers(1, H.order), rng.integers(1, H.order)] += 1
        tables.append(bad % m)
    verdicts = []
    for mat in tables:
        sig = ExpCocycle(H, m, mat)
        verdicts.append(cocycles._satisfies_identity(sig))
        assert verdicts[-1] == _identity_by_loops(sig)
    assert verdicts[0] and not all(verdicts)


def test_conjugation_by_subgroup_element_preserves_class(klein, sign_cocycle):
    for xi in range(klein.order):
        moved = conjugate_class(sign_cocycle, xi)
        assert classes_equivalent(moved, sign_cocycle) is not None


# -- extension ----------------------------------------------------------------

def test_extension_from_transposition_line(s3):
    t12 = s3.element_by_label("(12)")
    H = Subgroup(s3, (0, t12))
    sig = ExpCocycle(H, 2, np.array([[0, 0], [0, 1]], dtype=np.int64))
    ext = extend_class(sig, s3)
    assert ext is not None
    assert is_cocycle(ext)
    assert classes_equivalent(restrict(ext, H), sig) is not None


def test_extension_within_direct_factor(sign_cocycle):
    G = product(cyclic(2), cyclic(2), cyclic(2))
    V4 = Subgroup(G, (0, 1, 2, 3))
    sig = ExpCocycle(V4, 2, sign_cocycle.mat)
    assert is_cocycle(sig)
    ext = extend_class(sig, G)
    assert ext is not None
    assert classes_equivalent(restrict(ext, V4), sig) is not None


def test_extension_can_fail_for_central_subgroups():
    """A square in the big group forces a degenerate pairing downstairs."""
    G = product(cyclic(2), cyclic(4))
    V4 = Subgroup(G, (0, 2, 4, 6))
    sig = klein_sign_cocycle(V4)
    assert class_order(sig) == 2
    assert V4.is_central()
    assert extend_class(sig, G) is None
    # independent count: the restriction map hits only the trivial class
    desc = h2_over_Fstar(G)
    hit = {
        class_order(restrict(rep, V4))
        for rep in all_classes(G.full_subgroup())
    }
    assert desc.order == 2
    assert hit == {1}


def test_extension_to_a_subgroup_in_place(sign_cocycle):
    """extend_class onto a subgroup K that contains the domain gives a
    cocycle on K itself, at modulus M * exp(K), that restricts to the class."""
    G = product(cyclic(2), cyclic(2), cyclic(2), cyclic(2))
    V4 = Subgroup(G, (0, 1, 2, 3))
    K = Subgroup(G, range(8))
    sig = ExpCocycle(V4, 2, sign_cocycle.mat)
    ext = extend_class(sig, K)
    assert ext.domain == K and ext.modulus == 2 * K.exponent
    assert classes_equivalent(restrict(ext, V4), sig) is not None
    assert extend_class(ext, G) is not None
    with pytest.raises(NotASubgroup):
        extend_class(sig, Subgroup(G, (0, 1, 4, 5)))


def _standalone(K):
    """K as a group of its own, on the position table of its members."""
    mul = cocycles._pos_mul(K)
    for a, x in enumerate(K.members):
        for b, y in enumerate(K.members):
            assert K.members[mul[a, b]] == K.parent.mul(x, y)
    return FiniteGroup(mul.tolist(), order_cap=None)


@pytest.mark.parametrize("spec", ["C2xC2xC4", "D4", "Q8", "C4xC4", "C2xC2xC2"])
def test_subgroup_cohomology_in_place_matches_a_standalone_copy(spec):
    """Classes and extensions computed on subgroups in place carry the same
    tables as on a standalone copy of each subgroup: its H^2 representatives
    and classes, and, for each pair of subgroups H <= K, the extension of
    every class of H to K."""
    G = parse_spec(spec)
    subs = enumerate_subgroups(G)
    copies = {K.members: _standalone(K) for K in subs}
    for K in subs:
        S = copies[K.members]
        classes = all_classes(K)
        assert [c.mat.tobytes() for c in classes] == [
            c.mat.tobytes() for c in all_classes(S.full_subgroup())]
        for H in subs:
            if H <= K and H != K:
                inner = Subgroup(S, [K.position(x) for x in H.members])
                for sig in all_classes(H):
                    ext = extend_class(sig, K)
                    alone = extend_class(ExpCocycle(inner, sig.modulus, sig.mat), S)
                    assert (ext is None) == (alone is None)
                    if ext is not None:
                        assert ext.domain == K and ext.modulus == alone.modulus
                        assert np.array_equal(ext.mat, alone.mat)


def test_extend_class_checks_the_cocycle_once(monkeypatch, sign_cocycle):
    G = product(cyclic(2), cyclic(2), cyclic(2))
    sig = ExpCocycle(Subgroup(G, (0, 1, 2, 3)), 2, sign_cocycle.mat)
    calls = []
    real = cocycles.is_cocycle
    monkeypatch.setattr(cocycles, "is_cocycle", lambda s: calls.append(s) or real(s))
    assert extend_class(sig, G) is not None
    assert len(calls) == 1


def test_warm_extend_round_trip_validates_no_subgroup(monkeypatch):
    G = product(cyclic(2), cyclic(2), cyclic(2))
    H = Subgroup(G, (0, 1, 2, 3))
    sig = all_classes(H)[1]
    extend_class(sig, G)
    calls = []
    real = Subgroup._validate
    monkeypatch.setattr(Subgroup, "_validate", lambda self: calls.append(self) or real(self))
    ext = extend_class(sig, G)
    assert classes_equivalent(restrict(ext, H), sig) is not None
    assert calls == []


def test_class_order_checks_the_cocycle_once(monkeypatch, sign_cocycle):
    calls = []
    real = cocycles.is_cocycle
    monkeypatch.setattr(cocycles, "is_cocycle", lambda s: calls.append(s) or real(s))
    assert class_order(sign_cocycle) == 2
    assert len(calls) == 1
    with pytest.raises(NotACocycle):
        class_order(ExpCocycle(sign_cocycle.domain, 2, np.eye(4, dtype=np.int64)))


def test_extend_validates(s3, sign_cocycle):
    with pytest.raises(NotASubgroup):
        extend_class(sign_cocycle, s3)
    H = Subgroup(s3, (0, s3.element_by_label("(12)")))
    with pytest.raises(NotACocycle):
        extend_class(ExpCocycle(H, 2, np.eye(2, dtype=np.int64)), s3)


# -- second cohomology ---------------------------------------------------------

@pytest.mark.parametrize("name,factors", [
    ("C1", ()),
    ("C6", ()),
    ("C2xC2", (2,)),
    ("C2xC4", (2,)),
    ("C4xC4", (4,)),
    ("C3xC3", (3,)),
    ("C2xC2xC2", (2, 2, 2)),
    ("S3", ()),
    ("Q8", ()),
    ("D4", (2,)),
])
def test_h2_invariant_factors(name, factors):
    desc = h2_over_Fstar(catalog_group(name))
    assert desc.invariant_factors == factors
    order = 1
    for f in factors:
        order *= f
    assert desc.order == order


@pytest.mark.parametrize("spec", ["S4", "C2xC4xC4"])
def test_h2_at_orders_24_and_32(spec):
    """S4 has Schur multiplier Z/2; C_a x C_b x C_c has one Z/gcd per pair of factors."""
    if spec == "S4":
        expect = (2,)
    else:
        ns = (2, 4, 4)
        expect = tuple(sorted(gcd(a, b) for a, b in itertools.combinations(ns, 2)))
    desc = h2_over_Fstar(parse_spec(spec))
    assert desc.invariant_factors == expect
    assert all(is_cocycle(rep) for rep in desc.representatives)


def test_h2_representatives_have_right_orders(klein):
    desc = h2_over_Fstar(catalog_group("C2xC2xC2"))
    assert len(desc.representatives) == 3
    for rep, factor in zip(desc.representatives, desc.invariant_factors):
        assert is_cocycle(rep)
        assert class_order(rep) == factor
    assert h2_over_Fstar(klein) is h2_over_Fstar(klein)  # cached per group


def test_h2_checks_its_own_factors_and_representatives(monkeypatch):
    # an invariant factor that does not divide |G|
    monkeypatch.setattr(cocycles, "snf_mod",
                        lambda A, N, want_v=False: SnfResult(diag=(N,) * A.shape[1]))
    with pytest.raises(VerificationFailed, match="does not divide"):
        h2_over_Fstar(product(cyclic(2), cyclic(2)))
    monkeypatch.undo()
    # a representative whose exponents are not multiples of exp(G)
    monkeypatch.setattr(RowReducer, "reduce_vector", lambda self, v: (v + 1) % self.N)
    with pytest.raises(VerificationFailed, match="not divisible"):
        h2_over_Fstar(product(cyclic(2), cyclic(2)))


# every nontrivial catalog group, and larger ones up to order 64
HOWELL_SPECS = [name for name, G, _ in catalog_groups() if G.order > 1] + [
    "D6", "C2xC6", "C3xS3", "S4", "C2xC4xC4", "C4xC4xC4", "D4xQ8", "C2xC2xC2xC2xC2xC2"]


def test_h2_relations_are_a_reduced_howell_basis(monkeypatch):
    """The relation rows h2_over_Fstar hands to snf_mod, kernel_mod's rows
    cut to the cocycle coordinates with the zero ones dropped, are their own
    reduced Howell basis: a Howell basis projected onto its leading
    coordinates, keeping the rows whose pivot lies there, is the Howell
    basis of the projection."""
    seen = []

    def spy(A, N, **kwargs):
        seen.append((A, N))
        return snf_mod(A, N, **kwargs)

    monkeypatch.setattr(cocycles, "snf_mod", spy)
    assert len(HOWELL_SPECS) == 33
    for spec in HOWELL_SPECS:
        seen.clear()
        h2_over_Fstar(parse_spec(spec))  # a fresh group, so nothing is cached
        (rel, N), = seen
        assert rel.shape[0] and rel.any(axis=1).all(), spec
        assert np.array_equal(howell_reduce(rel, N).basis(), rel), spec


class _StubSolver:
    """Reports the class order `hit` for every right-hand side."""

    def __init__(self, hit):
        self.hit = hit

    def order(self, b):
        return self.hit


@pytest.mark.parametrize("hit,message", [(3, "does not divide")])
def test_class_order_checks_its_answer(monkeypatch, sign_cocycle, hit, message):
    monkeypatch.setattr(cocycles, "_cob_solver", lambda H, m_w: _StubSolver(hit))
    with pytest.raises(VerificationFailed, match=message):
        class_order(sign_cocycle)


def _class_order_by_loop(sig):
    """The least k with k*sig equivalent to the zero cocycle, one
    equivalence solve per k."""
    zero = trivial_cocycle(sig.domain, sig.modulus)
    return next(k for k in range(1, sig.domain.order + 1)
                if classes_equivalent(sig.scaled(k), zero) is not None)


def test_class_order_matches_the_loop():
    """The order read off the Smith form equals the least k found by one
    solve per k, for every class of every subgroup of the catalog and for
    three times each class."""
    cases = 0
    for _, G, _ in catalog_groups():
        for H in enumerate_subgroups(G):
            for sig in all_classes(H):
                for s in (sig, sig.scaled(3)):
                    assert class_order(s) == _class_order_by_loop(s), (G, H.members)
                    cases += 1
    assert cases == 438


def test_overflowing_working_modulus_is_refused():
    """A cocycle at modulus 8 * 3**18 has working modulus 32 * 3**18, which
    overflows int64 in the solver; an overflow once answered "inequivalent"."""
    full = product(cyclic(2), cyclic(4)).full_subgroup()
    vec = [0, 3, 1, 5, 2, 7, 6, 4]
    rho = coboundary_from(ExpFunction(full, 8, vec))
    zero = trivial_cocycle(full, 8)
    assert classes_equivalent(rho, zero) is not None
    big = 8 * 3 ** 18
    rho = coboundary_from(ExpFunction(full, big, [v * 3 ** 18 for v in vec]))
    with pytest.raises(ModulusTooLarge):
        classes_equivalent(rho, trivial_cocycle(full, big))


def test_all_classes_enumeration(klein, q8):
    classes = all_classes(klein.full_subgroup())
    assert len(classes) == 2
    orders = sorted(class_order(c) for c in classes)
    assert orders == [1, 2]
    assert len(all_classes(q8.full_subgroup())) == 1
    # a line has trivial class group: one class overall, the zero table
    line = Subgroup(klein, (0, 1))
    (zero,) = all_classes(line)
    assert zero.domain == line and not zero.mat.any()


def test_cocycle_kernel_members_are_cocycles():
    """Kernel rows are edge coordinates; expanded to full tables they are
    cocycles and span the same Z/m-module as the bar kernel."""
    for spec, m in (("S3", 6), ("Q8", 8), ("D4", 16), ("C2xC2xC2", 4)):
        G = parse_spec(spec)
        full = G.full_subgroup()
        K = cocycle_kernel(G, m)
        frame = cocycles._frame(full)
        assert K.shape[1] == (G.order - 1) * frame.gens.size
        tables = frame.expand(K, m)
        assert all(is_cocycle(ExpCocycle(full, m, table)) for table in tables)
        assert (np.array([frame.edges(t) for t in tables]) == K).all()
        bar = howell_reduce(tables[:, 1:, 1:].reshape(len(K), -1), m).basis()
        assert np.array_equal(bar, howell_reduce(_bar_kernel(G, m), m).basis())


def test_counting_bound(q8, s3):
    """|H^2| is at most n^(n(n-1)/2 + 1) for |G| = n."""
    for G in (q8, s3, catalog_group("C4xC4")):
        n = G.order
        assert h2_over_Fstar(G).order <= n ** (n * (n - 1) // 2 + 1)


@pytest.mark.parametrize("spec", ["C4xC4xC4", "D4xQ8"])
def test_h2_at_order_64(spec):
    """C4 x C4 x C4 has one Z/4 per pair of factors. By Kunneth,
    H^2(D4 x Q8) = H^2(D4) + H^2(Q8) + Hom(D4_ab (x) Q8_ab, C*), and both
    abelianizations are C2 x C2."""
    if spec == "C4xC4xC4":
        expect = (4, 4, 4)
    else:
        parts = (h2_over_Fstar(parse_spec("D4")).invariant_factors
                 + h2_over_Fstar(parse_spec("Q8")).invariant_factors + (2,) * 4)
        expect = tuple(sorted(parts))
        assert expect == (2, 2, 2, 2, 2)
    desc = h2_over_Fstar(parse_spec(spec))
    assert desc.invariant_factors == expect
    assert all(is_cocycle(rep) for rep in desc.representatives)


@pytest.mark.parametrize("spec", [name for name, _, _ in catalog_groups()]
                         + ["C4xC4xC4", "D4xQ8", "C2xC2xC2xC2xC2xC2"])
def test_cocycle_kernel_is_a_reduced_howell_basis(spec):
    """The kernel rows come out of kernel_mod as the reduced Howell basis
    of the cocycle space, at |G| and at |G| * exp(G): reducing them again
    changes nothing."""
    G = parse_spec(spec)
    for m in (G.order, G.order * G.exponent):
        K = cocycle_kernel(G, m)
        assert np.array_equal(K, howell_reduce(K, m).basis())


# -- validity is checked once per table ------------------------------------------

def test_cocycle_validity_is_checked_once_per_object(monkeypatch, sign_cocycle):
    checked = []
    real = cocycles._satisfies_identity
    monkeypatch.setattr(cocycles, "_satisfies_identity",
                        lambda s: checked.append(s) or real(s))
    H = sign_cocycle.domain
    sig = ExpCocycle(H, 2, sign_cocycle.mat)
    rho = ExpCocycle(H, 4, lift(sig, 4).mat + coboundary_from(ExpFunction(H, 4, [1, 2, 3, 1])).mat)
    assert is_cocycle(sig) and is_cocycle(sig)
    TwistedGroupAlgebra(H, sig)
    normalize(sig)
    conjugate_class(sig, 1)
    assert classes_equivalent(sig, rho) is not None
    assert class_order(sig) == 2
    assert [s is sig for s in checked].count(True) == 1
    assert [s is rho for s in checked].count(True) == 1


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_derived_cocycles_satisfy_the_identity(data):
    """Scaling, normalizing, restricting and conjugating a checked cocycle,
    and taking a coboundary, give cocycles marked valid without a check;
    the identity holds on each."""
    G = catalog_group(data.draw(st.sampled_from(["C2xC2", "C4", "S3", "Q8", "D4", "C2xC4"])))
    subs = enumerate_subgroups(G)
    H = data.draw(st.sampled_from(subs), label="domain")
    m = H.order * data.draw(st.sampled_from([1, 2, 3]), label="multiple")
    vec = data.draw(st.lists(st.integers(0, m - 1), min_size=H.order, max_size=H.order))
    delta = coboundary_from(ExpFunction(H, m, vec))
    cls = data.draw(st.sampled_from(all_classes(H)), label="class")
    sig = ExpCocycle(H, m, lift(cls, m).mat + delta.mat)
    assert is_cocycle(sig)
    K = data.draw(st.sampled_from([K for K in subs if K <= H]), label="restricted to")
    derived = [delta, sig.scaled(data.draw(st.integers(0, 7), label="k")),
               normalize(sig)[0], restrict(sig, K),
               conjugate_class(sig, data.draw(st.integers(0, G.order - 1), label="xi"))]
    for out in derived:
        assert out._valid is True
        assert cocycles._satisfies_identity(out)


def test_an_unchecked_or_invalid_source_marks_nothing(sign_cocycle):
    """A restriction or multiple of a table that is no cocycle may be one,
    so it is checked on its own."""
    H = sign_cocycle.domain
    bad = ExpCocycle(H, 2, np.eye(4, dtype=np.int64))
    fresh = ExpCocycle(H, 2, sign_cocycle.mat)
    assert restrict(fresh, H)._valid is None and fresh.scaled(2)._valid is None
    assert not is_cocycle(bad)
    trivial = Subgroup(H.parent, (0,))
    assert restrict(bad, trivial)._valid is None and is_cocycle(restrict(bad, trivial))
    assert bad.scaled(2)._valid is None and is_cocycle(bad.scaled(2))


def test_cocycle_tables_are_read_only(sign_cocycle):
    mat = np.array(sign_cocycle.mat)
    sig = ExpCocycle(sign_cocycle.domain, 2, mat)
    with pytest.raises(ValueError):
        sig.mat[1, 2] = 0
    with pytest.raises(ValueError):
        sig.mat += 1
    mat[1, 2] = 0  # the caller's array is copied, not frozen
    assert is_cocycle(sig)


# -- the bar-resolution system as an oracle --------------------------------------

def _bar_coboundary(H):
    """f |-> delta f on pairs (a, b) of non-identity members, f(e) = 0."""
    k = H.order
    mul = cocycles._pos_mul(H)
    D = np.zeros(((k - 1) ** 2, k - 1), dtype=np.int64)
    for a in range(1, k):
        for b in range(1, k):
            row = (a - 1) * (k - 1) + (b - 1)
            D[row, a - 1] += 1
            D[row, b - 1] += 1
            if mul[a, b]:
                D[row, mul[a, b] - 1] -= 1
    return D


@functools.lru_cache(maxsize=None)
def _bar_kernel(G, modulus):
    """Normalized cocycles of G over Z/modulus on pairs of non-identity
    elements: the kernel of the identities at every non-identity triple."""
    n = G.order
    m = (n - 1) ** 2
    mul = np.asarray(G.mul_table, dtype=np.int64)
    red = RowReducer(modulus, m)
    nz = np.arange(1, n)
    for x in range(1, n):
        for y in range(1, n):
            rows = np.zeros((n - 1, m), dtype=np.int64)
            for row, z in zip(rows, nz):
                for sign, a, b in ((1, x, y), (1, mul[x, y], z), (-1, y, z), (-1, x, mul[y, z])):
                    if a and b:
                        row[(a - 1) * (n - 1) + b - 1] += sign
            red.add_matrix(rows % modulus)
    basis = red.basis()
    return kernel_mod(basis, modulus) if basis.shape[0] else np.eye(m, dtype=np.int64)


def _bar(mat):
    return mat[1:, 1:].ravel()


def _bar_h2_factors(G):
    n, e = G.order, G.exponent
    N = n * e
    GE = (e * _bar_kernel(G, n)) % N
    sysmat = np.concatenate([GE.T, (-_bar_coboundary(G.full_subgroup())) % N], axis=1)
    rel = kernel_mod(sysmat, N)[:, :GE.shape[0]]
    rel = howell_reduce(rel, N).basis() if rel.shape[0] else rel
    return tuple(int(d) for d in snf_mod(rel, N).diag if d != 1)


@functools.lru_cache(maxsize=None)
def _bar_cob_solver(H, m_w):
    return ModularSolver(_bar_coboundary(H), m_w)


@functools.lru_cache(maxsize=None)
def _bar_extend_solver(G, H, m_w):
    K = _bar_kernel(G, m_w)
    mem = np.array(H.members[1:], dtype=np.int64)
    cols = ((mem[:, None] - 1) * (G.order - 1) + (mem[None, :] - 1)).ravel()
    return ModularSolver(np.concatenate([K[:, cols].T, (-_bar_coboundary(H)) % m_w], axis=1), m_w)


def _bar_normalized(sig, m_w):
    mat = lift(sig, m_w).mat
    return _bar((mat - mat[0, 0]) % m_w)


def _bar_equivalent(sig, rho):
    m_w = lcm(sig.modulus, rho.modulus) * sig.domain.exponent
    target = _bar_normalized(sig, m_w) - _bar_normalized(rho, m_w)
    return _bar_cob_solver(sig.domain, m_w).solve(target) is not None


def _bar_extends(sig, G):
    m_w = sig.modulus * G.exponent
    return _bar_extend_solver(G, sig.domain, m_w).solve(_bar_normalized(sig, m_w)) is not None


# the catalog already holds C12
_ORACLE_GROUPS = [name for name, _, _ in catalog_groups()] + ["D6", "C2xC6", "C3xS3"]


@pytest.mark.parametrize("spec", _ORACLE_GROUPS)
def test_edge_coordinates_agree_with_the_bar_system(spec):
    """H^2 invariant factors, equivalence verdicts on class pairs moved by
    random coboundaries, and extension verdicts on every class of every
    central subgroup, against the bar-resolution solve."""
    G = parse_spec(spec)
    assert h2_over_Fstar(G).invariant_factors == _bar_h2_factors(G)
    full = G.full_subgroup()
    rng = np.random.default_rng(G.order)
    classes = all_classes(full)
    for i, sig in enumerate(classes):
        for j, other in enumerate(classes):
            f = ExpFunction(full, other.modulus, rng.integers(0, other.modulus, G.order))
            rho = ExpCocycle(full, other.modulus, other.mat + coboundary_from(f).mat)
            verdict = classes_equivalent(sig, rho) is not None
            assert verdict == _bar_equivalent(sig, rho) == (i == j)
    for H in enumerate_subgroups(G):
        if H.is_central():
            for sig in all_classes(H):
                assert (extend_class(sig, G) is not None) == _bar_extends(sig, G)


def test_edge_width_admits_larger_moduli():
    """On C2 x C4 the equivalence system is 21 wide (14 edge rows, two
    generators, and 7 unknowns), so 6 * 10**8 stays inside int64; the bar
    system, 56 wide, refused it."""
    G = product(cyclic(2), cyclic(4))
    full = G.full_subgroup()
    assert cocycles._frame(full).coboundary.shape == (14, 7)
    m_w = 600_000_000
    # cocycle modulus m_w / exp(G), so the working modulus is m_w
    m = m_w // G.exponent
    rho = coboundary_from(ExpFunction(full, m, [0, 3, 1, 5, 2, 7, 6, 4]))
    f = classes_equivalent(rho, trivial_cocycle(full, m))
    assert f is not None and f.modulus == m_w
    V4 = Subgroup(G, (0, 2, 4, 6))
    m = m_w // V4.exponent
    assert classes_equivalent(lift(klein_sign_cocycle(V4), m), trivial_cocycle(V4, m)) is None
