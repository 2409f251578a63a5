"""Groups compare by their multiplication table.

Two separately built copies of C2xC4 stand for groups loaded from separate
files: every operation that takes objects from both copies gives the
answer it gives on one object. A group with a different table of the same
order, C8, is still refused.
"""
import pytest

from gradalg import jsonio
from gradalg.catalog import klein_sign_cocycle
from gradalg.cocycles import (
    ExpCocycle,
    classes_equivalent,
    extend_class,
    h2_over_Fstar,
    restrict,
    trivial_cocycle,
)
from gradalg.embed import (
    as_matrix_algebra,
    build_tower,
    matrix_embed,
    matrix_iso,
    product_embed,
    twisted_embed,
    twisted_iso,
)
from gradalg.errors import AmbientMismatch, DomainMismatch, NotASubgroup
from gradalg.groups import Subgroup, normalizer, parse_spec
from gradalg.identities import multilinear_containment
from gradalg.twisted import TwistedGroupAlgebra

KLEIN = (0, 2, 4, 6)


@pytest.fixture(scope="module")
def copies():
    G1, G2 = parse_spec("C2xC4"), parse_spec("C2xC4")
    assert G1 is not G2
    return G1, G2


@pytest.fixture(scope="module")
def sigma(copies):
    """The nontrivial class of C2xC4, on the first copy."""
    (rep,) = h2_over_Fstar(copies[0]).representatives
    return rep


def test_copies_are_equal_and_other_tables_are_not(copies):
    G1, G2 = copies
    assert G1 == G2 and hash(G1) == hash(G2)
    assert Subgroup(G1, KLEIN) == Subgroup(G2, KLEIN)
    assert hash(Subgroup(G1, KLEIN)) == hash(Subgroup(G2, KLEIN))
    assert Subgroup(G1, (0, 4)) <= Subgroup(G2, KLEIN)
    C8 = parse_spec("C8")
    assert G1 != C8 and Subgroup(G1, KLEIN) != Subgroup(C8, KLEIN)
    assert not Subgroup(C8, (0, 4)) <= Subgroup(G1, KLEIN)


def test_restrict_across_copies(copies, sigma):
    G1, G2 = copies
    one = restrict(sigma, Subgroup(G1, KLEIN))
    other = restrict(sigma, Subgroup(G2, KLEIN))
    assert other == one and other.domain.parent is G2


def test_extend_class_across_copies(copies, sigma):
    G1, G2 = copies
    low = restrict(sigma, Subgroup(G1, (0, 1, 2, 3)))
    one, other = extend_class(low, G1), extend_class(low, G2)
    assert one is not None and other == one
    assert extend_class(klein_sign_cocycle(Subgroup(G1, KLEIN)), G2) is None


def test_normalizer_across_copies(copies):
    G1, G2 = copies
    K1 = Subgroup(G1, KLEIN)
    assert normalizer(G2, K1) == normalizer(G1, K1)
    assert normalizer(G2, K1).parent is G2


def test_classes_equivalent_across_copies(copies, sigma):
    G1, G2 = copies
    V1, V2 = Subgroup(G1, KLEIN), Subgroup(G2, KLEIN)
    a = klein_sign_cocycle(V1)
    verdicts = []
    for b in (klein_sign_cocycle(V1), restrict(sigma, V1)):
        same = classes_equivalent(a, b)
        across = classes_equivalent(a, ExpCocycle(V2, b.modulus, b.mat))
        assert (across is None) == (same is None)
        if same is not None:
            assert (across.vec == same.vec).all()
        verdicts.append(same is not None)
    assert verdicts == [True, False]


def test_multilinear_containment_across_copies(copies, sigma):
    G1, G2 = copies
    A = TwistedGroupAlgebra(G1.full_subgroup(), sigma)
    one = multilinear_containment(A, TwistedGroupAlgebra(G1.full_subgroup()), 2)
    other = multilinear_containment(A, TwistedGroupAlgebra(G2.full_subgroup()), 2)
    assert jsonio.containment_to_json(other) == jsonio.containment_to_json(one)
    assert not one.contained


def test_product_embed_across_copies(copies):
    G1, G2 = copies

    def targets(G):
        V = Subgroup(G, KLEIN)
        return [TwistedGroupAlgebra(G.trivial_subgroup()),
                TwistedGroupAlgebra(V, klein_sign_cocycle(V))]

    V1 = Subgroup(G1, KLEIN)
    sources = [TwistedGroupAlgebra(V1, klein_sign_cocycle(V1)),
               TwistedGroupAlgebra(G1.trivial_subgroup())]
    one, other = product_embed(sources, targets(G1)), product_embed(sources, targets(G2))
    assert other.verdict and other.assignment == one.assignment == (2, 1)
    assert jsonio.report_to_json(other) == jsonio.report_to_json(one)


def test_build_tower_on_a_copy(copies):
    G1, G2 = copies
    B = TwistedGroupAlgebra(Subgroup(G1, (0, 4)))

    def chain(G):
        return [Subgroup(G, (0, 4)), Subgroup(G, KLEIN), G.full_subgroup()]

    one, other = build_tower(B, chain(G1), k=1, t=2), build_tower(B, chain(G2), k=1, t=2)
    assert jsonio.tower_to_json(other) == jsonio.tower_to_json(one)
    assert other.subgroups == one.subgroups


def test_different_tables_are_refused(copies, sigma):
    G1, _ = copies
    C8 = parse_spec("C8")
    A = TwistedGroupAlgebra(G1.full_subgroup())
    B = TwistedGroupAlgebra(C8.full_subgroup())
    for decide in (twisted_embed, twisted_iso):
        with pytest.raises(AmbientMismatch):
            decide(A, B)
    for decide in (matrix_embed, matrix_iso):
        with pytest.raises(AmbientMismatch):
            decide(as_matrix_algebra(A), as_matrix_algebra(B))
    with pytest.raises(AmbientMismatch):
        product_embed([A], [A, B])
    with pytest.raises(AmbientMismatch):
        multilinear_containment(A, B, 1)
    with pytest.raises(NotASubgroup):
        restrict(sigma, Subgroup(C8, (0, 4)))
    with pytest.raises(NotASubgroup):
        extend_class(trivial_cocycle(Subgroup(G1, (0, 4))), C8)
    with pytest.raises(DomainMismatch):
        classes_equivalent(trivial_cocycle(Subgroup(G1, (0, 4))),
                           trivial_cocycle(Subgroup(C8, (0, 4))))


def test_build_tower_refuses_a_chain_on_another_table():
    """A chain subgroup past the first on another table names the grading
    group, as the decision entry points do, not the inclusion."""
    G = parse_spec("C2xC4")
    line = Subgroup(G, (0, 4))
    B = TwistedGroupAlgebra(line)
    with pytest.raises(AmbientMismatch):
        build_tower(B, [line, Subgroup(parse_spec("C8"), (0, 2, 4, 6))])
    with pytest.raises(AmbientMismatch):
        build_tower(B, [Subgroup(parse_spec("C8"), (0, 4))])
