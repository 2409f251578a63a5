"""Twisted group algebra arithmetic."""
import pytest

from gradalg.cyclo import cyclo_field
from gradalg.errors import (
    DomainMismatch,
    FieldMismatch,
    NotACocycle,
    NotHomogeneous,
    ZeroElement,
)
from gradalg.groups import Subgroup
from gradalg.twisted import TwistedGroupAlgebra

import numpy as np

from gradalg.cocycles import ExpCocycle


def component_basis(algebra, g):
    """Basis of the degree-g component, in basis-key order."""
    return tuple(algebra.basis_element(key) for key in algebra.basis_keys()
                 if algebra.degree_of_key(key) == g)


def test_defaults(klein):
    B = TwistedGroupAlgebra(klein.full_subgroup())
    assert B.dim == 4
    assert B.field.modulus == 4
    assert B.support() == {0, 1, 2, 3}
    assert B.degree_of_key(2) == 2


def test_constructor_validation(klein, sign_cocycle):
    line = Subgroup(klein, (0, 1))
    with pytest.raises(DomainMismatch):
        TwistedGroupAlgebra(line, sign_cocycle)
    bad = ExpCocycle(klein.full_subgroup(), 2, np.eye(4, dtype=np.int64))
    with pytest.raises(NotACocycle):
        TwistedGroupAlgebra(klein.full_subgroup(), bad)
    with pytest.raises(FieldMismatch):
        TwistedGroupAlgebra(klein.full_subgroup(), sign_cocycle, cyclo_field(3))


def test_unit_laws(klein, sign_cocycle):
    B = TwistedGroupAlgebra(klein.full_subgroup(), sign_cocycle)
    one = B.one()
    for x in B.basis_keys():
        e = B.eta(x)
        assert one * e == e
        assert e * one == e


def test_twisted_multiplication(klein, sign_cocycle):
    B = TwistedGroupAlgebra(klein.full_subgroup(), sign_cocycle)
    F = B.field
    e1, e2 = B.eta(1), B.eta(2)
    assert e1 * e2 == B.eta(3)
    assert e2 * e1 == B.eta(3).scaled(F.from_fraction(-1))
    # commutator of the anticommuting pair is 2 eta_3
    assert e1 * e2 - e2 * e1 == B.eta(3).scaled(F.from_fraction(2))
    assert e1 * e1 == B.one()
    e3 = B.eta(3)
    assert e3 * e3 == B.one().scaled(F.from_fraction(-1))


def test_element_arithmetic(klein):
    B = TwistedGroupAlgebra(klein.full_subgroup())
    a = B.eta(0) + B.eta(1).scaled(B.field.from_fraction(2))
    assert a.coefficient(1) == B.field.from_fraction(2)
    assert a.support_keys() == (0, 1)
    assert a.degrees() == frozenset({0, 1})
    assert not a.is_homogeneous()
    with pytest.raises(NotHomogeneous):
        a.degree()
    assert (a - a).is_zero()
    b = 3 * B.eta(1)
    assert b.degree() == 1


def test_element_key_validation(klein):
    B = TwistedGroupAlgebra(Subgroup(klein, (0, 1)))
    with pytest.raises(DomainMismatch):
        B.eta(2)
    with pytest.raises(DomainMismatch):
        B.element({2: B.field.one()})
    assert component_basis(B, 2) == ()
    assert len(component_basis(B, 1)) == 1


def test_homogeneous_inverse(klein, sign_cocycle):
    B = TwistedGroupAlgebra(klein.full_subgroup(), sign_cocycle)
    one = B.one()
    for x in B.basis_keys():
        e = B.eta(x).scaled(B.field.root(1))
        inv = B.homogeneous_inverse(e)
        assert e * inv == one
        assert inv * e == one
    with pytest.raises(ZeroElement):
        B.homogeneous_inverse(B.zero())
    with pytest.raises(NotHomogeneous):
        B.homogeneous_inverse(B.eta(0) + B.eta(1))


def test_homogeneous_inverse_with_shifted_unit(klein):
    # the constant table is a valid cocycle that is nonzero at the identity;
    # the unit picks up the compensating scalar
    H = klein.full_subgroup()
    B = TwistedGroupAlgebra(H, ExpCocycle(H, 2, np.ones((4, 4), dtype=np.int64)))
    one = B.one()
    assert one == B.eta(0).scaled(B.field.from_fraction(-1))
    assert one * one == one
    for x in B.basis_keys():
        e = B.eta(x)
        assert one * e == e
        assert B.homogeneous_inverse(e) * e == one


def test_with_field(klein, sign_cocycle):
    B = TwistedGroupAlgebra(klein.full_subgroup(), sign_cocycle)
    wide = B.with_field(cyclo_field(8))
    assert wide.field.modulus == 8
    assert wide == TwistedGroupAlgebra(klein.full_subgroup(), sign_cocycle,
                                       cyclo_field(8))
    assert wide != B
    assert B.with_field(cyclo_field(2)) is B


def test_structural_equality(klein, sign_cocycle):
    full = klein.full_subgroup()
    a = TwistedGroupAlgebra(full, sign_cocycle)
    b = TwistedGroupAlgebra(full, ExpCocycle(full, 2, sign_cocycle.mat.copy()))
    assert a == b
    assert a != TwistedGroupAlgebra(full)
