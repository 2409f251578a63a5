"""Exact cyclotomic arithmetic over the power basis of Q(zeta_M)."""
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradalg.cyclo import CycloField, _poly_divmod_exact, cyclo_field, cyclotomic_polynomial
from gradalg.errors import DivisionByZero, FieldMismatch, VerificationFailed


def totient(m):
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


KNOWN_POLYS = {
    1: [-1, 1],
    2: [1, 1],
    3: [1, 1, 1],
    4: [1, 0, 1],
    6: [1, -1, 1],
    8: [1, 0, 0, 0, 1],
    9: [1, 0, 0, 1, 0, 0, 1],
    12: [1, 0, -1, 0, 1],
}


@pytest.mark.parametrize("m,coeffs", sorted(KNOWN_POLYS.items()))
def test_cyclotomic_polynomial_known(m, coeffs):
    assert list(cyclotomic_polynomial(m)) == coeffs


@pytest.mark.parametrize("num,den,message", [
    ((0, 1), (1, 2), "inexact"),  # x / (1 + 2x)
    ((1, 0, 1), (1, 1), "remainder"),  # (1 + x^2) / (1 + x)
])
def test_exact_division_checks_itself(num, den, message):
    with pytest.raises(VerificationFailed, match=message):
        _poly_divmod_exact(num, den)


@pytest.mark.parametrize("m", range(1, 25))
def test_field_degree_is_totient(m):
    assert cyclo_field(m).degree == totient(m)


def test_field_identity_cached():
    assert cyclo_field(8) is cyclo_field(8)
    assert cyclo_field(8) == CycloField(8)
    assert cyclo_field(8) != cyclo_field(4)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8, 12])
def test_root_orders(m):
    F = cyclo_field(m)
    z = F.root()
    assert z ** m == F.one()
    for k in range(1, m):
        assert z ** k != F.one()
    if m % 2 == 0:
        assert z ** (m // 2) == F.from_fraction(-1)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8, 12])
def test_root_sum_vanishes(m):
    F = cyclo_field(m)
    acc = F.zero()
    for k in range(m):
        acc = acc + F.root(k)
    assert acc.is_zero()


def test_rational_embedding():
    F = cyclo_field(12)
    a = F.from_fraction(Fraction(3, 4))
    b = F.from_fraction(Fraction(-1, 6))
    assert (a + b).as_rational() == Fraction(7, 12)
    assert (a * b).as_rational() == Fraction(-1, 8)
    assert (a / b).as_rational() == Fraction(-9, 2)
    assert F.root(3).as_rational() is None
    assert F.one().is_one()


def test_mixed_int_arithmetic():
    F = cyclo_field(4)
    i = F.root()
    assert (1 + i) * (1 - i) == F.from_fraction(2)
    assert 2 * i - i == i
    assert (i - i).is_zero()
    assert 1 / i == i ** 3
    assert i ** -1 == i ** 3


def test_element_vector_round_trip():
    F = cyclo_field(8)
    a = F.element([1, 2, 0, -3])
    assert a.coeffs == (Fraction(1), Fraction(2), Fraction(0), Fraction(-3))
    with pytest.raises(FieldMismatch):
        F.element([1, 2, 3])


def test_inverse_of_mixed_terms():
    F = cyclo_field(8)
    a = F.one() + F.root()  # not a monomial times a root
    assert (a * a.inv()).is_one()
    with pytest.raises(DivisionByZero):
        F.zero().inv()


def test_field_mismatch_raises():
    with pytest.raises(FieldMismatch):
        cyclo_field(4).root() + cyclo_field(8).root()
    with pytest.raises(FieldMismatch):
        CycloField(0)


def test_lift_to_bigger_field():
    F4, F8 = cyclo_field(4), cyclo_field(8)
    i = F4.root()
    assert i.lift_to(F8) == F8.root(2)
    a = F4.one() + i
    assert a.lift_to(F8) == F8.one() + F8.root(2)
    with pytest.raises(FieldMismatch):
        F8.root().lift_to(F4)


def elements(field, max_terms=3):
    coeff = st.fractions(
        min_value=-4, max_value=4, max_denominator=3)
    return st.lists(
        st.tuples(coeff, st.integers(0, field.modulus - 1)),
        max_size=max_terms,
    ).map(lambda terms: sum(
        (field.root(k) * field.from_fraction(q) for q, k in terms),
        field.zero()))


@given(st.data())
@settings(max_examples=60)
def test_ring_laws(data):
    F = cyclo_field(data.draw(st.sampled_from([3, 4, 6, 8, 12])))
    a = data.draw(elements(F))
    b = data.draw(elements(F))
    c = data.draw(elements(F))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + F.zero() == a
    assert a * F.one() == a
    assert (a - a).is_zero()


@given(st.data())
@settings(max_examples=60)
def test_inverse_round_trip(data):
    F = cyclo_field(data.draw(st.sampled_from([4, 5, 8, 12])))
    a = data.draw(elements(F))
    if a.is_zero():
        return
    assert (a * a.inv()).is_one()
    assert a.inv().inv() == a
