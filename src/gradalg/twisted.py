"""Twisted group algebras over cyclotomic coefficient fields.

The algebra F^sigma[H] has basis {eta_x : x in H} and multiplication
eta_x eta_y = sigma(x, y) eta_{xy}.  H sits inside an ambient group G and
the basis element eta_x is homogeneous of degree x, so the algebra is
G-graded with support H.  Cocycle values are roots of unity realized
inside an explicit cyclotomic field.
"""

from __future__ import annotations

from .cocycles import _pos_mul, is_cocycle, trivial_cocycle
from .cyclo import cyclo_field
from .errors import (
    DomainMismatch,
    FieldMismatch,
    NotACocycle,
)
from .graded import GradedElement
from .groups import same_subgroup


class TwistedGroupAlgebra:
    """F^sigma[H], graded by the ambient group of H."""

    def __init__(self, subgroup, sigma=None, field=None):
        if sigma is None:
            sigma = trivial_cocycle(subgroup)
        if sigma.domain != subgroup:
            raise DomainMismatch("cocycle is not defined on the given subgroup")
        if not is_cocycle(sigma):
            raise NotACocycle("multiplication table would not be associative")
        if field is None:
            field = cyclo_field(sigma.modulus)
        if field.modulus % sigma.modulus != 0:
            raise FieldMismatch(
                f"field Q(zeta_{field.modulus}) cannot realize cocycle values "
                f"of order dividing {sigma.modulus}")
        self.subgroup = subgroup
        self.sigma = sigma
        self.field = field
        self._member_set = frozenset(subgroup.members)
        self._step = field.modulus // sigma.modulus

    @property
    def ambient(self):
        return self.subgroup.parent

    @property
    def dim(self):
        return self.subgroup.order

    def basis_keys(self):
        return self.subgroup.members

    def degree_of_key(self, key):
        return key

    def basis_degrees(self):
        """The degree of each basis position: the members, as an int64 array."""
        return self.subgroup.member_array

    def basis_positions(self):
        """key -> basis position: the subgroup's member positions."""
        return self.subgroup.positions

    def support(self):
        return self._member_set

    def sigma_value(self, x, y):
        return self.sigma.value(self.field, x, y)

    def multiply_basis_exp(self, x, y):
        """eta_x eta_y = zeta_M^e eta_xy as (e, xy), M the field's root order."""
        return self.sigma.entry(x, y) * self._step, self.ambient.mul(x, y)

    def multiply_rows_exp(self, rows):
        """multiply_basis_exp for the basis positions in rows against every
        basis position, as two (len(rows), dim) arrays: exponents and product
        positions, all in basis_keys() order."""
        return self.sigma.mat[rows] * self._step, _pos_mul(self.subgroup)[rows]

    # -- element constructors ---------------------------------------------

    def zero(self):
        return GradedElement(self, {})

    def one(self):
        e = 0
        return GradedElement(self, {e: self.sigma_value(e, e).inv()})

    def eta(self, x):
        """The basis element of degree x."""
        if x not in self._member_set:
            raise DomainMismatch(f"element {x} is not in the support subgroup")
        return GradedElement(self, {x: self.field.one()})

    basis_element = eta

    def element(self, mapping):
        for key in mapping:
            if key not in self._member_set:
                raise DomainMismatch(f"element {key} is not in the support subgroup")
        return GradedElement(self, mapping)

    # -- structure ----------------------------------------------------------

    def with_field(self, field):
        """The same algebra with coefficients in a larger cyclotomic field."""
        if field.modulus == self.field.modulus:
            return self
        return TwistedGroupAlgebra(self.subgroup, self.sigma, field)

    def __eq__(self, other):
        if not isinstance(other, TwistedGroupAlgebra):
            return NotImplemented
        if self is other:
            return True
        return (same_subgroup(self.subgroup, other.subgroup)
                and self.sigma.modulus == other.sigma.modulus
                and bool((self.sigma.mat == other.sigma.mat).all())
                and self.field.modulus == other.field.modulus)

    __hash__ = None

    def __repr__(self):
        twist = "" if not any(any(row) for row in self.sigma.mat) else "^sigma"
        return (f"F{twist}[{self.ambient.name}:{self.subgroup.members}]"
                f"@Q(zeta_{self.field.modulus})")
