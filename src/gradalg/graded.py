"""Elements and maps shared by the graded algebra types.

An algebra object supplies: field, ambient, dim, basis_keys(),
degree_of_key(key), multiply_basis_exp(k1, k2) -> (e, key) | None for the
structure constant zeta_M^e, multiply_rows_exp(rows) -> the same constants as
arrays over basis positions, and one().  Twisted group algebras key their basis
by group element id, matrix algebras by (row, col, group element) triples;
everything in this module is generic over the key type.

GradedMap holds monomial maps only, the form of every witness the engine
builds: each basis element goes to q*zeta^k times one basis element, q a
nonzero rational.  Composition and inversion act on that data directly.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import CycloNumber
from .errors import (
    AlgebraMismatch,
    FieldMismatch,
    InvalidWitness,
    NotHomogeneous,
    ZeroElement,
)


def _coerce(field, value):
    if isinstance(value, CycloNumber):
        if value.field.modulus != field.modulus:
            raise FieldMismatch(
                f"coefficient lives in Q(zeta_{value.field.modulus}), "
                f"algebra field is Q(zeta_{field.modulus})")
        return value
    if isinstance(value, (int, Fraction)):
        return field.from_fraction(value)
    raise TypeError(f"cannot use {type(value).__name__} as a coefficient")


class GradedElement:
    """A finite F-linear combination of homogeneous basis elements."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        field = algebra.field
        clean = {}
        for key, value in terms.items():
            c = _coerce(field, value)
            if not c.is_zero():
                clean[key] = c
        self.terms = clean

    # -- queries ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degrees(self):
        """The set of degrees appearing in this element."""
        deg = self.algebra.degree_of_key
        return frozenset(deg(k) for k in self.terms)

    def degree(self):
        degs = self.degrees()
        if not degs:
            raise ZeroElement("the zero element has no degree")
        if len(degs) > 1:
            raise NotHomogeneous(f"element mixes degrees {sorted(degs)}")
        return next(iter(degs))

    # -- arithmetic ------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, GradedElement):
            raise TypeError("expected a graded element")
        if self.algebra != other.algebra:
            raise AlgebraMismatch("elements belong to different algebras")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, self.algebra.field.zero()) + c
        return GradedElement(self.algebra, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        zero = self.algebra.field.zero()
        for key, c in other.terms.items():
            out[key] = out.get(key, zero) - c
        return GradedElement(self.algebra, out)

    def __neg__(self):
        return GradedElement(self.algebra, {k: -c for k, c in self.terms.items()})

    def scaled(self, value):
        c = _coerce(self.algebra.field, value)
        return GradedElement(self.algebra, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloNumber)):
            return self.scaled(other)
        self._check(other)
        A = self.algebra
        zero, root = A.field.zero(), A.field.root
        out = {}
        # each product of basis elements is zeta^e times one basis element, or zero
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                hit = A.multiply_basis_exp(k1, k2)
                if hit is None:
                    continue
                e, key = hit
                out[key] = out.get(key, zero) + c1 * c2 * root(e)
        return GradedElement(A, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CycloNumber)):
            return self.scaled(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        if self.is_zero():
            return "<0>"
        parts = [f"{c!r}*[{k}]" for k, c in sorted(self.terms.items())]
        return "<" + " + ".join(parts) + ">"


class GradedMap:
    """A monomial map between graded algebras: each source basis element
    goes to a nonzero rational multiple of a root of unity times one target
    basis element.  assign maps key -> (coef, target key)."""

    __slots__ = ("source", "target", "assign")

    def __init__(self, source, target, images):
        """The map with one-term GradedElement images."""
        assign = {}
        for key, img in images.items():
            if len(img.terms) != 1:
                raise InvalidWitness(f"image of basis key {key} is not one term")
            (tkey, coef), = img.terms.items()
            assign[key] = (coef, tkey)
        self._set(source, target, assign)

    @classmethod
    def monomial(cls, source, target, assign):
        """The map with assign: key -> (coef, target key)."""
        out = cls.__new__(cls)
        out._set(source, target, assign)
        return out

    def _set(self, source, target, assign):
        field = target.field
        self.source = source
        self.target = target
        self.assign = {}
        for key in source.basis_keys():
            if key not in assign:
                raise AlgebraMismatch(f"no image assigned for basis key {key}")
            coef, tkey = assign[key]
            coef = _coerce(field, coef)
            mono = coef.as_monomial()
            if mono is None or not mono[0]:
                raise InvalidWitness(
                    f"coefficient of basis key {key} is not a nonzero rational "
                    "multiple of a root of unity")
            self.assign[key] = (coef, tkey)

    def image(self, key):
        coef, tkey = self.assign[key]
        return GradedElement(self.target, {tkey: coef})

    @property
    def images(self):
        return {key: self.image(key) for key in self.assign}

    def then(self, nxt):
        """Composition: first self, then nxt."""
        if self.target != nxt.source:
            raise AlgebraMismatch("maps do not compose: target != next source")
        after = nxt.assign
        out = {}
        for key, (coef, tkey) in self.assign.items():
            c, t = after[tkey]
            out[key] = (coef * c, t)
        return GradedMap.monomial(self.source, nxt.target, out)

    def invert(self):
        """Inverse of a map that is a bijection on basis keys."""
        back = {}
        for key, (coef, tkey) in self.assign.items():
            if tkey in back:
                raise ValueError("map is not injective on basis keys")
            back[tkey] = (coef.inv(), key)
        if len(back) != self.target.dim:
            raise ValueError("map is not onto the target basis")
        return GradedMap.monomial(self.target, self.source, back)
