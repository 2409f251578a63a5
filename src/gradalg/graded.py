"""Elements and maps shared by the graded algebra types.

An algebra object supplies: field, ambient, dim, basis_keys(),
degree_of_key(key), multiply_basis_exp(k1, k2) -> (e, key) | None for the
structure constant zeta_M^e, multiply_rows_exp(rows) -> the same constants as
arrays over basis positions, and one().  Twisted group algebras key their basis
by group element id, matrix algebras by (row, col, group element) triples;
everything in this module is generic over the key type.

Each algebra also gives basis_degrees(), the degree of every basis position
as an int64 array built once, and basis_positions(), the dict key -> basis
position, also built once.

GradedMap holds monomial maps only, the form of every witness the engine
builds: each basis element goes to q*zeta^k times one basis element, q a
nonzero rational.  It keeps that data as arrays over basis positions, so
composition is one gather and inversion one scatter; the images as
GradedElements are a derived view.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

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
    """A monomial map between graded algebras: each source basis element e_a
    goes to c_a e_t(a), with c_a a nonzero rational multiple of a root of
    unity and e_t(a) a target basis element.

    Three arrays over source basis positions, in basis_keys() order, hold
    the map: targets (the target basis position t(a)), exps (s_a with
    c_a = |q_a| zeta_2M^s_a, M the target field's root order, s_a taken
    mod 2M) and mag_of (the index of |q_a| in mags, a tuple of distinct
    positive Fractions).  The form is unique, because a positive rational
    that is a root of unity is 1.  image and images are derived views.
    """

    __slots__ = ("source", "target", "targets", "exps", "mags", "mag_of")

    def __init__(self, source, target, images):
        """The map with one-term GradedElement images, key -> c*e_t.

        InvalidWitness unless every image is one term whose coefficient is
        a nonzero rational multiple of a root of unity and whose key is a
        target basis key; AlgebraMismatch if a basis key has no image.
        """
        field = target.field
        M = field.modulus
        where = target.basis_positions()
        targets, exps, mag_of, mags = [], [], [], {}
        for key in source.basis_keys():
            if key not in images:
                raise AlgebraMismatch(f"no image assigned for basis key {key}")
            img = images[key]
            if len(img.terms) != 1:
                raise InvalidWitness(f"image of basis key {key} is not one term")
            (tkey, coef), = img.terms.items()
            mono = _coerce(field, coef).as_monomial()
            if mono is None or not mono[0]:
                raise InvalidWitness(
                    f"coefficient of basis key {key} is not a nonzero rational "
                    "multiple of a root of unity")
            if tkey not in where:
                raise InvalidWitness(f"image of basis key {key} is not on the target basis")
            q, k = mono
            # q zeta_M^k = |q| zeta_2M^(2k + M [q < 0])
            targets.append(where[tkey])
            exps.append(2 * k + (M if q < 0 else 0))
            mag_of.append(mags.setdefault(abs(Fraction(q)), len(mags)))
        self._set(source, target, np.array(targets, dtype=np.int64),
                  np.array(exps, dtype=np.int64), tuple(mags),
                  np.array(mag_of, dtype=np.int64))

    @classmethod
    def _from_arrays(cls, source, target, targets, exps, mags=(Fraction(1),), mag_of=None):
        """The map given by its arrays, every magnitude 1 when mag_of is None.
        The caller vouches for them: engine maps are checked as a whole by
        verify_graded_monomorphism."""
        out = cls.__new__(cls)
        out._set(source, target, targets, exps, mags,
                 np.zeros_like(targets) if mag_of is None else mag_of)
        return out

    def _set(self, source, target, targets, exps, mags, mag_of):
        self.source = source
        self.target = target
        self.targets = targets
        self.exps = exps % (2 * target.field.modulus)
        self.mags = mags
        self.mag_of = mag_of

    def image(self, key):
        """The image c*e_t of the basis element key as a GradedElement."""
        a = self.source.basis_positions()[key]
        field = self.target.field
        s, q = int(self.exps[a]), self.mags[self.mag_of[a]]
        # an odd s needs an odd M: zeta_2M^s = -zeta_M^((s + M) / 2)
        odd = s % 2
        coef = CycloNumber(field, -q if odd else q, (s + odd * field.modulus) // 2)
        return GradedElement(self.target, {self.target.basis_keys()[self.targets[a]]: coef})

    @property
    def images(self):
        return {key: self.image(key) for key in self.source.basis_keys()}

    def then(self, nxt):
        """Composition: first self, then nxt.  One gather: e_a goes to
        c_a d_t(a) e_u(t(a)) when nxt sends e_t to d_t e_u(t)."""
        if self.target != nxt.source:
            raise AlgebraMismatch("maps do not compose: target != next source")
        _same_field(self.target, nxt.target)
        t = self.targets
        mags, mag_of = _magnitude_products(self.mags, self.mag_of, nxt.mags, nxt.mag_of[t])
        return GradedMap._from_arrays(self.source, nxt.target, nxt.targets[t],
                                      self.exps + nxt.exps[t], mags, mag_of)

    def invert(self):
        """Inverse of a map that is a bijection on basis keys: one scatter,
        e_t(a) -> c_a^-1 e_a."""
        _same_field(self.source, self.target)
        t = self.targets
        n = self.target.dim
        if np.bincount(t, minlength=n).max() > 1:
            raise ValueError("map is not injective on basis keys")
        if t.size != n:
            raise ValueError("map is not onto the target basis")
        back = np.empty_like(t)
        back[t] = np.arange(n)
        return GradedMap._from_arrays(self.target, self.source, back, -self.exps[back],
                                      tuple(1 / m for m in self.mags), self.mag_of[back])


def _same_field(A, B):
    if A.field.modulus != B.field.modulus:
        raise FieldMismatch(
            f"maps over Q(zeta_{A.field.modulus}) and Q(zeta_{B.field.modulus}) do not compose")


def _magnitude_products(mags_a, of_a, mags_b, of_b):
    """The distinct products mags_a[of_a] * mags_b[of_b] and the index of
    each product among them."""
    nb = len(mags_b)
    pair = of_a * nb + of_b
    index = np.zeros(len(mags_a) * nb, dtype=np.int64)
    out = {}
    for p in sorted(set(pair.tolist())):
        index[p] = out.setdefault(mags_a[p // nb] * mags_b[p % nb], len(out))
    return tuple(out), index[pair]
