"""Exact arithmetic in cyclotomic fields Q(zeta_M).

Elements carry a monomial fast path (a rational multiple of a single root of
unity) and fall back to coordinate vectors over the power basis modulo the
M-th cyclotomic polynomial. Twisted-group-algebra structure constants are
always monomials, so the vector path is only hit once elements get added.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache

from .errors import DivisionByZero, FieldMismatch, VerificationFailed

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _poly_trim(p):
    i = len(p)
    while i and not p[i - 1]:
        i -= 1
    return p[:i]


def _poly_divmod_exact(num, den):
    """Quotient of integer polynomials known to divide exactly."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % den[-1]:
            raise VerificationFailed("inexact division of integer polynomials")
        q[k] = c // den[-1]
        for i, d in enumerate(den):
            num[k + i] -= q[k] * d
    if any(num):
        raise VerificationFailed("integer polynomial division leaves a remainder")
    return q


@cache
def cyclotomic_polynomial(m):
    """Integer coefficient tuple of the m-th cyclotomic polynomial, low first."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_divmod_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@cache
def cyclo_field(m):
    """The field Q(zeta_m), one object per m."""
    return CycloField(m)


class CycloField:
    """The field Q(zeta_M), zeta_M = exp(2*pi*i/M)."""

    def __init__(self, modulus):
        if modulus < 1:
            raise FieldMismatch("root order must be positive")
        self.modulus = modulus
        phi = cyclotomic_polynomial(modulus)
        self.degree = len(phi) - 1
        # x^k mod Phi_M for all k needed by products of reduced elements
        top = max(self.modulus + self.degree - 1, 2 * self.degree - 1)
        xdeg = tuple(Fraction(-c) for c in phi[:-1])
        pows = [tuple(_ONE if i == k else _ZERO for i in range(self.degree))
                for k in range(self.degree)]
        for k in range(self.degree, top):
            prev = pows[k - 1]
            shifted = (_ZERO,) + prev[:-1]
            lead = prev[-1]
            if lead:
                shifted = tuple(a + lead * b for a, b in zip(shifted, xdeg))
            pows.append(shifted)
        self._xpow = pows
        half = modulus // 2 if modulus % 2 == 0 else modulus
        rays = {}
        for k in range(half):
            vec = pows[k]
            lead_i = next(i for i, c in enumerate(vec) if c)
            lead = vec[lead_i]
            rays[tuple(c / lead for c in vec)] = (k, lead)
        self._rays = rays

    def __eq__(self, other):
        return isinstance(other, CycloField) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("CycloField", self.modulus))

    def __repr__(self):
        return f"CycloField({self.modulus})"

    def zero(self):
        return CycloNumber(self, _ZERO, 0)

    def one(self):
        return CycloNumber(self, _ONE, 0)

    def root(self, k=1):
        """zeta_M ** k."""
        return CycloNumber(self, _ONE, k)

    def from_fraction(self, q):
        return CycloNumber(self, Fraction(q), 0)

    def element(self, coeffs):
        """Element from a length-degree coefficient vector over the power basis."""
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != self.degree:
            raise FieldMismatch(
                f"expected {self.degree} coefficients, got {len(coeffs)}")
        num = CycloNumber.__new__(CycloNumber)
        num.field = self
        num._mono = None
        num._vec = coeffs
        return num._demote()


class CycloNumber:
    """An element of Q(zeta_M); immutable."""

    __slots__ = ("field", "_mono", "_vec")

    def __init__(self, field, q, k):
        self.field = field
        m = field.modulus
        k %= m
        if m % 2 == 0 and k >= m // 2:
            k -= m // 2
            q = -q
        if not q:
            k = 0
        self._mono = (q, k)
        self._vec = None

    def _demote(self):
        # try to collapse a vector back to the monomial form
        vec = self._vec
        lead_i = next((i for i, c in enumerate(vec) if c), None)
        if lead_i is None:
            return CycloNumber(self.field, _ZERO, 0)
        lead = vec[lead_i]
        hit = self.field._rays.get(tuple(c / lead for c in vec))
        if hit is not None:
            k, ray_lead = hit
            return CycloNumber(self.field, lead / ray_lead, k)
        return self

    @property
    def coeffs(self):
        """Coordinates over the power basis 1, zeta, ..., zeta^(degree-1)."""
        if self._vec is not None:
            return self._vec
        q, k = self._mono
        if not q:
            return tuple(_ZERO for _ in range(self.field.degree))
        return tuple(q * c for c in self.field._xpow[k])

    def _check(self, other):
        if isinstance(other, CycloNumber):
            if other.field.modulus != self.field.modulus:
                raise FieldMismatch(
                    f"mixing Q(zeta_{self.field.modulus}) with Q(zeta_{other.field.modulus})")
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNumber(self.field, Fraction(other), 0)
        return None

    def is_zero(self):
        if self._mono is not None:
            return not self._mono[0]
        return not any(self._vec)

    def is_one(self):
        return self._mono is not None and self._mono == (_ONE, 0)

    def as_rational(self):
        """The element as a Fraction if it lies in Q, else None."""
        if self._mono is not None:
            q, k = self._mono
            return q if (k == 0 or not q) else None
        return None

    def as_monomial(self):
        """(q, k) with the element equal to q * zeta_M^k, or None when it is
        no rational multiple of a root of unity."""
        return self._mono

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        if self._mono is not None and other._mono is not None:
            (q1, k1), (q2, k2) = self._mono, other._mono
            if k1 == k2:
                return CycloNumber(self.field, q1 + q2, k1)
            if not q1:
                return other
            if not q2:
                return self
        vec = tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        out = CycloNumber.__new__(CycloNumber)
        out.field = self.field
        out._mono = None
        out._vec = vec
        return out._demote()

    __radd__ = __add__

    def __neg__(self):
        if self._mono is not None:
            q, k = self._mono
            return CycloNumber(self.field, -q, k)
        out = CycloNumber.__new__(CycloNumber)
        out.field = self.field
        out._mono = None
        out._vec = tuple(-c for c in self._vec)
        return out

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        if self._mono is not None and other._mono is not None:
            (q1, k1), (q2, k2) = self._mono, other._mono
            return CycloNumber(self.field, q1 * q2, k1 + k2)
        if self._mono is not None or other._mono is not None:
            mono, vec = (self, other) if self._mono is not None else (other, self)
            q, k = mono._mono
            if not q:
                return self.field.zero()
            xpow = self.field._xpow
            deg = self.field.degree
            acc = [_ZERO] * deg
            for i, c in enumerate(vec.coeffs):
                if c:
                    qc = q * c
                    for j, b in enumerate(xpow[k + i] if k + i >= deg else ()):
                        acc[j] += qc * b
                    if k + i < deg:
                        acc[k + i] += qc
            out = CycloNumber.__new__(CycloNumber)
            out.field = self.field
            out._mono = None
            out._vec = tuple(acc)
            return out._demote()
        deg = self.field.degree
        xpow = self.field._xpow
        a, b = self.coeffs, other.coeffs
        prod = [_ZERO] * (2 * deg - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        prod[i + j] += ca * cb
        acc = list(prod[:deg])
        for k in range(deg, 2 * deg - 1):
            c = prod[k]
            if c:
                for j, bb in enumerate(xpow[k]):
                    acc[j] += c * bb
        out = CycloNumber.__new__(CycloNumber)
        out.field = self.field
        out._mono = None
        out._vec = tuple(acc)
        return out._demote()

    __rmul__ = __mul__

    def inv(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self._mono is not None:
            q, k = self._mono
            return CycloNumber(self.field, 1 / q, -k)
        # extended Euclid against the cyclotomic polynomial
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.field.modulus)]
        r0, r1 = phi, list(self.coeffs)
        s0, s1 = [_ZERO], [_ONE]
        r1 = list(_poly_trim(r1))
        while len(r1) > 1:
            q_poly, rem = _poly_divmod_frac(r0, r1)
            s_new = _poly_sub(s0, _poly_mul(q_poly, s1))
            r0, r1 = r1, list(_poly_trim(rem))
            s0, s1 = s1, s_new
        c = r1[0]
        inv_vec = [x / c for x in s1]
        inv_vec = (inv_vec + [_ZERO] * self.field.degree)[: self.field.degree]
        out = CycloNumber.__new__(CycloNumber)
        out.field = self.field
        out._mono = None
        out._vec = tuple(inv_vec)
        return out._demote()

    def __truediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, e):
        if self._mono is not None:
            q, k = self._mono
            if e < 0:
                if not q:
                    raise DivisionByZero("inverse of zero")
                return CycloNumber(self.field, q ** e, k * e)
            return CycloNumber(self.field, q ** e, k * e)
        base = self if e >= 0 else self.inv()
        e = abs(e)
        acc = self.field.one()
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def __eq__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        if self._mono is not None and other._mono is not None:
            return self._mono == other._mono
        return self.coeffs == other.coeffs

    def __hash__(self):
        if self._mono is not None:
            return hash((self.field.modulus,) + self._mono)
        return hash((self.field.modulus, self.coeffs))

    def lift_to(self, field: CycloField):
        """The same number inside a larger cyclotomic field (modulus multiple)."""
        if field.modulus % self.field.modulus:
            raise FieldMismatch(
                f"cannot lift from Q(zeta_{self.field.modulus}) to Q(zeta_{field.modulus})")
        step = field.modulus // self.field.modulus
        if self._mono is not None:
            q, k = self._mono
            return CycloNumber(field, q, k * step)
        acc = field.zero()
        for i, c in enumerate(self.coeffs):
            if c:
                acc = acc + CycloNumber(field, c, i * step)
        return acc

    def __repr__(self):
        if self._mono is not None:
            q, k = self._mono
            if not q:
                return "0"
            if k == 0:
                return str(q)
            core = f"z{self.field.modulus}^{k}" if k != 1 else f"z{self.field.modulus}"
            if q == 1:
                return core
            if q == -1:
                return f"-{core}"
            return f"{q}*{core}"
        terms = [f"{c}*z^{i}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"


def _poly_mul(a, b):
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [_ZERO] * (n - len(a))
    b = list(b) + [_ZERO] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _poly_divmod_frac(num, den):
    num = list(num)
    den = list(_poly_trim(den))
    if len(num) < len(den):
        return [_ZERO], num
    q = [_ZERO] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1] / den[-1]
        q[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    return q, num
