"""Graded embedding and isomorphism decisions with explicit witnesses.

Every yes answer comes with a concrete graded map that is re-verified on
the full basis before the report is returned, so a wrong criterion cannot
produce a silently wrong yes.  No answers carry structured reasons.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .cocycles import ExpCocycle, classes_equivalent, conjugate_class, extend_class, restrict
from .cyclo import cyclo_field
from .errors import (
    ChainNotCentral,
    DomainMismatch,
    ExtensionFailed,
    HypothesisViolated,
    NotASubgroup,
    ValidationError,
    VerificationFailed,
)
from .graded import GradedMap
from .groups import Subgroup, is_central_in, rehome, same_subgroup
from .matalg import (
    GradedMatrixAlgebra,
    LambdaWitness,
    regrade_iso,
    slot_matchings,
)
from .modlin import _BLOCK_ROWS
from .twisted import TwistedGroupAlgebra


# -- reports and witnesses ---------------------------------------------------


@dataclass(frozen=True)
class DecisionReport:
    """Outcome of an embedding or isomorphism decision.

    verdict True always comes with a witness whose map was verified on the
    whole basis (verified flag); reasons explain a no, notes carry warnings
    and conventions that do not affect the verdict.
    """

    verdict: bool
    witness: object = None
    reasons: tuple = ()
    notes: tuple = ()
    assignment: tuple = None
    verified: bool = False


@dataclass(frozen=True)
class TgaEmbedWitness:
    """Scalar twist f realizing F^s1[H1] -> F^s2[H2], eta_x -> f(x) eta_x."""

    f: object
    source: TwistedGroupAlgebra
    target: TwistedGroupAlgebra
    map: GradedMap


@dataclass(frozen=True)
class MatrixEmbedWitness:
    """Corner embedding data for graded matrix algebras.

    The target is regraded by (delta, alpha, xis) so its first k1 slots
    carry the source degree tuple, then the source maps into the corner
    with the scalar twist recorded in tga.  map is the composite into the
    original target.
    """

    tga: TgaEmbedWitness
    delta: int
    alpha: tuple
    xis: tuple
    source: GradedMatrixAlgebra
    target: GradedMatrixAlgebra
    map: GradedMap


@dataclass(frozen=True)
class SquareReport:
    top: DecisionReport
    left: DecisionReport
    right: DecisionReport
    bottom: DecisionReport
    commutes: bool


@dataclass(frozen=True)
class TowerReport:
    subgroups: tuple
    cocycles: tuple
    steps: tuple
    squares: tuple


# -- ambient alignment -------------------------------------------------------


def _align_ambient(A, B):
    """B rebased onto A's ambient group object; AmbientMismatch if the
    grading groups differ structurally."""
    if B.ambient is A.ambient:
        return B
    base = B.base if isinstance(B, GradedMatrixAlgebra) else B
    H = rehome(base.subgroup, A.ambient)
    out = TwistedGroupAlgebra(H, ExpCocycle(H, base.sigma.modulus, base.sigma.mat), base.field)
    return out if base is B else GradedMatrixAlgebra(out, B.theta)


# -- verification ------------------------------------------------------------


def verify_graded_monomorphism(gmap, A, B):
    """Check that the monomial map gmap is an injective graded algebra map
    from A to B.

    Degree preservation reads B's stored degree data, and injectivity means
    distinct targets.  Multiplicativity is checked on every basis pair in
    exponent form against both algebras' structure-constant grids.  Returns
    a bool and never raises on a bad map.
    """
    if gmap.source != A or gmap.target != B:
        return False
    if A.field.modulus != B.field.modulus:
        return False
    keys = A.basis_keys()
    assign = [gmap.assign[key] for key in keys]
    bpos = {bk: i for i, bk in enumerate(B.basis_keys())}
    for key, (_, bk) in zip(keys, assign):
        if bk not in bpos or B.degree_of_key(bk) != A.degree_of_key(key):
            return False
    mono = _monomial_form(assign, bpos, A.field.modulus)
    targets = mono[0]
    return (len(set(targets.tolist())) == targets.size
            and _exp_products_agree(A, B, *mono))


def _monomial_form(assign, bpos, M):
    """The map e_a -> c_a e_t(a), given as (c_a, t(a)) pairs in A's basis
    order, as (targets, s, mags, mag_of): B positions t, exponents s with
    c_a = |q| zeta_2M^s, the distinct magnitudes |q| and each image's index
    among them, a magnitude as (numerator, denominator).

    c = q zeta_M^k is |q| zeta_2M^(2k + M [q < 0]); the form is unique,
    because a positive rational that is a root of unity is 1."""
    targets, s, mag_of, mags = [], [], [], {}
    for c, bk in assign:
        q, k = c.as_monomial()
        targets.append(bpos[bk])
        s.append(2 * k + (M if q.numerator < 0 else 0))
        mag_of.append(mags.setdefault((abs(q.numerator), q.denominator), len(mags)))
    return np.array(targets), np.array(s), list(mags), np.array(mag_of)


def _exp_products_agree(A, B, targets, s, mags, mag_of):
    """Multiplicativity of the monomial map e_a -> |q_a| zeta_2M^s_a e_t(a)
    on every pair of A's basis positions, _BLOCK_ROWS source rows at a time.

    Where A has e_a e_b = zeta_M^e e_out and B has e_t(a) e_t(b) =
    zeta_M^f e_u, the map respects the product exactly when u = t(out),
    s_a + s_b + 2f = s_out + 2e (mod 2M) and |q_a| |q_b| = |q_out|; where
    one side is zero the other must be too."""
    two_m = 2 * A.field.modulus
    index = {m: n for n, m in enumerate(mags)}
    n = targets.size
    for lo in range(0, n, _BLOCK_ROWS):
        rows = np.arange(lo, min(lo + _BLOCK_ROWS, n))
        exp_a, out = A.multiply_rows_exp(rows)
        exp_b, hit = B.multiply_rows_exp(targets[rows])
        exp_b, hit = exp_b[:, targets], hit[:, targets]
        zero = out < 0
        if not np.array_equal(zero, hit < 0):
            return False
        r, c = np.nonzero(~zero)
        o = out[r, c]
        if not np.array_equal(hit[r, c], targets[o]):
            return False
        a = rows[r]
        if ((s[a] + s[c] + 2 * exp_b[r, c] - s[o] - 2 * exp_a[r, c]) % two_m).any():
            return False
        row_mags = sorted(set(mag_of[rows].tolist()))
        table = np.array([[index.get(_times(mags[x], m), -1) for m in mags] for x in row_mags])
        if not np.array_equal(table[np.searchsorted(row_mags, mag_of[a]), mag_of[c]], mag_of[o]):
            return False
    return True


def _times(x, y):
    """Product of two magnitudes in lowest terms."""
    p = Fraction(x[0] * y[0], x[1] * y[1])
    return p.numerator, p.denominator


def verify_graded_isomorphism(gmap, A, B):
    return A.dim == B.dim and verify_graded_monomorphism(gmap, A, B)


def _verified(witness, check):
    """The yes report for a constructed witness that passes check.

    A failure is an engine fault, never a no: it raises VerificationFailed,
    an explicit check that python -O keeps."""
    if not check(witness.map, witness.source, witness.target):
        raise VerificationFailed(
            f"constructed {type(witness).__name__} failed verification")
    return DecisionReport(True, witness=witness, verified=True)


# -- twisted group algebra decisions ----------------------------------------


def _tga_witness(B1, B2, f, field=None):
    if field is None:
        field = cyclo_field(lcm(B1.field.modulus, B2.field.modulus, f.modulus))
    S = B1.with_field(field)
    T = B2.with_field(field)
    assign = {x: (f.value(field, x), x) for x in S.basis_keys()}
    return TgaEmbedWitness(f=f, source=S, target=T,
                           map=GradedMap.monomial(S, T, assign))


def twisted_embed(B1, B2, field=None):
    """Decide F^s1[H1] -> F^s2[H2] as graded algebras over one ambient group.

    Yes exactly when H1 <= H2 and the class of s1 equals the class of s2
    restricted to H1; the witness rescales each basis element.
    """
    B2 = _align_ambient(B1, B2)
    if not set(B1.subgroup.members) <= set(B2.subgroup.members):
        return DecisionReport(False, reasons=("subgroup containment",))
    f = classes_equivalent(B1.sigma, restrict(B2.sigma, B1.subgroup))
    if f is None:
        return DecisionReport(False, reasons=("class mismatch",))
    return _verified(_tga_witness(B1, B2, f, field), verify_graded_monomorphism)


def twisted_iso(B1, B2, field=None):
    """Graded isomorphism of twisted group algebras: same support subgroup
    and equivalent cocycle classes."""
    B2 = _align_ambient(B1, B2)
    if B1.subgroup.members != B2.subgroup.members:
        return DecisionReport(False, reasons=("subgroup containment",))
    f = classes_equivalent(B1.sigma, B2.sigma)
    if f is None:
        return DecisionReport(False, reasons=("class mismatch",))
    return _verified(_tga_witness(B1, B2, f, field), verify_graded_isomorphism)


# -- graded matrix algebra decisions ----------------------------------------


def _require_normalizing(*algebras):
    for A in algebras:
        if not A.theta_in_normalizer:
            raise HypothesisViolated(
                "degree tuple entries must normalize the support subgroup")


def _matrix_witness(A1, A2, delta, matching, shifts, f, field, want_iso):
    """Assemble and verify the witness for a successful (delta, alpha, f)."""
    k1, k2 = A1.k, A2.k
    if field is None:
        field = cyclo_field(lcm(A1.field.modulus, A2.field.modulus, f.modulus))
    A1F = A1.with_field(field)
    A2F = A2.with_field(field)
    used = set(matching)
    spare = [i for i in range(k2) if i not in used]
    lam = LambdaWitness(
        delta=delta,
        alpha=tuple([m + 1 for m in matching] + [i + 1 for i in spare]),
        xis=tuple([shifts[j][matching[j]] for j in range(k1)] + [0] * (k2 - k1)))
    regraded, psi = regrade_iso(A2F, lam)
    # the first k1 regraded slots now carry A1's degree tuple, so the
    # scalar-twisted corner map is degree preserving
    corner = GradedMap.monomial(
        A1F, regraded,
        {key: (f.value(field, key.zeta), key) for key in A1F.basis_keys()})
    tga = _tga_witness(A1F.base, regraded.base, f, field)
    witness = MatrixEmbedWitness(
        tga=tga,
        delta=delta,
        alpha=tuple(m + 1 for m in matching),
        xis=tuple(shifts[j][matching[j]] for j in range(k1)),
        source=A1F,
        target=A2F,
        map=corner.then(psi.invert()))
    return _verified(witness, verify_graded_isomorphism if want_iso
                     else verify_graded_monomorphism)


def _matrix_decide(A1, A2, field, want_iso):
    A2 = _align_ambient(A1, A2)
    _require_normalizing(A1, A2)
    if want_iso and A1.k != A2.k:
        return DecisionReport(False, reasons=("size",))
    if A1.k > A2.k:
        return DecisionReport(False, reasons=("size",))
    H1, H2 = A1.subgroup, A2.subgroup
    if want_iso:
        if H1.members != H2.members:
            return DecisionReport(False, reasons=("subgroup containment",))
    elif not set(H1.members) <= set(H2.members):
        return DecisionReport(False, reasons=("subgroup containment",))
    matched_any = False
    for delta, matching, shifts in slot_matchings(H2, A1.theta, A2.theta):
        matched_any = True
        rho = conjugate_class(A2.sigma, delta)
        f = classes_equivalent(A1.sigma, restrict(rho, H1))
        if f is None:
            continue
        return _matrix_witness(A1, A2, delta, matching, shifts, f, field, want_iso)
    reason = "class mismatch" if matched_any else "tuple matching"
    return DecisionReport(False, reasons=(reason,))


def matrix_embed(A1, A2, field=None):
    """Decide M_k1(F^s1[H1]) -> M_k2(F^s2[H2]) as graded algebras.

    Scans normalizer coset shifts delta; within one, source slots must
    match injectively onto target slots (theta1_j theta2_i^-1 in delta H2)
    and the source class must agree with the delta-conjugated target class
    on H1.  Both theta tuples must normalize their support subgroups.
    """
    return _matrix_decide(A1, A2, field, want_iso=False)


def matrix_iso(A1, A2, field=None):
    """Graded isomorphism of graded matrix algebras: equal size, equal
    support subgroup, full slot matching, conjugated class equality."""
    return _matrix_decide(A1, A2, field, want_iso=True)


# -- semisimple products -----------------------------------------------------


def as_matrix_algebra(x):
    """Coerce a twisted group algebra to the 1x1 graded matrix algebra."""
    if isinstance(x, GradedMatrixAlgebra):
        return x
    if isinstance(x, TwistedGroupAlgebra):
        return GradedMatrixAlgebra(x, (0,))
    raise TypeError(f"not a graded algebra: {type(x).__name__}")


def product_embed(sources, targets):
    """Decide a product of graded simple algebras into another product.

    Assignment convention: source component j (1-based) is assigned the
    least index i_j such that it embeds into target i_j; the verdict is yes
    when every source component gets a target.  A violation of the pairwise
    non-embedding hypothesis among the sources is reported as a note, not a
    failure.
    """
    Bs = [as_matrix_algebra(b) for b in sources]
    As = [as_matrix_algebra(a) for a in targets]
    if not Bs or not As:
        raise ValidationError("product decision needs at least one component per side")
    Bs = [_align_ambient(Bs[0], b) for b in Bs]
    As = [_align_ambient(Bs[0], a) for a in As]
    notes = []
    for i in range(len(Bs)):
        for j in range(len(Bs)):
            if i != j and matrix_embed(Bs[i], Bs[j]).verdict:
                notes.append(
                    f"hypothesis: source component {i + 1} embeds into "
                    f"source component {j + 1}")
    assignment = []
    witnesses = []
    reasons = []
    for j, B in enumerate(Bs):
        hit = None
        for i, A in enumerate(As):
            rep = matrix_embed(B, A)
            if rep.verdict:
                hit = (i + 1, rep.witness)
                break
        if hit is None:
            reasons.append(f"component {j + 1} embeds into no target")
        else:
            assignment.append(hit[0])
            witnesses.append(hit[1])
    if reasons:
        return DecisionReport(False, reasons=tuple(reasons), notes=tuple(notes))
    notes.append("assignment: least target index per source component")
    return DecisionReport(True, witness=tuple(witnesses), notes=tuple(notes),
                          assignment=tuple(assignment), verified=True)


# -- towers of central extensions --------------------------------------------


def _extend_within(sigma, H_next):
    """Extend a class from its domain to the bigger subgroup H_next.

    The domain is re-coordinatized as a subgroup of H_next.as_group(), the
    extension is solved there, and the result is carried back verbatim
    (member order is preserved by the position map)."""
    H_low = sigma.domain
    G_next = H_next.as_group()
    positions = tuple(H_next.position(m) for m in H_low.members)
    inner = ExpCocycle(Subgroup(G_next, positions, _validated=True),
                       sigma.modulus, sigma.mat)
    ext = extend_class(inner, G_next)
    if ext is None:
        raise ExtensionFailed("step cocycle does not extend to the larger subgroup")
    return ExpCocycle(H_next, ext.modulus, ext.mat)


def _corner_square(B1, B2, k, t):
    """The commuting square of corner embeddings M_k -> M_t over B1 -> B2.

    All four witnesses are built over one shared field so the two composite
    maps can be compared exactly on every basis element."""
    TL = GradedMatrixAlgebra(B1, (0,) * k)
    TR = GradedMatrixAlgebra(B2, (0,) * k)
    BL = GradedMatrixAlgebra(B1, (0,) * t)
    BR = GradedMatrixAlgebra(B2, (0,) * t)
    M1, M2 = B1.sigma.modulus, B2.sigma.modulus
    F = cyclo_field(lcm(
        B1.field.modulus, B2.field.modulus,
        lcm(M1, M2) * B1.subgroup.exponent, M2 * B2.subgroup.exponent))
    top = matrix_embed(TL, TR, field=F)
    left = matrix_embed(TL, BL, field=F)
    right = matrix_embed(TR, BR, field=F)
    bottom = matrix_embed(BL, BR, field=F)
    if not all(r.verdict for r in (top, left, right, bottom)):
        raise VerificationFailed("a corner embedding of the square was refused")
    path_over = top.witness.map.then(right.witness.map)
    path_under = left.witness.map.then(bottom.witness.map)
    commutes = path_over.assign == path_under.assign
    return SquareReport(top=top, left=left, right=right, bottom=bottom,
                        commutes=commutes)


def build_tower(B, chain, k=1, t=1):
    """Climb a chain of central subgroups, extending the twist at each step.

    chain starts at B's support subgroup; each member must be central in
    the next.  Every step yields a verified twisted embedding plus the
    corner square of matrix embeddings at sizes (k, t).
    """
    chain = list(chain)
    if not chain:
        raise ValidationError("chain must contain at least one subgroup")
    if not (1 <= k <= t):
        raise ValidationError("matrix sizes must satisfy 1 <= k <= t")
    if not same_subgroup(chain[0], B.subgroup):
        raise DomainMismatch("chain must start at the algebra's support subgroup")
    chain = [rehome(H, B.ambient) for H in chain]
    for idx in range(len(chain) - 1):
        low, high = chain[idx], chain[idx + 1]
        if not set(low.members) <= set(high.members):
            raise NotASubgroup(f"chain step {idx + 1} is not an inclusion")
        if not is_central_in(low, high):
            raise ChainNotCentral(
                f"chain step {idx + 1}: lower subgroup is not central in the next")
    cocycles = [B.sigma]
    algebras = [B]
    steps = []
    squares = []
    for idx in range(len(chain) - 1):
        ext = _extend_within(cocycles[-1], chain[idx + 1])
        nxt = TwistedGroupAlgebra(chain[idx + 1], ext)
        step = twisted_embed(algebras[-1], nxt)
        if not step.verdict:
            raise VerificationFailed(f"chain step {idx + 1}: the extension does not embed")
        steps.append(step)
        squares.append(_corner_square(algebras[-1], nxt, k, t))
        cocycles.append(ext)
        algebras.append(nxt)
    return TowerReport(subgroups=tuple(chain), cocycles=tuple(cocycles),
                       steps=tuple(steps), squares=tuple(squares))
