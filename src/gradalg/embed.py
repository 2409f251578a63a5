"""Graded embedding and isomorphism decisions with explicit witnesses.

Every yes answer comes with a concrete graded map that is re-verified on
the full basis before the report is returned, so a wrong criterion cannot
produce a silently wrong yes.  No answers carry structured reasons.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from .cocycles import classes_equivalent, conjugate_class, extend_class, restrict
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
from .graded import GradedMap, one_ambient
from .groups import is_central_in
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


# -- verification ------------------------------------------------------------


def verify_graded_monomorphism(gmap, A, B):
    """Check that the monomial map gmap is an injective graded algebra map
    from A to B.

    Degree preservation compares the two algebras' degree arrays at the
    map's target positions, and injectivity means distinct target
    positions.  Multiplicativity is checked on every basis pair in exponent
    form against both algebras' structure-constant grids.  Returns a bool
    and never raises on a bad map.
    """
    if gmap.source != A or gmap.target != B:
        return False
    if A.field.modulus != B.field.modulus:
        return False
    targets = gmap.targets
    return (np.array_equal(B.basis_degrees()[targets], A.basis_degrees())
            and np.bincount(targets).max() == 1
            and _exp_products_agree(gmap))


def _exp_products_agree(gmap):
    """Multiplicativity of the monomial map e_a -> |q_a| zeta_2M^s_a e_t(a)
    on every pair of its source's basis positions, _BLOCK_ROWS source rows
    at a time.

    Where A has e_a e_b = zeta_M^e e_out and B has e_t(a) e_t(b) =
    zeta_M^f e_u, the map respects the product exactly when u = t(out),
    s_a + s_b + 2f = s_out + 2e (mod 2M) and |q_a| |q_b| = |q_out|; where
    one side is zero the other must be too."""
    A, B = gmap.source, gmap.target
    targets, s, mags, mag_of = gmap.targets, gmap.exps, gmap.mags, gmap.mag_of
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
        table = np.array([[index.get(mags[x] * m, -1) for m in mags] for x in row_mags])
        if not np.array_equal(table[np.searchsorted(row_mags, mag_of[a]), mag_of[c]], mag_of[o]):
            return False
    return True


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
    # eta_x -> f(x) eta_x, f(x) = zeta_M^e = zeta_2M^(2e)
    targets = T.subgroup.position_array[S.subgroup.member_array]
    return TgaEmbedWitness(f=f, source=S, target=T, map=GradedMap._from_arrays(
        S, T, targets, 2 * f.exponents(field)))


def twisted_embed(B1, B2, field=None):
    """Decide F^s1[H1] -> F^s2[H2] as graded algebras over one ambient group.

    Yes exactly when H1 <= H2 and the class of s1 equals the class of s2
    restricted to H1; the witness rescales each basis element.
    """
    one_ambient(B1, B2)
    if not B1.subgroup <= B2.subgroup:
        return DecisionReport(False, reasons=("subgroup containment",))
    f = classes_equivalent(B1.sigma, restrict(B2.sigma, B1.subgroup))
    if f is None:
        return DecisionReport(False, reasons=("class mismatch",))
    return _verified(_tga_witness(B1, B2, f, field), verify_graded_monomorphism)


def twisted_iso(B1, B2, field=None):
    """Graded isomorphism of twisted group algebras: same support subgroup
    and equivalent cocycle classes."""
    one_ambient(B1, B2)
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
    tga = _tga_witness(A1F.base, regraded.base, f, field)
    # the first k1 regraded slots now carry A1's degree tuple, so the
    # corner map E_ij eta_z -> f(z) E_ij eta_z, the twist of tga in every
    # cell (i, j), is degree preserving
    slot = np.arange(k1)
    cell = (slot[:, None] * k2 + slot[None, :])[:, :, None] * regraded.subgroup.order
    corner = GradedMap._from_arrays(
        A1F, regraded, (cell + tga.map.targets).reshape(-1), np.tile(tga.map.exps, k1 * k1))
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
    one_ambient(A1, A2)
    _require_normalizing(A1, A2)
    if want_iso and A1.k != A2.k:
        return DecisionReport(False, reasons=("size",))
    if A1.k > A2.k:
        return DecisionReport(False, reasons=("size",))
    H1, H2 = A1.subgroup, A2.subgroup
    if want_iso:
        if H1.members != H2.members:
            return DecisionReport(False, reasons=("subgroup containment",))
    elif not H1 <= H2:
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
    one_ambient(*Bs, *As)
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
    commutes = path_over.images == path_under.images
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
    one_ambient(B, *chain)
    if chain[0] != B.subgroup:
        raise DomainMismatch("chain must start at the algebra's support subgroup")
    for idx in range(len(chain) - 1):
        low, high = chain[idx], chain[idx + 1]
        if not low <= high:
            raise NotASubgroup(f"chain step {idx + 1} is not an inclusion")
        if not is_central_in(low, high):
            raise ChainNotCentral(
                f"chain step {idx + 1}: lower subgroup is not central in the next")
    cocycles = [B.sigma]
    algebras = [B]
    steps = []
    squares = []
    for idx in range(len(chain) - 1):
        ext = extend_class(cocycles[-1], chain[idx + 1])
        if ext is None:
            raise ExtensionFailed("step cocycle does not extend to the larger subgroup")
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
