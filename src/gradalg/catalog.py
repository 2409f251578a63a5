"""Named group catalog and the acceptance battery behind the sweep command.

Each criterion function is pure compute returning (passed, detail); the
runner adds wall-clock timing against a published budget.  All randomized
checks use fixed seeds and sorted iteration so the battery's output is
deterministic across runs.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm, prod

from .cocycles import (
    ExpCocycle,
    all_classes,
    class_order,
    classes_equivalent,
    extend_class,
    h2_over_Fstar,
    is_cocycle,
    restrict,
    trivial_cocycle,
)
from .embed import (
    as_matrix_algebra,
    matrix_embed,
    matrix_iso,
    twisted_embed,
    twisted_iso,
    verify_graded_isomorphism,
    verify_graded_monomorphism,
)
from .errors import NotASubgroup, ValidationError
from .groups import Subgroup, enumerate_subgroups, normalizer, parse_spec
from .identities import multilinear_containment
from .matalg import GradedMatrixAlgebra, LambdaWitness, lambda_membership, regrade_iso
from .twisted import TwistedGroupAlgebra

_SEED = 20260814


_CATALOG_SPECS = tuple(f"C{n}" for n in range(1, 17)) + (
    "C2xC2", "C2xC4", "C2xC8", "C4xC4", "C3xC3", "C2xC2xC2", "C2xC2xC4", "S3", "D4", "Q8")


@lru_cache(maxsize=None)
def catalog_groups():
    """The benchmark groups: (name, group, cyclic factor tuple or None).

    Each group is built from its spec; a spec made of cyclic factors only
    names its factor orders."""
    entries = []
    for spec in _CATALOG_SPECS:
        atoms = spec.split("x")
        factors = tuple(int(a[1:]) for a in atoms) if all(a[0] == "C" for a in atoms) else None
        entries.append((spec, parse_spec(spec), factors))
    return tuple(entries)


def catalog_group(name):
    for nm, G, _ in catalog_groups():
        if nm == name:
            return G
    raise ValidationError(f"unknown catalog group {name!r}")


# rows/cols follow member positions (e, a, b, ab); -1 at rows b, ab in
# columns a, ab; this is the standard nondegenerate sign table
_SIGN_TABLE = ((0, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 1), (0, 1, 0, 1))


def klein_sign_cocycle(H: Subgroup) -> ExpCocycle:
    """The order-two cocycle on a Klein four subgroup."""
    if H.order != 4 or any(H.parent.mul(m, m) != 0 for m in H.members):
        raise ValidationError("need a Klein four subgroup (four elements of order <= 2)")
    return ExpCocycle(H, 2, [list(row) for row in _SIGN_TABLE])


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    runtime: float
    budget: float
    detail: str = ""

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} {tag}  {self.name}"


def _crit_abelian_h2():
    checked = 0
    bad = []
    for name, G, factors in catalog_groups():
        if factors is None:
            continue
        want = prod(gcd(a, b) for a, b in itertools.combinations(factors, 2))
        got = h2_over_Fstar(G).order
        checked += 1
        if got != want:
            bad.append(f"{name}: computed {got}, gcd product {want}")
    if bad:
        return False, "; ".join(bad)
    return True, f"{checked} abelian groups match the pairwise gcd product"


def _crit_nonabelian_h2():
    expected = (("S3", 1), ("Q8", 1), ("D4", 2))
    bad = []
    for name, want in expected:
        got = h2_over_Fstar(catalog_group(name)).order
        if got != want:
            bad.append(f"{name}: computed {got}, literature value {want}")
    if bad:
        return False, "; ".join(bad)
    return True, "S3 -> 1, Q8 -> 1, D4 -> 2"


def _crit_sign_table():
    G = catalog_group("C2xC2")
    H = G.full_subgroup()
    sig = klein_sign_cocycle(H)
    problems = []
    if not is_cocycle(sig):
        problems.append("table fails the cocycle identity")
    order = class_order(sig)
    if order != 2:
        problems.append(f"class order {order} != 2")
    if classes_equivalent(sig, trivial_cocycle(H, 2)) is not None:
        problems.append("table is a coboundary")
    axis = Subgroup(G, (0, 1))
    res = restrict(sig, axis)
    if res.mat.any():
        problems.append("restriction to the first axis is not the zero table")
    if problems:
        return False, "; ".join(problems)
    return True, "order-two table; trivial on the two-element axis subgroup"


def _mixed_radix(G, factors):
    """Coordinates of the elements of G = C_{n_1} x ... x C_{n_k} in the
    mixed-radix numbering of groups.product, checked against the table."""
    coords = []
    for x in range(G.order):
        c = []
        for n in reversed(factors):
            x, digit = divmod(x, n)
            c.append(digit)
        coords.append(tuple(reversed(c)))
    for x in range(G.order):
        for y in range(G.order):
            s = tuple((a + b) % n for a, b, n in zip(coords[x], coords[y], factors))
            if coords[G.mul(x, y)] != s:
                raise ValidationError(f"factors {factors} do not match the group table")
    return coords


def _extends_by_forms(sig, factors):
    """Whether the class of sig on H <= G = C_{n_1} x ... x C_{n_k} (factors)
    is the restriction of a class of G.

    Over an algebraically closed field of characteristic 0, a class on a
    finite abelian group is fixed by its alternating form
    beta(x, y) = sigma(x, y) / sigma(y, x), and every alternating
    bicharacter of G is such a form (Schur). A bicharacter of G is fixed by
    its values on the generator pairs, b_ij in mu_gcd(n_i, n_j), so the class
    extends iff beta is the restriction to H of one of these
    prod gcd(n_i, n_j) forms. Forms are compared as exponents of a D-th root
    of unity, from the tables alone.
    """
    H = sig.domain
    coords = _mixed_radix(H.parent, factors)
    D = lcm(sig.modulus, H.parent.exponent)
    pairs = list(itertools.combinations(range(H.order), 2))
    step = D // sig.modulus
    beta = tuple(int(sig.mat[p, q] - sig.mat[q, p]) * step % D for p, q in pairs)
    gens = list(itertools.combinations(range(len(factors)), 2))
    orders = [gcd(factors[i], factors[j]) for i, j in gens]
    for choice in itertools.product(*(range(g) for g in orders)):
        form = []
        for p, q in pairs:
            x, y = coords[H.members[p]], coords[H.members[q]]
            form.append(sum(c * (D // g) * (x[i] * y[j] - x[j] * y[i])
                            for c, g, (i, j) in zip(choice, orders, gens)) % D)
        if tuple(form) == beta:
            return True
    return False


def _check_extension(sig, G, factors):
    """extend_class on one class of a central subgroup H, checked against an
    oracle that shares no code with it: the alternating forms for abelian G
    (factors given), triviality of every class for cyclic H otherwise.

    Returns (extension or None, list of problems)."""
    H = sig.domain
    if factors is not None:
        want = _extends_by_forms(sig, factors)
    elif any(G.element_order(x) == H.order for x in H.members):
        want = True
    else:
        return None, ["non-cyclic central subgroup of a non-abelian group has no oracle"]
    ext = extend_class(sig, G)
    problems = []
    if (ext is not None) != want:
        problems.append("extend_class disagrees with the oracle, which says it "
                        + ("extends" if want else "does not extend"))
    if ext is not None and not (is_cocycle(ext)
                                and classes_equivalent(restrict(ext, H), sig) is not None):
        problems.append("bad round trip")
    return ext, problems


def _crit_extension_sweep():
    extended = 0
    stuck = []
    bad = []
    for name, G, factors in catalog_groups():
        for H in enumerate_subgroups(G):
            if not H.is_central():
                continue
            for idx, sig in enumerate(all_classes(H)):
                tag = f"{name} H={list(H.members)} class {idx}"
                ext, problems = _check_extension(sig, G, factors)
                if problems:
                    bad.append(f"{tag}: " + ", ".join(problems))
                elif ext is None:
                    stuck.append(tag)
                else:
                    extended += 1
    checked = extended + len(stuck) + len(bad)
    if bad:
        return False, (f"{len(bad)} of {checked} central-subgroup classes fail the "
                       "oracle or the round trip: " + "; ".join(bad))
    return True, (f"{extended} of {checked} central-subgroup classes extend and "
                  f"round-trip; {len(stuck)} do not extend, as the alternating-form "
                  "oracle confirms (restriction is not onto): " + "; ".join(stuck))


def _random_matrix_algebra(rng, G, k_max=3):
    subs = enumerate_subgroups(G)
    H = subs[rng.randrange(len(subs))]
    classes = all_classes(H)
    sig = classes[rng.randrange(len(classes))]
    N = normalizer(G, H)
    k = rng.randint(1, k_max)
    theta = tuple(N.members[rng.randrange(N.order)] for _ in range(k))
    return GradedMatrixAlgebra(TwistedGroupAlgebra(H, sig), theta)


def _random_regrading(rng, A, N):
    alpha = list(range(1, A.k + 1))
    rng.shuffle(alpha)
    return LambdaWitness(
        delta=N.members[rng.randrange(N.order)],
        alpha=tuple(alpha),
        xis=tuple(A.subgroup.members[rng.randrange(A.subgroup.order)]
                  for _ in range(A.k)))


def _crit_witness_soundness():
    rng = random.Random(_SEED)
    yes = no = 0
    bad = []

    def check(report, verifier, tag):
        nonlocal yes, no
        if not report.verdict:
            no += 1
            return
        yes += 1
        w = report.witness
        if not verifier(w.map, w.source, w.target):
            bad.append(tag)

    for gname in ("C2xC2", "C4", "C2xC4", "Q8"):
        G = catalog_group(gname)
        algebras = [TwistedGroupAlgebra(H, sig)
                    for H in enumerate_subgroups(G) for sig in all_classes(H)]
        for A in algebras:
            for B in algebras:
                check(twisted_embed(A, B), verify_graded_monomorphism,
                      f"{gname} twisted embed")
                check(twisted_iso(A, B), verify_graded_isomorphism,
                      f"{gname} twisted iso")

    pool = ("C2xC2", "C4", "C2xC4", "Q8", "S3", "D4")
    for i in range(75):
        G = catalog_group(pool[rng.randrange(len(pool))])
        A1 = _random_matrix_algebra(rng, G)
        A2 = _random_matrix_algebra(rng, G)
        check(matrix_embed(A1, A2), verify_graded_monomorphism, f"matrix embed #{i}")
        check(matrix_iso(A1, A2), verify_graded_isomorphism, f"matrix iso #{i}")

    for i in range(50):
        G = catalog_group(pool[rng.randrange(len(pool))])
        A1 = _random_matrix_algebra(rng, G)
        lam = _random_regrading(rng, A1, normalizer(G, A1.subgroup))
        target, _phi = regrade_iso(A1, lam)
        r = matrix_iso(A1, target)
        if not r.verdict:
            bad.append(f"regraded instance #{i} not recognized as isomorphic")
            no += 1
            continue
        yes += 1
        w = r.witness
        if not verify_graded_isomorphism(w.map, w.source, w.target):
            bad.append(f"regraded instance #{i} witness rejected")

    if bad:
        return False, f"{len(bad)} unsound yes-verdicts: " + "; ".join(bad[:8])
    return True, f"{yes} yes-verdicts, all witnesses verified ({no} no-verdicts)"


def _crit_order_two_grid():
    G = catalog_group("C2")
    A = as_matrix_algebra(TwistedGroupAlgebra(G.full_subgroup()))
    B = GradedMatrixAlgebra(TwistedGroupAlgebra(G.trivial_subgroup()), (0, 1))
    C = GradedMatrixAlgebra(TwistedGroupAlgebra(G.full_subgroup()), (0, 0))
    problems = []
    if matrix_embed(A, B).verdict:
        problems.append("group algebra embeds into the size-2 split grading")
    if matrix_embed(B, A).verdict:
        problems.append("size-2 split grading embeds into the group algebra")
    for tag, X in (("group algebra", A), ("split grading", B)):
        r = matrix_embed(X, C)
        if not (r.verdict and r.verified):
            problems.append(f"{tag} does not embed into the doubled group algebra")
    if problems:
        return False, "; ".join(problems)
    return True, "incomparable pair; both embed into 2x2 over the group algebra"


def _crit_regrading_orbit():
    rng = random.Random(_SEED)
    problems = []
    pool = ("C2xC2", "C4", "C2xC4", "Q8", "S3", "D4")
    for i in range(100):
        G = catalog_group(pool[rng.randrange(len(pool))])
        subs = enumerate_subgroups(G)
        H = subs[rng.randrange(len(subs))]
        N = normalizer(G, H)
        k = rng.randint(1, 3)
        theta = tuple(N.members[rng.randrange(N.order)] for _ in range(k))
        A = GradedMatrixAlgebra(TwistedGroupAlgebra(H), theta)
        lam = _random_regrading(rng, A, N)
        tgt = lam.target_tuple(A)
        if lambda_membership(tgt, A) is None:
            problems.append(f"#{i}: constructed orbit member rejected")
            continue
        B = GradedMatrixAlgebra(A.base, tgt)
        if lambda_membership(theta, B) is None:
            problems.append(f"#{i}: orbit relation not symmetric")
        lam2 = _random_regrading(rng, B, N)
        if lambda_membership(lam2.target_tuple(B), A) is None:
            problems.append(f"#{i}: orbit relation does not compose")

    S3 = catalog_group("S3")
    t12 = S3.element_by_label("(12)")
    t13 = S3.element_by_label("(13)")
    t23 = S3.element_by_label("(23)")
    H = Subgroup(S3, (0, t12))
    plain = GradedMatrixAlgebra(TwistedGroupAlgebra(H), (0, 0))
    moved = GradedMatrixAlgebra(TwistedGroupAlgebra(H), (t13, t13))
    if lambda_membership((t13, t13), plain) is not None:
        problems.append("transposition-shifted tuple wrongly accepted")
    if set(plain.support()) != {0, t12} or set(moved.support()) != {0, t23}:
        problems.append("fixture supports are not {e,(12)} and {e,(23)}")
    if problems:
        return False, "; ".join(problems[:8])
    return True, "100 orbit instances coherent; shifted-support fixture rejected"


def _crit_identity_consistency():
    V4 = catalog_group("C2xC2")
    HV = V4.full_subgroup()
    plain = TwistedGroupAlgebra(HV)
    signed = TwistedGroupAlgebra(HV, klein_sign_cocycle(HV))
    axis = TwistedGroupAlgebra(Subgroup(V4, (0, 1)))
    circle = TwistedGroupAlgebra(catalog_group("C4").full_subgroup())
    problems = []
    n_yes = 0
    for bunch in ((plain, signed, axis), (circle,)):
        for A in bunch:
            for B in bunch:
                if not twisted_embed(A, B).verdict:
                    continue
                n_yes += 1
                rep = multilinear_containment(B, A, 3)
                if rep.skipped:
                    problems.append("containment assignments skipped at default budget")
                elif not rep.contained:
                    problems.append(
                        "identities of an embedding codomain fail in its domain")
    if n_yes != 6:
        problems.append(f"{n_yes} embeddable ordered pairs, expected 6")

    for A, B, symmetric_sep, tag in (
            (plain, signed, False, "plain vs signed"),
            (signed, plain, True, "signed vs plain")):
        rep = multilinear_containment(A, B, 2)
        if rep.contained:
            problems.append(f"{tag}: no separating polynomial found")
            continue
        v = next(v for v in rep.verdicts if not v.contained)
        p = v.separating
        if len(v.degs) != 2 or p is None:
            problems.append(f"{tag}: separator is not a degree-2 polynomial")
            continue
        c_id = p.coeffs.get((1, 2))
        c_sw = p.coeffs.get((2, 1))
        if c_id is None or c_sw is None:
            problems.append(f"{tag}: separator is not two-termed")
            continue
        want_zero = c_id - c_sw if symmetric_sep else c_id + c_sw
        if not want_zero.is_zero():
            kind = "anticommutator" if symmetric_sep else "commutator"
            problems.append(f"{tag}: separator is not the {kind} shape")
        if v.witness_value is None or v.witness_value.is_zero():
            problems.append(f"{tag}: separator lacks a nonvanishing substitution")
    if problems:
        return False, "; ".join(problems)
    return True, ("6 embeddable pairs all containment-consistent at degree 3; "
                  "degree-2 sign separators in both directions")


def _crit_counting_bound():
    bad = []
    for name, G, _ in catalog_groups():
        n = G.order
        if h2_over_Fstar(G).order > n ** (n * (n - 1) // 2 + 1):
            bad.append(name)
    if bad:
        return False, "bound violated for " + ", ".join(bad)
    return True, f"bound holds for all {len(catalog_groups())} catalog groups"


def _exhaustive_laws(A, tag, problems):
    basis = [A.basis_element(k) for k in A.basis_keys()]
    G = A.ambient
    one = A.one()
    for a in basis:
        if not (one * a == a and a * one == a):
            problems.append(f"{tag}: unit law fails")
            return
    for a in basis:
        for b in basis:
            ab = a * b
            if not ab.is_zero() and ab.degree() != G.mul(a.degree(), b.degree()):
                problems.append(f"{tag}: grading incompatible with multiplication")
                return
    for a in basis:
        for b in basis:
            for c in basis:
                if not ((a * b) * c == a * (b * c)):
                    problems.append(f"{tag}: associativity fails")
                    return


def _random_laws(rng, A, tag, problems, count=500):
    keys = list(A.basis_keys())
    G = A.ambient
    one = A.one()
    for _ in range(count):
        a, b, c = (A.basis_element(keys[rng.randrange(len(keys))]) for _ in range(3))
        if not ((a * b) * c == a * (b * c)):
            problems.append(f"{tag}: associativity fails")
            return
        if not (one * a == a and a * one == a):
            problems.append(f"{tag}: unit law fails")
            return
        ab = a * b
        if not ab.is_zero() and ab.degree() != G.mul(a.degree(), b.degree()):
            problems.append(f"{tag}: grading incompatible with multiplication")
            return


def _crit_algebra_laws():
    rng = random.Random(_SEED)
    problems = []
    V4 = catalog_group("C2xC2")
    C4 = catalog_group("C4")
    C2 = catalog_group("C2")
    small = (
        ("trivial algebra", TwistedGroupAlgebra(catalog_group("C1").full_subgroup())),
        ("plain V4", TwistedGroupAlgebra(V4.full_subgroup())),
        ("signed V4", TwistedGroupAlgebra(V4.full_subgroup(),
                                          klein_sign_cocycle(V4.full_subgroup()))),
        ("plain C4", TwistedGroupAlgebra(C4.full_subgroup())),
        ("2x2 over signed V4", GradedMatrixAlgebra(
            TwistedGroupAlgebra(V4.full_subgroup(),
                                klein_sign_cocycle(V4.full_subgroup())), (0, 3))),
        ("2x2 over plain C4", GradedMatrixAlgebra(
            TwistedGroupAlgebra(C4.full_subgroup()), (0, 1))),
        ("2x2 split over C2", GradedMatrixAlgebra(
            TwistedGroupAlgebra(C2.trivial_subgroup()), (0, 1))),
    )
    for tag, A in small:
        _exhaustive_laws(A, tag, problems)

    Q8 = catalog_group("Q8")
    D4 = catalog_group("D4")
    C2xC4 = catalog_group("C2xC4")
    big = (
        ("plain Q8", TwistedGroupAlgebra(Q8.full_subgroup())),
        ("plain D4", TwistedGroupAlgebra(D4.full_subgroup())),
        ("3x3 over signed Klein inside C2xC4", GradedMatrixAlgebra(
            TwistedGroupAlgebra(Subgroup(C2xC4, (0, 2, 4, 6)),
                                klein_sign_cocycle(Subgroup(C2xC4, (0, 2, 4, 6)))),
            (0, 2, 5))),
        ("3x3 over plain Q8", GradedMatrixAlgebra(
            TwistedGroupAlgebra(Q8.full_subgroup()), (0, 2, 4))),
    )
    for tag, A in big:
        _random_laws(rng, A, tag, problems)
    if problems:
        return False, "; ".join(problems)
    n_ex = sum(a.dim ** 3 for _, a in small)
    return True, (f"{len(small)} algebras exhaustive ({n_ex} triples), "
                  f"{len(big)} larger algebras at 500 random triples each")


def _crit_support_not_subgroup():
    C4 = catalog_group("C4")
    A = GradedMatrixAlgebra(TwistedGroupAlgebra(C4.trivial_subgroup()), (0, 1))
    supp = sorted(A.support())
    problems = []
    if supp != [0, 1, 3]:
        problems.append(f"support {supp} != [0, 1, 3]")
    try:
        Subgroup(C4, (0, 1, 3))
        problems.append("support is closed under the group law")
    except NotASubgroup:
        pass
    if problems:
        return False, "; ".join(problems)
    return True, "support {0, 1, 3} over C4 is not a subgroup"


_CRITERIA = (
    (1, "abelian cohomology orders match the pairwise gcd product", 30.0,
     _crit_abelian_h2),
    (2, "non-abelian cohomology spot checks (S3, Q8, D4)", 30.0, _crit_nonabelian_h2),
    (3, "order-two sign table on the Klein four-group", 1.0, _crit_sign_table),
    (4, "central-subgroup class extension sweep", 120.0, _crit_extension_sweep),
    (5, "every yes-verdict carries a verified witness", 300.0, _crit_witness_soundness),
    (6, "incomparable 2x2 gradings over C2", 1.0, _crit_order_two_grid),
    (7, "regrading orbit membership and coherence", 60.0, _crit_regrading_orbit),
    (8, "embedding implies identity containment; sign separators", 120.0,
     _crit_identity_consistency),
    (9, "cohomology order bound n^(n(n-1)/2+1)", 30.0, _crit_counting_bound),
    (10, "associativity, unit, and grading laws", 60.0, _crit_algebra_laws),
    (11, "matrix support over C4 is not a subgroup", 1.0, _crit_support_not_subgroup),
)


def criterion_numbers():
    return tuple(num for num, *_ in _CRITERIA)


def run_criterion(number) -> CriterionResult:
    for num, name, budget, fn in _CRITERIA:
        if num == number:
            t0 = time.perf_counter()
            passed, detail = fn()
            return CriterionResult(num, name, passed, time.perf_counter() - t0,
                                   budget, detail)
    raise ValidationError(f"no acceptance criterion numbered {number}")


def run_all(numbers=None):
    """Run the criteria numbered in numbers (all when None), in order; an
    unknown number is refused before any criterion runs."""
    known = set(criterion_numbers())
    wanted = known if numbers is None else set(numbers)
    if wanted - known:
        raise ValidationError(f"no acceptance criteria numbered {sorted(wanted - known)}")
    return [run_criterion(num) for num, *_ in _CRITERIA if num in wanted]
