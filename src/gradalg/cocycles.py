"""2-cocycles and 2-coboundaries valued in roots of unity (trivial action).

A cocycle is stored in exponent form: an |H| x |H| integer matrix r modulo M
with sigma(x, y) = zeta_M^r(x,y). All equivalence questions over an
algebraically closed field of characteristic zero reduce to linear algebra
over Z/M_w at the working modulus M_w = M*exp(H): if sigma/rho is a
coboundary of some f valued in the field, then f^M is a homomorphism, hence
valued in exp(H)-th roots of unity, so f itself can be taken in mu_{M_w}.

H^2(G, F*) is computed by solving the cocycle identity over Z/M (M = |G|),
rescaling into Z/(M*exp(G)) where coboundary identification happens, and
extracting the quotient structure by diagonalization; representatives are
made deterministic by canonical reduction against the identified subgroup.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from .errors import (
    DomainMismatch,
    LengthMismatch,
    NotACocycle,
    NotASubgroup,
    OrderCapExceeded,
    VerificationFailed,
)
from .groups import FiniteGroup, Subgroup, conjugate_subgroup
from .modlin import ModularSolver, RowReducer, howell_reduce, kernel_mod, snf_mod


class ExpCocycle:
    """A 2-cocycle on H in exponent form modulo its modulus."""

    def __init__(self, domain: Subgroup, modulus, mat):
        self.domain = domain
        self.modulus = int(modulus)
        mat = np.asarray(mat, dtype=np.int64) % self.modulus
        k = domain.order
        if mat.shape != (k, k):
            raise LengthMismatch(
                f"cocycle matrix shape {mat.shape} does not match |H| = {k}")
        self.mat = mat

    def entry(self, x, y):
        """Exponent r(x, y) for ambient element ids x, y."""
        return int(self.mat[self.domain.position(x), self.domain.position(y)])

    def value(self, field, x, y):
        """sigma(x, y) as an element of the given cyclotomic field."""
        step, rem = divmod(field.modulus, self.modulus)
        if rem:
            raise DomainMismatch(
                f"field of order-{field.modulus} roots cannot hold modulus-{self.modulus} exponents")
        return field.root(self.entry(x, y) * step)

    def scaled(self, k):
        return ExpCocycle(self.domain, self.modulus, (self.mat * int(k)) % self.modulus)

    def lift(self, new_modulus):
        step, rem = divmod(int(new_modulus), self.modulus)
        if rem:
            raise DomainMismatch(
                f"cannot lift modulus {self.modulus} to non-multiple {new_modulus}")
        return ExpCocycle(self.domain, new_modulus, self.mat * step)

    def __eq__(self, other):
        return (
            isinstance(other, ExpCocycle)
            and self.domain == other.domain
            and self.modulus == other.modulus
            and bool((self.mat == other.mat).all())
        )

    def __repr__(self):
        return f"ExpCocycle(|H|={self.domain.order}, M={self.modulus})"


class ExpFunction:
    """A function H -> roots of unity in exponent form: f(x) = zeta_M'^vec[x]."""

    def __init__(self, domain: Subgroup, modulus, vec):
        self.domain = domain
        self.modulus = int(modulus)
        vec = np.asarray(vec, dtype=np.int64) % self.modulus
        if vec.shape != (domain.order,):
            raise LengthMismatch(
                f"function vector length {vec.shape} does not match |H| = {domain.order}")
        self.vec = vec

    def entry(self, x):
        return int(self.vec[self.domain.position(x)])

    def value(self, field, x):
        step, rem = divmod(field.modulus, self.modulus)
        if rem:
            raise DomainMismatch(
                f"field of order-{field.modulus} roots cannot hold modulus-{self.modulus} exponents")
        return field.root(self.entry(x) * step)

    def __repr__(self):
        return f"ExpFunction(|H|={self.domain.order}, M={self.modulus})"


@dataclass(frozen=True)
class H2Description:
    group: FiniteGroup
    base_modulus: int
    working_modulus: int
    invariant_factors: tuple
    representatives: tuple
    order: int


def trivial_cocycle(domain: Subgroup, modulus=None) -> ExpCocycle:
    m = domain.order if modulus is None else int(modulus)
    return ExpCocycle(domain, m, np.zeros((domain.order, domain.order), dtype=np.int64))


def _pos_mul(H: Subgroup):
    # position-indexed multiplication table of the subgroup
    if "posmul" not in H._cache:
        G = H.parent
        H._cache["posmul"] = np.array(
            [[H.position(G.mul(a, b)) for b in H.members] for a in H.members],
            dtype=np.int64,
        )
    return H._cache["posmul"]


def is_cocycle(sig: ExpCocycle) -> bool:
    H = sig.domain
    k = H.order
    mul = _pos_mul(H)
    r = sig.mat
    idx = np.arange(k)
    X, Y, Z = np.meshgrid(idx, idx, idx, indexing="ij")
    lhs = r[X, Y] + r[mul[X, Y], Z]
    rhs = r[Y, Z] + r[X, mul[Y, Z]]
    return not ((lhs - rhs) % sig.modulus).any()


def coboundary_from(f: ExpFunction) -> ExpCocycle:
    H = f.domain
    mul = _pos_mul(H)
    v = f.vec
    mat = (v[:, None] + v[None, :] - v[mul]) % f.modulus
    return ExpCocycle(H, f.modulus, mat)


def normalize(sig: ExpCocycle):
    """Cohomologous cocycle with zero e-row and e-column, plus the adjusting f.

    Subtracts the coboundary of the constant function f = r(e, e); the result
    satisfies sigma'(e, .) = sigma'(., e) = 0.
    """
    if not is_cocycle(sig):
        raise NotACocycle("normalize requires a valid cocycle")
    c = int(sig.mat[0, 0])
    out = ExpCocycle(sig.domain, sig.modulus, sig.mat - c)
    f = ExpFunction(sig.domain, sig.modulus,
                    np.full(sig.domain.order, c, dtype=np.int64))
    return out, f


def restrict(sig: ExpCocycle, H: Subgroup) -> ExpCocycle:
    dom = sig.domain
    if H.parent is not dom.parent:
        raise NotASubgroup("restriction target lives in a different group")
    if not set(H.members) <= set(dom.members):
        raise NotASubgroup("restriction target is not inside the cocycle domain")
    pos = [dom.position(x) for x in H.members]
    return ExpCocycle(H, sig.modulus, sig.mat[np.ix_(pos, pos)])


def conjugate_class(sig: ExpCocycle, xi) -> ExpCocycle:
    """The cocycle on xi H xi^-1 given by r'(xi a xi^-1, xi b xi^-1) = r(a, b)."""
    if not is_cocycle(sig):
        raise NotACocycle("conjugate_class requires a valid cocycle")
    H = sig.domain
    G = H.parent
    K = conjugate_subgroup(H, xi)
    mat = np.zeros_like(sig.mat)
    cpos = [K.position(G.conj(a, xi)) for a in H.members]
    for i, ci in enumerate(cpos):
        for j, cj in enumerate(cpos):
            mat[ci, cj] = sig.mat[i, j]
    return ExpCocycle(K, sig.modulus, mat)


# ---------------------------------------------------------------------------
# linear systems

def _pair_coords(k):
    # flattened index order of normalized coordinate pairs (a, b), a, b != e
    return (k - 1) ** 2


def _coboundary_matrix(H: Subgroup):
    """Matrix of f |-> delta f on normalized coordinates, f supported off e."""
    key = ("cobmat", H.members)
    cache = H.parent._cache
    if key not in cache:
        k = H.order
        mul = _pos_mul(H)
        D = np.zeros(((k - 1) ** 2, k - 1), dtype=np.int64)
        for a in range(1, k):
            for b in range(1, k):
                row = (a - 1) * (k - 1) + (b - 1)
                D[row, a - 1] += 1
                D[row, b - 1] += 1
                ab = mul[a, b]
                if ab:
                    D[row, ab - 1] -= 1
        cache[key] = D
    return cache[key]


def _cob_solver(H: Subgroup, m_w) -> ModularSolver:
    key = ("cobsolver", H.members, m_w)
    cache = H.parent._cache
    if key not in cache:
        cache[key] = ModularSolver(_coboundary_matrix(H), m_w)
    return cache[key]


def cocycle_kernel(G: FiniteGroup, modulus):
    """Howell basis of the normalized cocycle space of G over Z/modulus."""
    key = ("cockernel", modulus)
    if key in G._cache:
        return G._cache[key]
    m = (G.order - 1) ** 2
    # a separate call, so the identities' reducer is freed before the kernel step
    basis = _cocycle_identities(G, modulus)
    kern = kernel_mod(basis, modulus) if basis.shape[0] else np.eye(m, dtype=np.int64)
    kern = howell_reduce(kern, modulus).basis() if kern.shape[0] else kern
    G._cache[key] = kern
    return kern


def _cocycle_identities(G: FiniteGroup, modulus):
    """Howell basis of the cocycle identities of G over Z/modulus, one per
    triple (x, y, z) of non-identity elements, in normalized coordinates."""
    n = G.order
    m = (n - 1) ** 2
    mul = np.asarray(G.mul_table, dtype=np.int64)
    red = RowReducer(modulus, m)
    nz = np.arange(1, n, dtype=np.int64)
    Y, Z = np.meshgrid(nz, nz, indexing="ij")
    Y, Z = Y.ravel(), Z.ravel()
    ridx = np.arange(Y.size)

    def coord(a, b):
        return (a - 1) * (n - 1) + (b - 1)

    yz = mul[Y, Z]
    mask_yz = yz != 0
    for x in range(1, n):
        rows = np.zeros((Y.size, m), dtype=np.int64)
        np.add.at(rows, (ridx, coord(np.full_like(Y, x), Y)), 1)
        xy = mul[x, Y]
        mask = xy != 0
        np.add.at(rows, (ridx[mask], coord(xy[mask], Z[mask])), 1)
        np.add.at(rows, (ridx, coord(Y, Z)), -1)
        np.add.at(rows, (ridx[mask_yz], coord(np.full(mask_yz.sum(), x), yz[mask_yz])), -1)
        red.add_matrix(rows % modulus)
    return red.basis()


def _mat_to_coords(mat):
    return mat[1:, 1:].ravel()


def _coords_to_mat(vec, k):
    mat = np.zeros((k, k), dtype=np.int64)
    mat[1:, 1:] = vec.reshape(k - 1, k - 1)
    return mat


def classes_equivalent(sig: ExpCocycle, rho: ExpCocycle, working_modulus=None):
    """Some(f) with coboundary_from(f) equal to sig - rho at the working
    modulus (both lifted there), else None.

    Moduli are harmonized to their lcm before lifting; the default working
    modulus lcm * exp(H) decides equivalence over any algebraically closed
    field of characteristic zero.
    """
    if sig.domain != rho.domain:
        raise DomainMismatch("cocycles live on different subgroups")
    H = sig.domain
    base = lcm(sig.modulus, rho.modulus)
    m_w = int(working_modulus) if working_modulus else base * H.exponent
    if m_w % sig.modulus or m_w % rho.modulus:
        raise DomainMismatch("working modulus must be a multiple of both moduli")
    e1 = m_w // sig.modulus
    e2 = m_w // rho.modulus
    sn, f1 = normalize(sig)
    rn, f2 = normalize(rho)
    if H.order == 1:
        return ExpFunction(H, m_w, np.zeros(1, dtype=np.int64))
    target = (e1 * _mat_to_coords(sn.mat) - e2 * _mat_to_coords(rn.mat)) % m_w
    F = _cob_solver(H, m_w).solve(target)
    if F is None:
        return None
    vec = np.zeros(H.order, dtype=np.int64)
    vec[1:] = F
    vec = (vec + e1 * f1.vec - e2 * f2.vec) % m_w
    return ExpFunction(H, m_w, vec)


def class_order(sig: ExpCocycle):
    """Least k >= 1 with k*sig trivial over the field; divides |H|."""
    sn, _ = normalize(sig)
    H = sig.domain
    if H.order == 1:
        return 1
    m_w = sig.modulus * H.exponent
    e1 = m_w // sig.modulus
    base = _mat_to_coords(sn.mat)
    solver = _cob_solver(H, m_w)
    for k in range(1, H.order + 1):
        if solver.solve((k * e1 * base) % m_w) is not None:
            if H.order % k:
                raise VerificationFailed(f"class order {k} does not divide |H| = {H.order}")
            return k
    raise VerificationFailed(f"no class order up to |H| = {H.order}")


def _extend_solver(G: FiniteGroup, H: Subgroup, m_w) -> ModularSolver:
    key = ("extsolver", H.members, m_w)
    if key not in G._cache:
        K = cocycle_kernel(G, m_w)
        n = G.order
        mem = np.array(H.members[1:], dtype=np.int64)
        cols = ((mem[:, None] - 1) * (n - 1) + (mem[None, :] - 1)).ravel()
        S = K[:, cols].T
        D = _coboundary_matrix(H)
        A = np.concatenate([S, (-D) % m_w], axis=1)
        G._cache[key] = ModularSolver(A, m_w)
    return G._cache[key]


def extend_class(sig: ExpCocycle, G: FiniteGroup):
    """A cocycle on all of G whose restriction to H is equivalent to sig.

    Solved as one linear system at modulus M*exp(G): unknown coefficients
    over the cocycle space of G plus an unknown coboundary on H. Returns
    None when no class of G restricts to the class of sig. That happens
    even for H central: the sign class on the Klein four subgroup
    {0, 2, 4, 6} of C2 x C4 does not extend. Its alternating form is -1 on
    a pair (u, w^2) with w in G, while the form of a restricted class gives
    beta(u, w^2) = beta(u, w)^2 = 1.
    """
    H = sig.domain
    if H.parent is not G:
        raise NotASubgroup("cocycle domain is not a subgroup of the target group")
    sn, _ = normalize(sig)
    m_w = sig.modulus * G.exponent
    full = G.full_subgroup()
    if H.order == 1 or G.order == 1:
        return trivial_cocycle(full, m_w)
    e1 = m_w // sig.modulus
    solver = _extend_solver(G, H, m_w)
    rhs = (e1 * _mat_to_coords(sn.mat)) % m_w
    sol = solver.solve(rhs)
    if sol is None:
        return None
    # the first unknowns are the coefficients over the cocycle kernel rows
    K = cocycle_kernel(G, m_w)
    vec = (sol[: K.shape[0]] @ K) % m_w
    return ExpCocycle(full, m_w, _coords_to_mat(vec, G.order))


def h2_over_Fstar(G: FiniteGroup, order_cap=None) -> H2Description:
    """H^2(G, F*) for F algebraically closed of characteristic zero.

    Returns invariant factors (ascending divisibility, 1s dropped), one
    deterministic representative cocycle per factor at base modulus |G|,
    and the group order.
    """
    if order_cap is not None and G.order > order_cap:
        raise OrderCapExceeded(f"group order {G.order} exceeds cap {order_cap}")
    if "h2desc" in G._cache:
        return G._cache["h2desc"]
    n = G.order
    M = n
    e = G.exponent
    N = M * e
    full = G.full_subgroup()
    if n == 1:
        desc = H2Description(G, 1, 1, (), (), 1)
        G._cache["h2desc"] = desc
        return desc
    KM = cocycle_kernel(G, M)
    GE = (e * KM) % N
    k = GE.shape[0]
    B = _coboundary_matrix(full).T % N
    sysmat = np.concatenate([GE.T, (-B.T) % N], axis=1)
    rel = kernel_mod(sysmat, N)[:, :k]
    rel_basis = howell_reduce(rel, N).basis() if rel.shape[0] else rel
    if rel_basis.shape[0] == 0:
        rel_basis = np.zeros((0, k), dtype=np.int64)
    snf = snf_mod(rel_basis, N, want_v=True)
    eb = howell_reduce((rel @ GE) % N, N) if rel.shape[0] else RowReducer(N, GE.shape[1])
    factors = []
    reps = []
    order = 1
    for j, d in enumerate(snf.diag):
        if d == 1:
            continue
        if M % d:
            raise VerificationFailed(f"H^2 invariant factor {d} does not divide |G| = {M}")
        factors.append(int(d))
        order *= int(d)
        vec = (snf.Vinv[j] @ GE) % N
        vec = eb.reduce_vector(vec)
        if (vec % e).any():
            raise VerificationFailed(f"H^2 representative is not divisible by exp(G) = {e}")
        reps.append(ExpCocycle(full, M, _coords_to_mat(vec // e, n)))
    desc = H2Description(
        G, M, N, tuple(factors), tuple(reps), order)
    G._cache["h2desc"] = desc
    return desc


def subgroup_class_representatives(H: Subgroup):
    """H^2 class representatives of H as cocycles with domain H.

    Positions in H.as_group() coincide with member positions, so matrices
    carry over verbatim.
    """
    desc = h2_over_Fstar(H.as_group())
    return [ExpCocycle(H, rep.modulus, rep.mat) for rep in desc.representatives]


def all_classes(H: Subgroup):
    """One cocycle per H^2 class of H (the full group, not just generators)."""
    desc = h2_over_Fstar(H.as_group())
    reps = subgroup_class_representatives(H)
    out = []
    seen = set()
    import itertools
    ranges = [range(d) for d in desc.invariant_factors]
    for combo in itertools.product(*ranges):
        mat = np.zeros((H.order, H.order), dtype=np.int64)
        for c, rep in zip(combo, reps):
            mat = (mat + c * rep.mat) % desc.base_modulus
        key = mat.tobytes()
        if key not in seen:
            seen.add(key)
            out.append(ExpCocycle(H, desc.base_modulus, mat))
    return out
