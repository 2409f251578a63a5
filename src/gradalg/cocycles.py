"""2-cocycles and 2-coboundaries valued in roots of unity (trivial action).

A cocycle is stored in exponent form: an |H| x |H| integer matrix r modulo M
with sigma(x, y) = zeta_M^r(x,y). All equivalence questions over an
algebraically closed field of characteristic zero reduce to linear algebra
over Z/M_w at the working modulus M_w = M*exp(H): if sigma/rho is a
coboundary of some f valued in the field, then f^M is a homomorphism, hence
valued in exp(H)-th roots of unity, so f itself can be taken in mu_{M_w}.

The linear systems live in edge coordinates (see _Frame): a normalized
cocycle on a group of order n is fixed by its n-1 values at each generator
of a generating set X, so the unknowns number (n-1)*|X|, and the cocycle
space is cut out by one row per Schreier relator of the Cayley graph and
non-identity base point. Full tables are built only for output.

H^2(G, F*) is computed from the kernel of the relator rows over Z/M
(M = |G|), rescaled into Z/(M*exp(G)) where coboundaries are identified,
and the quotient structure is extracted by diagonalization; representatives
are made deterministic by canonical reduction against the identified
subgroup. Equivalence, class order and extension solve for a coboundary in
the edge coordinates of the cocycle's own domain.
"""
from __future__ import annotations

import itertools
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
from .modlin import _BLOCK_ROWS, ModularSolver, RowReducer, howell_reduce, kernel_mod, snf_mod


class ExpCocycle:
    """A 2-cocycle on H in exponent form modulo its modulus.

    The table is read-only, so is_cocycle checks it once per object.
    """

    def __init__(self, domain: Subgroup, modulus, mat):
        self.domain = domain
        self.modulus = int(modulus)
        if self.modulus < 1:
            raise DomainMismatch(f"cocycle modulus {self.modulus} is not positive")
        mat = np.asarray(mat, dtype=np.int64) % self.modulus
        k = domain.order
        if mat.shape != (k, k):
            raise LengthMismatch(
                f"cocycle matrix shape {mat.shape} does not match |H| = {k}")
        mat.setflags(write=False)
        self.mat = mat
        self._valid = None

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

    def exponents(self, field):
        """The values as exponents of the field's root zeta_M, in member order."""
        step, rem = divmod(field.modulus, self.modulus)
        if rem:
            raise DomainMismatch(
                f"field of order-{field.modulus} roots cannot hold modulus-{self.modulus} exponents")
        return self.vec * step

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
    def build():
        mem = H.member_array
        return H.position_array[H.parent.mul_array[mem[:, None], mem[None, :]]]
    return H.parent.cached(("posmul", H.members), build)


def is_cocycle(sig: ExpCocycle) -> bool:
    if sig._valid is None:
        sig._valid = _satisfies_identity(sig)
    return sig._valid


def _satisfies_identity(sig: ExpCocycle) -> bool:
    """The 2-cocycle identity at every triple, O(|H|^3)."""
    mul = _pos_mul(sig.domain)
    r = sig.mat
    # [x, y, z]: r(x, y) + r(xy, z) against r(y, z) + r(x, yz)
    lhs = r[:, :, None] + r[mul]
    rhs = r[None] + r[:, mul]
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
    if not H <= dom:
        raise NotASubgroup("restriction target is not inside the cocycle domain")
    pos = [dom.position(x) for x in H.members]
    return ExpCocycle(H, sig.modulus, sig.mat[np.ix_(pos, pos)])


def conjugate_class(sig: ExpCocycle, xi) -> ExpCocycle:
    """The cocycle on xi H xi^-1 given by r'(xi a xi^-1, xi b xi^-1) = r(a, b)."""
    if not is_cocycle(sig):
        raise NotACocycle("conjugate_class requires a valid cocycle")
    H = sig.domain
    G = H.parent
    xi = int(xi)
    K = G.cached(("conj", H.members, xi), lambda: conjugate_subgroup(H, xi))
    mat = np.zeros_like(sig.mat)
    cpos = K.position_array[G.mul_array[G.mul_array[xi, H.member_array], G.inv_array[xi]]]
    mat[cpos[:, None], cpos[None, :]] = sig.mat
    return ExpCocycle(K, sig.modulus, mat)


# ---------------------------------------------------------------------------
# edge coordinates


def _bfs(table, gens):
    """Breadth-first tree of the right Cayley graph of gens from e: the visit
    order and, per reached h, its parent q and letter i with h = q * gens[i]."""
    n = len(table)
    parent = [-1] * n
    letter = [-1] * n
    order = [0]
    parent[0] = 0
    for q in order:
        row = table[q]
        for i, x in enumerate(gens):
            h = row[x]
            if parent[h] < 0:
                parent[h], letter[h] = q, i
                order.append(h)
    return order, parent, letter


def _generators(table):
    """Greedy generating set, ascending: each step takes the element whose
    closure with the elements taken so far is largest, the lowest id on ties."""
    n = len(table)
    gens, span = [], [0]
    while len(span) < n:
        inside = set(span)
        best = None
        for g in range(1, n):
            if g not in inside:
                reach = _bfs(table, gens + [g])[0]
                if best is None or len(reach) > len(best[1]):
                    best = (g, reach)
        gens.append(best[0])
        span = best[1]
    return sorted(gens)


class _Frame:
    """Edge coordinates of normalized cocycles on one group table (ids are
    positions, e = 0).

    X is _generators(table) and T the breadth-first tree of the right Cayley
    graph from e, letters in id order. A normalized cocycle is fixed by its
    edge values s(g, x) = sigma(g, x), g != e, x = X[i], at coordinate
    (g - 1)*|X| + i: if hol_g(w) sums s along the path of the word w from g
    (s(e, .) = 0) and w_h is the tree word of h, associativity gives
    sigma(g, h) = hol_g(w_h) - hol_e(w_h). An edge function comes from a
    cocycle exactly when each Schreier relator, one loop per edge outside T,
    has the same holonomy at every base point: the relators generate the
    kernel of F(X) -> G, the loops of the Cayley graph (Schreier's lemma).
    """

    def __init__(self, mul):
        self.mul = mul
        table = mul.tolist()
        n = len(table)
        self.gens = np.array(_generators(table), dtype=np.int64)
        nx = self.gens.size
        self.width = (n - 1) * nx
        order, parent, letter = _bfs(table, self.gens.tolist())
        # tree nodes by depth, so that expansion is one step per level
        depth = [0] * n
        levels = []
        for h in order[1:]:
            depth[h] = depth[parent[h]] + 1
            if depth[h] > len(levels):
                levels.append([])
            levels[-1].append((h, parent[h], letter[h]))
        # per level, the rows (nodes h, parents q, letters i)
        self.levels = [np.array(lev, dtype=np.int64).T for lev in levels]
        # f |-> delta f with f(e) = 0: the edge (g, x) gets f(g) + f(x) - f(gx)
        g = np.repeat(np.arange(1, n), nx)
        x = np.tile(self.gens, n - 1)
        D = np.zeros((g.size, n), dtype=np.int64)
        r = np.arange(g.size)
        np.add.at(D, (r, g), 1)
        np.add.at(D, (r, x), 1)
        np.add.at(D, (r, mul[g, x]), -1)
        self.coboundary = D[:, 1:]

    def edges(self, mat):
        """Edge coordinates of a full normalized table."""
        return mat[1:, self.gens].ravel()

    def expand(self, vecs, modulus):
        """Full tables, shape (rows, n, n), of rows of edge coordinates."""
        vecs = np.atleast_2d(np.asarray(vecs, dtype=np.int64))
        r, n, nx = vecs.shape[0], self.mul.shape[0], self.gens.size
        s = np.zeros((r, n, nx), dtype=np.int64)
        s[:, 1:] = vecs.reshape(r, n - 1, nx)
        hol = np.zeros((r, n, n), dtype=np.int64)
        for hs, qs, ls in self.levels:
            hol[:, :, hs] = hol[:, :, qs] + s[:, self.mul[:, qs], ls]
        return (hol - hol[:, :1, :]) % modulus

    def relator_blocks(self):
        """The relator rows, at most _BLOCK_ROWS at a time: for the loop of
        each edge (q, x) outside T and each base g != e, its holonomy at g
        minus its holonomy at e."""
        n, nx = self.mul.shape[0], self.gens.size
        # the tree word of h as its steps (prefix, letter)
        paths = {0: ()}
        for hs, qs, ls in self.levels:
            for h, q, i in zip(hs.tolist(), qs.tolist(), ls.tolist()):
                paths[h] = paths[q] + ((q, i),)
        loops = []
        for q in range(n):
            for i, x in enumerate(self.gens.tolist()):
                h = int(self.mul[q, x])
                if paths[h][-1:] == ((q, i),):
                    continue
                up, down = paths[q], paths[h]
                k = 0
                while k < min(len(up), len(down)) and up[k] == down[k]:
                    k += 1
                loops.append([(1, p, j) for p, j in up[k:]] + [(1, q, i)]
                             + [(-1, p, j) for p, j in down[k:]])
        if not loops:
            return
        steps = np.zeros((len(loops), max(map(len, loops)), 3), dtype=np.int64)
        for r, loop in enumerate(loops):
            steps[r, :len(loop)] = loop
        rel = np.repeat(np.arange(len(loops)), n - 1)
        base = np.tile(np.arange(1, n), len(loops))
        for lo in range(0, rel.size, _BLOCK_ROWS):
            sgn, pre, let = np.moveaxis(steps[rel[lo:lo + _BLOCK_ROWS]], 2, 0)
            g = base[lo:lo + _BLOCK_ROWS, None]
            rows = np.zeros((g.shape[0], n * nx), dtype=np.int64)
            b = np.arange(g.shape[0])[:, None]
            np.add.at(rows, (b, self.mul[g, pre] * nx + let), sgn)
            np.add.at(rows, (b, pre * nx + let), -sgn)
            yield rows[:, nx:]


def _frame(H: Subgroup) -> _Frame:
    return H.parent.cached(("frame", H.members), lambda: _Frame(_pos_mul(H)))


def _cob_solver(H: Subgroup, m_w) -> ModularSolver:
    return H.parent.cached(("cobsolver", H.members, m_w),
                           lambda: ModularSolver(_frame(H).coboundary, m_w))


def cocycle_kernel(G: FiniteGroup, modulus):
    """Howell basis of the normalized cocycle space of G over Z/modulus, in
    the edge coordinates of G's frame."""
    def build():
        fr = _frame(G.full_subgroup())
        red = RowReducer(modulus, fr.width)
        for rows in fr.relator_blocks():
            red.add_matrix(rows % modulus)
        basis = red.basis()
        # kernel_mod's rows are already the reduced Howell basis of the kernel
        return kernel_mod(basis, modulus) if basis.shape[0] else np.eye(fr.width, dtype=np.int64)
    return G.cached(("cockernel", modulus), build)


def classes_equivalent(sig: ExpCocycle, rho: ExpCocycle, working_modulus=None):
    """Some(f) with coboundary_from(f) equal to sig - rho at the working
    modulus (both lifted there), else None.

    Moduli are harmonized to their lcm before lifting; the default working
    modulus lcm * exp(H) decides equivalence over any algebraically closed
    field of characteristic zero. Both cocycles are normalized, hence fixed
    by their edge values, so the system is solved in edge coordinates.
    """
    if sig.domain != rho.domain:
        raise DomainMismatch("cocycles live on different subgroups")
    H = sig.domain
    base = lcm(sig.modulus, rho.modulus)
    m_w = int(working_modulus) if working_modulus is not None else base * H.exponent
    if m_w < 1 or m_w % sig.modulus or m_w % rho.modulus:
        raise DomainMismatch("working modulus must be a positive multiple of both moduli")
    e1 = m_w // sig.modulus
    e2 = m_w // rho.modulus
    sn, f1 = normalize(sig)
    rn, f2 = normalize(rho)
    if H.order == 1:
        return ExpFunction(H, m_w, np.zeros(1, dtype=np.int64))
    fr = _frame(H)
    target = (e1 * fr.edges(sn.mat) - e2 * fr.edges(rn.mat)) % m_w
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
    base = _frame(H).edges(sn.mat)
    solver = _cob_solver(H, m_w)
    for k in range(1, H.order + 1):
        if solver.solve((k * e1 * base) % m_w) is not None:
            if H.order % k:
                raise VerificationFailed(f"class order {k} does not divide |H| = {H.order}")
            return k
    raise VerificationFailed(f"no class order up to |H| = {H.order}")


def _extend_solver(G: FiniteGroup, H: Subgroup, m_w) -> ModularSolver:
    """Solver of S c = edge_H(sigma): S holds G's kernel rows expanded at H's
    edges.  No coboundary columns of H are needed: G's kernel holds every
    coboundary of G, and restriction maps those onto H's coboundaries."""
    def build():
        K = cocycle_kernel(G, m_w)
        fr = _frame(H)
        mem = np.array(H.members, dtype=np.int64)
        tables = _frame(G.full_subgroup()).expand(K, m_w)
        S = tables[:, mem[1:, None], mem[fr.gens][None, :]].reshape(K.shape[0], fr.width)
        return ModularSolver(S.T, m_w)
    return G.cached(("extsolver", H.members, m_w), build)


def extend_class(sig: ExpCocycle, G: FiniteGroup):
    """A cocycle on all of G whose restriction to H is equivalent to sig.

    Solved as one linear system at modulus M*exp(G) in H's edge
    coordinates, with unknown coefficients over the cocycle space of G.
    That space holds G's coboundaries, whose restrictions are all of H's,
    so the system needs no coboundary unknowns. Returns None when no class
    of G restricts to the class of sig. That happens even for H central: the sign class on the
    Klein four subgroup {0, 2, 4, 6} of C2 x C4 does not extend. Its
    alternating form is -1 on a pair (u, w^2) with w in G, while the form of
    a restricted class gives beta(u, w^2) = beta(u, w)^2 = 1.
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
    sol = solver.solve((e1 * _frame(H).edges(sn.mat)) % m_w)
    if sol is None:
        return None
    K = cocycle_kernel(G, m_w)
    vec = (sol @ K) % m_w
    return ExpCocycle(full, m_w, _frame(full).expand(vec, m_w)[0])


def h2_over_Fstar(G: FiniteGroup, order_cap=None) -> H2Description:
    """H^2(G, F*) for F algebraically closed of characteristic zero.

    Returns invariant factors (ascending divisibility, 1s dropped), one
    deterministic representative cocycle per factor at base modulus |G|,
    and the group order.
    """
    if order_cap is not None and G.order > order_cap:
        raise OrderCapExceeded(f"group order {G.order} exceeds cap {order_cap}")

    def build():
        M = G.order
        if M == 1:
            return H2Description(G, 1, 1, (), (), 1)
        e = G.exponent
        N = M * e
        full = G.full_subgroup()
        fr = _frame(full)
        KM = cocycle_kernel(G, M)
        GE = (e * KM) % N
        k = GE.shape[0]
        sysmat = np.concatenate([GE.T, (-fr.coboundary) % N], axis=1)
        # kernel_mod's rows are a reduced Howell basis; cut to the first k
        # coordinates, the nonzero ones are a reduced Howell basis of the
        # relations, so they need no second reduction
        rel = kernel_mod(sysmat, N)[:, :k]
        rel = rel[rel.any(axis=1)]
        snf = snf_mod(rel, N, want_v=True)
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
            reps.append(ExpCocycle(full, M, fr.expand(vec // e, M)[0]))
        return H2Description(G, M, N, tuple(factors), tuple(reps), order)
    return G.cached("h2desc", build)


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
