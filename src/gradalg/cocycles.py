"""2-cocycles and 2-coboundaries valued in roots of unity (trivial action).

A cocycle is stored in exponent form: an |H| x |H| integer matrix r modulo M
with sigma(x, y) = zeta_M^r(x,y). All equivalence questions over an
algebraically closed field of characteristic zero reduce to linear algebra
over Z/M_w at the working modulus M_w = M*exp(H): if sigma/rho is a
coboundary of some f valued in the field, then f^M is a homomorphism, hence
valued in exp(H)-th roots of unity, so f itself can be taken in mu_{M_w}.
That modulus is the only one used: any multiple of it gives the same
verdicts, and a smaller one can miss the f that exists.

The linear systems live in edge coordinates (see _Frame): a normalized
cocycle on a group of order n is fixed by its n-1 values at each generator
of a generating set X, so the unknowns number (n-1)*|X|. The cocycle space
is cut out by the rows of a presentation, one per relator and non-identity
base point: the frame keeps a few Schreier loops of the Cayley graph that
deduction proves to generate them all as a normal subgroup (6 of 33 on
C2 x D4, 21 of 321 on C2^6), and one kernel_mod of their rows gives the
cocycle space in reduced Howell form. Full tables are built only for output.

H^2(K, F*) is computed from the kernel of the relator rows over Z/M
(M = |K|), rescaled into Z/(M*exp(K)) where coboundaries are identified,
and the quotient structure is extracted by diagonalization; representatives
are made deterministic by canonical reduction against the identified
subgroup. Equivalence, class order and extension solve for a coboundary in
the edge coordinates of the cocycle's own domain.

Every computation works on a subgroup K in place, on the position table of
its members, and keeps its frame, kernels, solvers and H^2 in K's parent's
store under K's members. The public functions that take a group G run on
G.full_subgroup(); all_classes and extend_class take a subgroup as it is.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import lcm, prod

import numpy as np

from .errors import (
    DomainMismatch,
    LengthMismatch,
    NotACocycle,
    NotASubgroup,
    VerificationFailed,
)
from .groups import FiniteGroup, Subgroup, conjugate_subgroup
from .modlin import ModularSolver, howell_reduce, kernel_mod, snf_mod


class ExpCocycle:
    """A 2-cocycle on H in exponent form modulo its modulus.

    The table is read-only, so is_cocycle checks it once per object, and a
    cocycle derived from a checked one by the operations below is not
    checked again.
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
        out = ExpCocycle(self.domain, self.modulus, (self.mat * int(k)) % self.modulus)
        return _derived(self, out)

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


def _derived(source: ExpCocycle, out: ExpCocycle) -> ExpCocycle:
    """out, marked valid when source is known valid: scaling, restriction,
    conjugation and normalization by a constant preserve the identity. An
    invalid source marks nothing, since its image may be valid."""
    if source._valid:
        out._valid = True
    return out


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
    out = ExpCocycle(H, f.modulus, mat)
    out._valid = True  # every coboundary is a cocycle
    return out


def normalize(sig: ExpCocycle):
    """Cohomologous cocycle with zero e-row and e-column, plus the adjusting f.

    Subtracts the coboundary of the constant function f = r(e, e); the result
    satisfies sigma'(e, .) = sigma'(., e) = 0.
    """
    if not is_cocycle(sig):
        raise NotACocycle("normalize requires a valid cocycle")
    c = int(sig.mat[0, 0])
    out = _derived(sig, ExpCocycle(sig.domain, sig.modulus, sig.mat - c))
    f = ExpFunction(sig.domain, sig.modulus,
                    np.full(sig.domain.order, c, dtype=np.int64))
    return out, f


def restrict(sig: ExpCocycle, H: Subgroup) -> ExpCocycle:
    dom = sig.domain
    if H.parent != dom.parent:
        raise NotASubgroup("restriction target lives in a different group")
    if not H <= dom:
        raise NotASubgroup("restriction target is not inside the cocycle domain")
    pos = [dom.position(x) for x in H.members]
    return _derived(sig, ExpCocycle(H, sig.modulus, sig.mat[np.ix_(pos, pos)]))


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
    return _derived(sig, ExpCocycle(K, sig.modulus, mat))


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
    positions, e = 0), and a presentation that cuts out the cocycles.

    X is _generators(table) and T the breadth-first tree of the right Cayley
    graph from e, letters in id order. A normalized cocycle is fixed by its
    edge values s(g, x) = sigma(g, x), g != e, x = X[i], at coordinate
    (g - 1)*|X| + i: if hol_g(w) sums s along the path of the word w from g
    (s(e, .) = 0) and w_h is the tree word of h, associativity gives
    sigma(g, h) = hol_g(w_h) - hol_e(w_h). An edge function comes from a
    cocycle exactly when every loop of the Cayley graph has the same holonomy
    at every base point. The Schreier loops, one per edge outside T,
    generate the kernel of F(X) -> G (Schreier's lemma), but a set R of them
    that generates it as a normal subgroup is enough: the holonomy of
    w r w^-1 at g is that of r at gw, and holonomies of loops add, so the
    row of every loop lies in the Z-span of the rows of R. The frame keeps
    one such R, proven by deduce.
    """

    def __init__(self, mul):
        self.mul = mul
        self.table = table = mul.tolist()
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

    @cached_property
    def loops(self):
        """The Schreier loop of each edge (q, X[i]) outside T, in edge order,
        as (edge, steps). The edge (g, X[j]) has index g*|X| + j. The loop
        leaves the last vertex that the tree paths to q and to qX[i] share,
        follows the tree to q, takes the edge and follows the tree back; a
        step (sign, p, j) crosses the edge (p, X[j]) forward for sign 1 and
        backward for sign -1."""
        nx = self.gens.size
        # the tree word of h as its steps (prefix, letter)
        paths = {0: ()}
        for hs, qs, ls in self.levels:
            for h, q, i in zip(hs.tolist(), qs.tolist(), ls.tolist()):
                paths[h] = paths[q] + ((q, i),)
        loops = []
        for q, row in enumerate(self.table):
            for i, x in enumerate(self.gens.tolist()):
                up, down = paths[q], paths[row[x]]
                if down[-1:] == ((q, i),):
                    continue
                k = 0
                while k < min(len(up), len(down)) and up[k] == down[k]:
                    k += 1
                loops.append((q * nx + i, [(1, p, j) for p, j in up[k:]] + [(1, q, i)]
                              + [(-1, p, j) for p, j in down[k:]]))
        return loops

    def deduce(self, chosen=None):
        """Indices into loops of a set R of them that generates the kernel of
        F(X) -> G as a normal subgroup, proven by deduction on the Cayley
        graph (the deduction step of coset enumeration; Holt, Eick and
        O'Brien, Handbook of Computational Group Theory, 2005, ch. 5).

        An edge is known once its Schreier loop is proven a consequence of
        R; tree edges, whose loops are trivial, start known. A loop of R read
        from any vertex v is a consequence of R, and conjugated by the tree
        word of v it is the product of the Schreier loops of its edges, so a
        placement of it whose edges include exactly one unknown edge,
        occurring once, makes that edge known. Each
        newly known edge is checked only against the placements that hold
        it. While an edge is unknown and no placement deduces one, the
        shortest loop of an unknown edge joins R, the lowest index on ties.
        Once every edge is known, R generates every Schreier loop, hence the
        kernel. Given chosen, R is those loops and no other joins it. Raises
        VerificationFailed when an edge stays unknown.
        """
        table, nx, loops = self.table, self.gens.size, self.loops
        known = bytearray(len(table) * nx)
        for _, qs, ls in self.levels:
            for q, i in zip(qs.tolist(), ls.tolist()):
                known[q * nx + i] = 1
        left = known.count(0)
        # per placement with unknown edges: its edges and its count of
        # unknown occurrences; per edge: the placements it occurs in
        cells, missing, at = [], [], [[] for _ in known]
        todo = []

        def place(k):
            nonlocal left
            steps = loops[k][1]
            for row in table:
                cell = [row[p] * nx + j for _, p, j in steps]
                unknown = [e for e in cell if not known[e]]
                if unknown:
                    for e in unknown:
                        at[e].append(len(cells))
                    if len(unknown) == 1:
                        todo.append(len(cells))
                    cells.append(cell)
                    missing.append(len(unknown))
            while todo:
                c = todo.pop()
                if missing[c] != 1:
                    continue
                e = next(e for e in cells[c] if not known[e])
                known[e] = 1
                left -= 1
                for d in at[e]:
                    missing[d] -= 1
                    if missing[d] == 1:
                        todo.append(d)

        if chosen is None:
            R = []
            for k in sorted(range(len(loops)), key=lambda k: len(loops[k][1])):
                if not left:
                    break
                if not known[loops[k][0]]:
                    R.append(k)
                    place(k)
        else:
            R = list(chosen)
            for k in R:
                place(k)
        if left:
            raise VerificationFailed(
                f"the relators leave {left} edges of the Cayley graph unproven")
        return R

    @cached_property
    def relators(self):
        """R, chosen by deduce on first use."""
        return self.deduce()

    def relator_rows(self):
        """The |R|*(n-1) rows that cut out the cocycles: for each loop of R
        and each base g != e, its holonomy at g minus its holonomy at e."""
        n, nx = self.mul.shape[0], self.gens.size
        loops = [self.loops[k][1] for k in self.relators]
        if not loops:
            return np.zeros((0, self.width), dtype=np.int64)
        steps = np.zeros((len(loops), max(map(len, loops)), 3), dtype=np.int64)
        for r, loop in enumerate(loops):
            steps[r, :len(loop)] = loop
        sgn, pre, let = np.moveaxis(np.repeat(steps, n - 1, axis=0), 2, 0)
        g = np.tile(np.arange(1, n), len(loops))[:, None]
        b = np.arange(g.shape[0])[:, None]
        rows = np.zeros((g.shape[0], n * nx), dtype=np.int64)
        np.add.at(rows, (b, self.mul[g, pre] * nx + let), sgn)
        np.add.at(rows, (b, pre * nx + let), -sgn)
        return rows[:, nx:]


def _frame(H: Subgroup) -> _Frame:
    return H.parent.cached(("frame", H.members), lambda: _Frame(_pos_mul(H)))


def _cob_solver(H: Subgroup, m_w) -> ModularSolver:
    return H.parent.cached(("cobsolver", H.members, m_w),
                           lambda: ModularSolver(_frame(H).coboundary, m_w))


def _kernel(K: Subgroup, modulus):
    """Howell basis of the normalized cocycle space of K over Z/modulus, in
    the edge coordinates of K's frame: the kernel of the frame's relator
    rows, which kernel_mod returns as its reduced Howell basis. Rows that
    vanish mod modulus (all of them on a cyclic group) are dropped."""
    def build():
        rows = _frame(K).relator_rows() % modulus
        return kernel_mod(rows[rows.any(axis=1)], modulus)
    return K.parent.cached(("cockernel", K.members, modulus), build)


def cocycle_kernel(G: FiniteGroup, modulus):
    """Howell basis of the normalized cocycle space of G over Z/modulus, in
    the edge coordinates of G's frame."""
    return _kernel(G.full_subgroup(), modulus)


def classes_equivalent(sig: ExpCocycle, rho: ExpCocycle):
    """Some(f) with coboundary_from(f) equal to sig - rho at the working
    modulus lcm * exp(H) (both lifted there), else None.

    That modulus decides equivalence over any algebraically closed field of
    characteristic zero. Both cocycles are normalized, hence fixed by their
    edge values, so the system is solved in edge coordinates.
    """
    if sig.domain != rho.domain:
        raise DomainMismatch("cocycles live on different subgroups")
    H = sig.domain
    m_w = lcm(sig.modulus, rho.modulus) * H.exponent
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
    """Least k >= 1 with k*sig trivial over the field; divides |H|.

    Read off the Smith form of H's coboundary system at M*exp(H): k*sig is
    a coboundary exactly when k*b is solvable for b the lifted edge values.
    """
    sn, _ = normalize(sig)
    H = sig.domain
    if H.order == 1:
        return 1
    m_w = sig.modulus * H.exponent
    k = _cob_solver(H, m_w).order(H.exponent * _frame(H).edges(sn.mat))
    if H.order % k:
        raise VerificationFailed(f"class order {k} does not divide |H| = {H.order}")
    return k


def _extend_solver(K: Subgroup, H: Subgroup, m_w) -> ModularSolver:
    """Solver of S c = edge_H(sigma): S holds K's kernel rows expanded at H's
    edges.  No coboundary columns of H are needed: K's kernel holds every
    coboundary of K, and restriction maps those onto H's coboundaries."""
    def build():
        C = _kernel(K, m_w)
        fr = _frame(H)
        mem = K.position_array[H.member_array]
        tables = _frame(K).expand(C, m_w)
        S = tables[:, mem[1:, None], mem[fr.gens][None, :]].reshape(C.shape[0], fr.width)
        return ModularSolver(S.T, m_w)
    return K.parent.cached(("extsolver", K.members, H.members, m_w), build)


def extend_class(sig: ExpCocycle, G):
    """A cocycle on G whose restriction to H is equivalent to sig.

    G is a group that H lies in, or a subgroup of it that contains H; the
    result lives on G.full_subgroup() or on that subgroup. Solved as one
    linear system at modulus M*exp(G) in H's edge coordinates, with unknown
    coefficients over the cocycle space of G. That space holds G's
    coboundaries, whose restrictions are all of H's, so the system needs no
    coboundary unknowns. Returns None when no class of G restricts to the
    class of sig. That happens even for H central: the sign class on the
    Klein four subgroup {0, 2, 4, 6} of C2 x C4 does not extend. Its
    alternating form is -1 on a pair (u, w^2) with w in G, while the form of
    a restricted class gives beta(u, w^2) = beta(u, w)^2 = 1.
    """
    K = G if isinstance(G, Subgroup) else G.full_subgroup()
    H = sig.domain
    if not H <= K:
        raise NotASubgroup("cocycle domain is not a subgroup of the target group")
    sn, _ = normalize(sig)
    m_w = sig.modulus * K.exponent
    if H.order == 1 or K.order == 1:
        return trivial_cocycle(K, m_w)
    e1 = m_w // sig.modulus
    sol = _extend_solver(K, H, m_w).solve((e1 * _frame(H).edges(sn.mat)) % m_w)
    if sol is None:
        return None
    vec = (sol @ _kernel(K, m_w)) % m_w
    return ExpCocycle(K, m_w, _frame(K).expand(vec, m_w)[0])


def _h2(K: Subgroup):
    """Invariant factors of H^2(K, F*) and one representative cocycle on K
    per factor, at base modulus |K|."""
    def build():
        M = K.order
        if M == 1:
            return (), ()
        e = K.exponent
        N = M * e
        fr = _frame(K)
        KM = _kernel(K, M)
        GE = (e * KM) % N
        k = GE.shape[0]
        sysmat = np.concatenate([GE.T, (-fr.coboundary) % N], axis=1)
        # kernel_mod's rows are a reduced Howell basis; cut to the first k
        # coordinates, the nonzero ones are a reduced Howell basis of the
        # relations, so they need no second reduction
        rel = kernel_mod(sysmat, N)[:, :k]
        rel = rel[rel.any(axis=1)]
        snf = snf_mod(rel, N)
        eb = howell_reduce((rel @ GE) % N, N)
        factors = []
        reps = []
        for j, d in enumerate(snf.diag):
            if d == 1:
                continue
            if M % d:
                raise VerificationFailed(f"H^2 invariant factor {d} does not divide |G| = {M}")
            factors.append(int(d))
            vec = (snf.Vinv[j] @ GE) % N
            vec = eb.reduce_vector(vec)
            if (vec % e).any():
                raise VerificationFailed(f"H^2 representative is not divisible by exp(G) = {e}")
            reps.append(ExpCocycle(K, M, fr.expand(vec // e, M)[0]))
        return tuple(factors), tuple(reps)
    return K.parent.cached(("h2", K.members), build)


def h2_over_Fstar(G: FiniteGroup) -> H2Description:
    """H^2(G, F*) for F algebraically closed of characteristic zero.

    Returns invariant factors (ascending divisibility, 1s dropped), one
    deterministic representative cocycle per factor at base modulus |G|,
    and the group order.
    """
    def build():
        factors, reps = _h2(G.full_subgroup())
        return H2Description(G, G.order, G.order * G.exponent, factors, reps, prod(factors))
    return G.cached("h2desc", build)


def all_classes(H: Subgroup):
    """One cocycle per H^2 class of H (the full group, not just generators)."""
    factors, reps = _h2(H)
    out = []
    seen = set()
    for combo in itertools.product(*(range(d) for d in factors)):
        mat = np.zeros((H.order, H.order), dtype=np.int64)
        for c, rep in zip(combo, reps):
            mat = (mat + c * rep.mat) % H.order
        key = mat.tobytes()
        if key not in seen:
            seen.add(key)
            out.append(ExpCocycle(H, H.order, mat))
    return out
