"""Answer checks that share no code with the timed path.

The checks read the library's outputs as data (exponent tables, group
tables, coefficient vectors) and recompute what must hold with their own
arithmetic:

- H^2: invariant factors from the Kuenneth/Schur formula and a numpy
  cocycle-identity test of every representative; representatives used as
  oracle data must also give pairwise distinct classes, told apart by
  their values on commuting pairs.
- Extension: for a central (hence abelian) subgroup H, two classes on H are
  equal exactly when their commutator forms x, y -> s(x,y)/s(y,x) agree, so
  round trips and "does not extend" answers are compared as forms.
- Embeddings: every yes-witness is a monomial map; it is re-verified on all
  basis pairs in exponent arithmetic (q * zeta^k, q rational).
- Identities: basis identities are evaluated exactly in Q(zeta_L) modulo the
  L-th cyclotomic polynomial; dimensions and containment are checked by
  ranks modulo a prime p = 1 (mod L), where zeta_L maps to an L-th root of
  unity. A rank mod p never exceeds the rank over Q(zeta_L), so the check
  can only err by flagging a correct answer, with chance below 1e-6.

Every check returns None when the answer holds, else a one-line problem.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

import numpy as np


# -- group and cocycle helpers -----------------------------------------------

def cocycle_problem(mat, modulus, table):
    """None if an n x n exponent table satisfies the 2-cocycle identity
    modulo modulus on the group with multiplication table `table`."""
    mul = np.asarray(table, dtype=np.int64)
    k = len(mul)
    r = np.asarray(mat, dtype=np.int64) % modulus
    if r.shape != (k, k):
        return f"table shape {r.shape} is not {k}x{k}"
    i = np.arange(k)
    X, Y, Z = np.meshgrid(i, i, i, indexing="ij")
    lhs = r[X, Y] + r[mul[X, Y], Z]
    rhs = r[Y, Z] + r[X, mul[Y, Z]]
    if ((lhs - rhs) % modulus).any():
        return "exponent table fails the cocycle identity"
    return None


def commutator_form(mat, modulus, members):
    """Alternating form of a cocycle on an abelian subgroup, as a tuple of
    Fractions in [0, 1) over the member pairs (x, y) with x < y."""
    r = np.asarray(mat, dtype=np.int64)
    out = []
    k = len(members)
    for a in range(k):
        for b in range(a + 1, k):
            out.append(Fraction(int(r[a, b] - r[b, a]) % modulus, modulus))
    return tuple(out)


def _add_forms(f, g, times=1):
    return tuple((a + times * b) % 1 for a, b in zip(f, g))


# -- H^2 -------------------------------------------------------------------------

def check_h2(table, expected_factors, desc):
    n = len(table)
    if tuple(desc.invariant_factors) != tuple(expected_factors):
        return (f"invariant factors {tuple(desc.invariant_factors)}, "
                f"expected {tuple(expected_factors)}")
    order = 1
    for d in expected_factors:
        order *= d
    if desc.order != order:
        return f"class group order {desc.order}, expected {order}"
    if len(desc.representatives) != len(expected_factors):
        return "one representative per invariant factor expected"
    for rep in desc.representatives:
        if rep.modulus != n:
            return f"representative modulus {rep.modulus}, expected |G| = {n}"
        problem = cocycle_problem(rep.mat, rep.modulus, table)
        if problem:
            return "representative: " + problem
    return None


def classes_independent(table, factors, rep_mats, modulus):
    """None if the representatives (n x n exponent tables at a common
    modulus) generate prod(factors) distinct classes, i.e. every combination
    sum c_i r_i with 0 <= c_i < factors[i] is a different class.

    Classes are told apart by r(x, y) - r(y, x) on commuting pairs x, y, a
    class invariant. It separates all classes of a group whose Bogomolov
    multiplier is trivial, as it is for every group of order at most 32."""
    T = np.asarray(table, dtype=np.int64)
    xs, ys = np.nonzero(np.triu(T == T.T, 1))
    gens = [(np.asarray(m, dtype=np.int64)[xs, ys] - np.asarray(m, dtype=np.int64)[ys, xs])
            % modulus for m in rep_mats]
    forms = set()
    for combo in itertools.product(*[range(d) for d in factors]):
        f = np.zeros(len(xs), dtype=np.int64)
        for c, g in zip(combo, gens):
            f = (f + c * g) % modulus
        forms.add(f.tobytes())
    want = 1
    for d in factors:
        want *= d
    if len(forms) != want:
        return f"representatives give {len(forms)} distinct classes, expected {want}"
    return None


# -- extension ---------------------------------------------------------------------

class RestrictionImage:
    """Commutator forms on central subgroups reached by restricting classes
    of G, from one class representative of G per invariant factor (full
    n x n exponent tables at a common modulus)."""

    def __init__(self, factors, rep_mats, modulus):
        self.factors = tuple(factors)
        self.rep_mats = [np.asarray(m, dtype=np.int64) for m in rep_mats]
        self.modulus = modulus
        self._forms = {}

    def forms_on(self, members):
        members = tuple(members)
        if members not in self._forms:
            idx = np.array(members, dtype=np.int64)
            gens = [commutator_form(m[np.ix_(idx, idx)], self.modulus, members)
                    for m in self.rep_mats]
            zero = tuple(Fraction(0) for _ in range(len(members) * (len(members) - 1) // 2))
            forms = set()
            for combo in itertools.product(*[range(d) for d in self.factors]):
                f = zero
                for c, g in zip(combo, gens):
                    f = _add_forms(f, g, c)
                forms.add(f)
            self._forms[members] = forms
        return self._forms[members]


def check_extension(table, members, sig_mat, sig_modulus, answer, image):
    """answer is (ext, f) from extend_class and the round trip, or (None, None);
    members is the sorted central subgroup the class sig lives on, and image
    the RestrictionImage of G in the same labeling."""
    ext, f = answer
    sig_form = commutator_form(sig_mat, sig_modulus, members)
    if ext is None:
        if sig_form in image.forms_on(members):
            return "reported 'does not extend', but a class of G restricts to it"
        return None
    n = len(table)
    if ext.mat.shape != (n, n):
        return "extension is not defined on all of G"
    problem = cocycle_problem(ext.mat, ext.modulus, table)
    if problem:
        return "extension: " + problem
    idx = np.array(members, dtype=np.int64)
    restricted = np.asarray(ext.mat)[np.ix_(idx, idx)]
    if commutator_form(restricted, ext.modulus, members) != sig_form:
        return "extension restricts to a different class"
    if f is None:
        return "round trip found the restriction inequivalent"
    return _coboundary_problem(table, members, f.vec, f.modulus,
                               restricted, ext.modulus, sig_mat, sig_modulus)


def _coboundary_problem(table, members, fvec, fmod, a_mat, a_mod, b_mat, b_mod):
    """f must satisfy f(x) + f(y) - f(xy) = a(x,y) - b(x,y) at modulus fmod."""
    if fmod % a_mod or fmod % b_mod:
        return "round-trip function modulus does not refine the cocycle moduli"
    T = np.asarray(table, dtype=np.int64)
    pos = {m: i for i, m in enumerate(members)}
    k = len(members)
    mul = np.array([[pos[int(T[a, b])] for b in members] for a in members], dtype=np.int64)
    v = np.asarray(fvec, dtype=np.int64)
    if v.shape != (k,):
        return "round-trip function has the wrong length"
    lhs = v[:, None] + v[None, :] - v[mul]
    rhs = (np.asarray(a_mat, dtype=np.int64) * (fmod // a_mod)
           - np.asarray(b_mat, dtype=np.int64) * (fmod // b_mod))
    if ((lhs - rhs) % fmod).any():
        return "round-trip function is not a coboundary witness"
    return None


# -- algebra structure, read from the algebra's data ---------------------------------

class AlgebraModel:
    """Basis, degrees and structure constants of a twisted group algebra or
    a graded matrix algebra, recomputed from its defining data. Keys are
    (i, j, z) triples; a twisted group algebra is the k = 1 case."""

    def __init__(self, alg):
        theta = getattr(alg, "theta", None)
        self.is_matrix = theta is not None
        base = alg.base if self.is_matrix else alg
        self.theta = tuple(theta) if self.is_matrix else (0,)
        self.k = len(self.theta)
        table = base.subgroup.parent.mul_table
        self.table = table
        self.inv = [row.index(0) for row in table]
        self.members = tuple(base.subgroup.members)
        self.sigma_modulus = base.sigma.modulus
        self.sigma_mat = np.asarray(base.sigma.mat, dtype=np.int64)
        self.field_modulus = base.field.modulus
        pos = {m: i for i, m in enumerate(self.members)}
        self.pos = pos
        self.keys = [(i, j, z) for i in range(1, self.k + 1)
                     for j in range(1, self.k + 1) for z in self.members]
        th = self.theta
        self.degree = {
            (i, j, z): table[table[self.inv[th[i - 1]]][z]][th[j - 1]]
            for (i, j, z) in self.keys}

    def native_key(self, key):
        """Key as the library spells it."""
        return key if self.is_matrix else key[2]

    def model_key(self, native):
        return tuple(native) if self.is_matrix else (1, 1, native)

    def mul(self, k1, k2):
        """(exponent of zeta_sigma_modulus, key) or None."""
        if k1[1] != k2[0]:
            return None
        z1, z2 = k1[2], k2[2]
        e = int(self.sigma_mat[self.pos[z1], self.pos[z2]])
        return e, (k1[0], k2[1], self.table[z1][z2])

    def same_data(self, other):
        return (self.table == other.table and self.members == other.members
                and self.theta == other.theta
                and self.sigma_modulus == other.sigma_modulus
                and bool((self.sigma_mat == other.sigma_mat).all()))

    def component(self, g):
        return [key for key in self.keys if self.degree[key] == g]

    def support(self):
        return sorted(set(self.degree.values()))


# -- exact cyclotomic arithmetic (own implementation) --------------------------------

@lru_cache(maxsize=None)
def cyclotomic(m):
    """Integer coefficients (low first) of the m-th cyclotomic polynomial."""
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num = _exact_div(num, cyclotomic(d))
    return tuple(num)


def _exact_div(num, den):
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1] // den[-1]
        q[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    return q


def _root_powers(m):
    """x^k mod Phi_m, k = 0..m-1, as Fraction vectors of length phi(m)."""
    phi = cyclotomic(m)
    deg = len(phi) - 1
    out = []
    vec = [Fraction(0)] * deg
    vec[0] = Fraction(1)
    for _ in range(m):
        out.append(tuple(vec))
        lead = vec[-1]
        vec = [Fraction(0)] + vec[:-1]
        if lead:
            vec = [a - lead * c for a, c in zip(vec, phi[:-1])]
    return out


class Monomials:
    """Recognize field elements q * zeta_m^k from their power-basis
    coordinates, and compare such monomials exactly."""

    def __init__(self, m):
        self.m = m
        self.rays = {}
        for k, vec in enumerate(_root_powers(m)):
            lead = next(c for c in vec if c)
            self.rays.setdefault(tuple(c / lead for c in vec), (k, lead))

    def monomial(self, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        lead = next((c for c in coeffs if c), None)
        if lead is None:
            return None
        hit = self.rays.get(tuple(c / lead for c in coeffs))
        if hit is None:
            return None
        k, ray_lead = hit
        return self.normal(lead / ray_lead, k)

    def normal(self, q, k):
        k %= self.m
        if q < 0 and self.m % 2 == 0:
            q, k = -q, (k + self.m // 2) % self.m
        return q, k


@lru_cache(maxsize=None)
def monomials(m):
    return Monomials(m)


def vanishes(vec, m):
    """Whether sum_i vec[i] zeta_m^i is zero (vec indexed mod m)."""
    phi = cyclotomic(m)
    deg = len(phi) - 1
    r = list(vec)
    for i in range(len(r) - 1, deg - 1, -1):
        c = r[i]
        if c:
            for j, p in enumerate(phi):
                r[i - deg + j] -= c * p
    return not any(r[:deg])


# -- rank modulo a prime -----------------------------------------------------------

def _is_prime(p):
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


@lru_cache(maxsize=None)
def prime_for(m):
    """(p, g): a prime p = 1 (mod m) below 2^31 and an element of order m."""
    p = (2 ** 30 // m) * m + 1
    while not _is_prime(p):
        p += m
    qs = [q for q in range(2, m + 1) if m % q == 0 and _is_prime(q)]
    h = 2
    while True:
        g = pow(h, (p - 1) // m, p)
        if all(pow(g, m // q, p) != 1 for q in qs):
            return p, g
        h += 1


def rank_mod(rows, p):
    """Rank of a list of integer rows modulo the prime p (p < 2^31)."""
    if not rows:
        return 0
    A = np.array(rows, dtype=np.int64) % p
    rank = 0
    nrows, ncols = A.shape
    for c in range(ncols):
        nz = np.nonzero(A[rank:, c])[0]
        if nz.size == 0:
            continue
        r = rank + int(nz[0])
        if r != rank:
            A[[rank, r]] = A[[r, rank]]
        inv = pow(int(A[rank, c]), p - 2, p)
        A[rank] = (A[rank] * inv) % p
        col = A[:, c].copy()
        col[rank] = 0
        nzr = np.nonzero(col)[0]
        if nzr.size:
            A[nzr] = (A[nzr] - col[nzr, None] * A[rank][None, :]) % p
        rank += 1
        if rank == nrows:
            break
    return rank


def _frac_mod(q, p):
    return q.numerator % p * pow(q.denominator % p, p - 2, p) % p


# -- identities ----------------------------------------------------------------------

def _perms(n):
    return sorted(itertools.permutations(range(1, n + 1)))


def _products(model, subst, perms):
    """For each permutation: (exponent of zeta_sigma, key) or None."""
    out = []
    for perm in perms:
        e, key = 0, subst[perm[0] - 1]
        for idx in perm[1:]:
            hit = model.mul(key, subst[idx - 1])
            if hit is None:
                key = None
                break
            e += hit[0]
            key = hit[1]
        out.append(None if key is None else (e, key))
    return out


def evaluation_rows_mod(model, degs, L):
    """Rows of the evaluation map modulo the prime for L, one per
    (basis substitution, landing key)."""
    p, g = prime_for(L)
    step = L // model.sigma_modulus
    perms = _perms(len(degs))
    rows = []
    for subst in itertools.product(*[model.component(d) for d in degs]):
        landed = {}
        for col, hit in enumerate(_products(model, subst, perms)):
            if hit is None:
                continue
            e, key = hit
            row = landed.setdefault(key, [0] * len(perms))
            row[col] = (row[col] + pow(g, (e * step) % L, p)) % p
        rows.extend(landed.values())
    return rows


def _coeff_vector(c, L):
    """Field element of Q(zeta_P) as {power of zeta_L: Fraction}."""
    P = c.field.modulus
    step = L // P
    return {(i * step) % L: Fraction(q) for i, q in enumerate(c.coeffs) if q}


def poly_value(poly, model, subst, L):
    """Exact value of a multilinear polynomial at a basis substitution:
    {key: coefficient vector indexed mod L}."""
    step = L // model.sigma_modulus
    perms = sorted(poly.coeffs)
    acc = {}
    for perm, hit in zip(perms, _products(model, subst, perms)):
        if hit is None:
            continue
        e, key = hit
        vec = acc.setdefault(key, [Fraction(0)] * L)
        shift = (e * step) % L
        for i, q in _coeff_vector(poly.coeffs[perm], L).items():
            vec[(i + shift) % L] += q
    return acc


def identity_problem(poly, model):
    """None if the polynomial vanishes on every basis substitution."""
    L = lcm(model.field_modulus, poly.field.modulus)
    comps = [model.component(d) for d in poly.assignment.degs]
    for subst in itertools.product(*comps):
        for key, vec in poly_value(poly, model, subst, L).items():
            if not vanishes(vec, L):
                return f"basis identity does not vanish at substitution {subst}"
    return None


def check_identity_space(alg, degs, space):
    model = AlgebraModel(alg)
    n = len(degs)
    L = model.field_modulus
    if tuple(space.assignment.degs) != tuple(degs):
        return "identity space is for another assignment"
    p = prime_for(L)[0]
    rank = rank_mod(evaluation_rows_mod(model, degs, L), p)
    if space.dimension != factorial(n) - rank:
        return f"dimension {space.dimension}, expected {factorial(n) - rank}"
    perms = _perms(n)
    basis_rows = [[_frac_mod_elem(poly.coeffs.get(w), p, L) for w in perms]
                  for poly in space.basis]
    if rank_mod(basis_rows, p) != space.dimension:
        return "basis identities are linearly dependent"
    for poly in space.basis:
        problem = identity_problem(poly, model)
        if problem:
            return problem
    return None


def _frac_mod_elem(c, p, L):
    """Image of a field element of Q(zeta_P), P | L, under zeta_L -> g."""
    if c is None:
        return 0
    _, g = prime_for(L)
    total = 0
    for i, q in _coeff_vector(c, L).items():
        total = (total + _frac_mod(q, p) * pow(g, i, p)) % p
    return total


def check_containment(A, B, n_max, report):
    ma, mb = AlgebraModel(A), AlgebraModel(B)
    L = lcm(ma.field_modulus, mb.field_modulus)
    p = prime_for(L)[0]
    supports = sorted(set(ma.support()) | set(mb.support()))
    wanted = {degs for n in range(1, n_max + 1)
              for degs in itertools.product(supports, repeat=n)}
    got = [tuple(v.degs) for v in report.verdicts] + [tuple(s) for s in report.skipped]
    if sorted(got) != sorted(wanted):
        return "assignments examined differ from all assignments over the supports"
    for v in report.verdicts:
        degs = tuple(v.degs)
        n = len(degs)
        ea = evaluation_rows_mod(ma, degs, L)
        eb = evaluation_rows_mod(mb, degs, L)
        ra, rb = rank_mod(ea, p), rank_mod(eb, p)
        if v.dim_source != factorial(n) - ra or v.dim_target != factorial(n) - rb:
            return f"identity-space dimensions wrong at {degs}"
        contained = rank_mod(ea + eb, p) == ra
        if v.contained != contained:
            return f"containment verdict wrong at {degs}"
        if not v.contained:
            sep = v.separating
            if sep is None or v.witness_substitution is None:
                return f"no separating witness at {degs}"
            problem = identity_problem(sep, ma)
            if problem:
                return "separating polynomial is not an identity of the source"
            subst = tuple(mb.model_key(k) for k in v.witness_substitution)
            if any(mb.degree.get(s) != d for s, d in zip(subst, degs)):
                return "witness substitution has the wrong degrees"
            value = poly_value(sep, mb, subst, lcm(L, sep.field.modulus))
            if all(vanishes(vec, lcm(L, sep.field.modulus)) for vec in value.values()):
                return f"separating witness evaluates to zero at {degs}"
    return None


# -- embeddings ------------------------------------------------------------------------

def check_decision(report, A, B, want_iso, planted):
    """A yes must carry a witness that re-verifies; a planted pair must be yes."""
    if not report.verdict:
        return "planted pair reported 'no'" if planted else None
    if not report.verified:
        return "yes without a verified witness"
    w = report.witness
    src, tgt = AlgebraModel(w.source), AlgebraModel(w.target)
    if not (src.same_data(AlgebraModel(A)) and tgt.same_data(AlgebraModel(B))):
        return "witness is for a different pair of algebras"
    if src.field_modulus != tgt.field_modulus:
        return "witness source and target use different fields"
    return monomial_map_problem(w.map.images, src, tgt, want_iso)


def monomial_map_problem(images, src, tgt, want_iso):
    F = src.field_modulus
    mono = monomials(F)
    ss, ts = F // src.sigma_modulus, F // tgt.sigma_modulus
    img = {}
    for key in src.keys:
        elt = images.get(src.native_key(key))
        if elt is None or len(elt.terms) != 1:
            return "witness is not a monomial map on the basis"
        (tkey, coef), = elt.terms.items()
        tkey = tgt.model_key(tkey)
        if tkey not in tgt.degree:
            return "witness image is not a target basis element"
        m = mono.monomial(coef.coeffs)
        if m is None:
            return "witness coefficient is not a root of unity multiple"
        if tgt.degree[tkey] != src.degree[key]:
            return "witness does not preserve degrees"
        img[key] = (m, tkey)
    if len({t for _, t in img.values()}) != len(src.keys):
        return "witness is not injective on the basis"
    if want_iso and len(src.keys) != len(tgt.keys):
        return "isomorphism witness between algebras of different dimension"
    for k1 in src.keys:
        (q1, e1), t1 = img[k1]
        for k2 in src.keys:
            (q2, e2), t2 = img[k2]
            hit_t = tgt.mul(t1, t2)
            hit_s = src.mul(k1, k2)
            if hit_s is None:
                if hit_t is not None:
                    return "witness maps a zero product to a nonzero one"
                continue
            if hit_t is None:
                return "witness maps a nonzero product to zero"
            es, ks = hit_s
            et, kt = hit_t
            (q3, e3), t3 = img[ks]
            if t3 != kt:
                return "witness is not multiplicative (basis key)"
            lhs = mono.normal(q1 * q2, e1 + e2 + et * ts)
            rhs = mono.normal(q3, e3 + es * ss)
            if lhs != rhs:
                return "witness is not multiplicative (scalar)"
    return None
