"""Linear algebra over Z/N: Howell-form row reduction, diagonalization, solving.

Rows live in int64 numpy arrays. A residue product is below N*N and a dot
product of residue vectors of length w below N*N*w, so RowReducer, snf_mod
and ModularSolver refuse (ModulusTooLarge) any modulus with N*N*w >= 2**63
for the widths they handle. The default moduli, |G|*exp(G) <= 64*64 at the
default order cap, stay many orders of magnitude below that bound.

RowReducer eliminates over the local rings. By the Chinese remainder theorem
Z/N is the product of the rings Z/q over the prime powers q = p^k that divide
N exactly, and a row span mod N is the product of its images mod each q. Z/q
is a chain ring: its ideals are the p^v Z/q, so in each column the entry of
least p-valuation generates the column's ideal and clears the column in one
step, with no gcd cascade (Storjohann and Mulders, "Fast algorithms for
linear algebra modulo N", ESA 1998). The local forms are combined into the
reduced Howell form mod N, which is unique for the row span (Howell 1986):
the result does not depend on the factorization, on the order of the rows or
on how they were fed. That makes coset reduction canonical: reduce_vector
returns the same vector for any two inputs that differ by an element of the
row span, which downstream code uses for membership tests and for
deterministic choice of representatives.

ModularSolver solves A x ≡ b off one diagonalization U A V ≡ D by snf_mod:
b is moved by U, divided by the diagonal row by row and moved back by V. Its
solution is a particular one, fixed by A and b, not a canonical coset
representative.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from .errors import ModulusTooLarge, ValidationError


def _check_int64(n_mod, width):
    """Refuse a modulus below 1, or one whose width-term dot products could
    overflow int64."""
    if n_mod < 1:
        raise ValidationError(f"modulus {n_mod} is not positive")
    if n_mod * n_mod * max(width, 1) >= 2 ** 63:
        raise ModulusTooLarge(
            f"modulus {n_mod} at width {width} overflows int64 arithmetic "
            f"(needs N*N*width < 2**63)")


def xgcd(a, b):
    """Extended gcd: (g, s, t) with s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def modinv(a, n):
    if n == 1:
        return 0
    return pow(a % n, -1, n)


def unit_lift(a, n):
    """A unit u mod n with u*a ≡ gcd(a, n) (mod n)."""
    a %= n
    g = gcd(a, n)
    if g == n:
        return 1
    n1 = n // g
    u = modinv(a // g, n1)
    while gcd(u, n) != 1:
        u += n1
    return u % n


@lru_cache(maxsize=64)
def _prime_powers(n):
    """The prime powers that divide n exactly, in ascending order of prime."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(gcd(n, p ** n.bit_length()))  # p^k <= n < p^bit_length
            n //= out[-1]
        p += 1
    return tuple(out + [n] * (n > 1))


# rows that add_matrix reduces together: a larger block shares each pivot's
# pass among more rows, a smaller one lets later rows meet new pivots sooner
_BLOCK_ROWS = 64


def _subtract(rows, idx, c, q, prow, n):
    """rows[idx] -= q * prow mod n, on the columns from c on (prow is zero left of c)."""
    part = rows[idx, c:]
    part -= q[:, None] * prow[c:]
    part %= n
    rows[idx, c:] = part


class _Howell:
    """Reduced Howell rows over Z/n: one row per pivot column.

    Every pivot divides n, every row is zero left of its pivot, every entry
    above a pivot lies in [0, pivot), and the span of the rows whose pivot lies
    right of column c holds every span vector that vanishes up to c.

    Because entries above a unit pivot are zero, adding a multiple of a pivot
    row to any row changes it only in free columns and in columns of non-unit
    pivots. Reduction therefore clears the unit pivots a block hits together,
    by one product, and then visits the non-unit pivots left to right,
    touching only the rows with a nonzero quotient and the columns from the
    pivot on.
    """

    def __init__(self, n, width):
        self.n = n
        self.rows = np.zeros((0, width), dtype=np.int64)
        self.k = 0
        # per column: row index of its pivot (-1 if none), pivot value (n if none)
        self.slot = np.full(width, -1, dtype=np.intp)
        self.pivot = np.full(width, n, dtype=np.int64)

    def basis(self):
        """The pivot rows, ordered by pivot column."""
        return self.rows[self.slot[self.slot >= 0]]

    def _nonunit(self):
        return (1 < self.pivot) & (self.pivot < self.n)

    def reduce(self, block):
        """Reduce the rows of block (residues mod n) in place against the pivots."""
        unit = (self.pivot == 1) & block.any(axis=0)
        if unit.any():
            cols = unit.nonzero()[0]
            a, b = block[:, cols], self.rows[self.slot[cols]]
            # float64 products run through BLAS and are exact while every dot
            # product stays below 2**53; int64 holds the rest (_check_int64)
            small = self.n * self.n * cols.size < 2 ** 53
            block -= (a.astype(float) @ b).astype(np.int64) if small else a @ b
            block %= self.n
        for c in self._nonunit().nonzero()[0].tolist():
            q = block[:, c] // self.pivot[c]
            idx = q.nonzero()[0]
            if idx.size:
                _subtract(block, idx, c, q[idx], self.rows[self.slot[c]], self.n)
        return block

    def add(self, block):
        """Add the rows of block (residues mod n) to the span; n must be a
        prime power p^k, so that Z/n is a chain ring and pivots are powers of p.

        The block is reduced against the pivots, then its surviving rows are
        echelonized together, one step per column they touch. In each step
        the entry of least valuation, scaled to its power of p, clears the
        column in every other row. A pivot it displaces rejoins the rows, and
        the new pivot row r brings its completion (n/pivot)*r, which keeps the
        Howell property. The rows above the changed pivots are reduced once,
        after the last step.
        """
        n = self.n
        work = self.reduce(block)
        work = work[work.any(axis=1)]
        changed = []
        c = -1
        while work.shape[0]:
            c += 1 + int(np.argmax(work[:, c + 1:].any(axis=0)))
            val = np.gcd(work[:, c], n)
            i = int(np.argmin(val))
            piv, s = int(val[i]), int(self.slot[c])
            if s < 0 or piv < self.pivot[c]:
                row = pow(int(work[i, c]) // piv, -1, n) * work[i] % n
                parts = [work[:i], work[i + 1:], (n // piv) * row[None, :] % n]
                if s >= 0:
                    parts.append(self.rows[s:s + 1])
                else:
                    if self.k == len(self.rows):
                        more = np.zeros((max(8, self.k // 4), len(self.slot)), dtype=np.int64)
                        self.rows = np.concatenate([self.rows, more])
                    s = self.slot[c] = self.k
                    self.k += 1
                work = np.concatenate(parts)
                self.rows[s], self.pivot[c] = row, piv
                changed.append(c)
            col = work[:, c]
            idx = col.nonzero()[0]
            _subtract(work, idx, c, col[idx] // self.pivot[c], self.rows[s], n)
            work = work[work[:, c + 1:].any(axis=1)]
        if changed:
            # new rows are zero at the unit pivots that did not change
            visit = self._nonunit()
            visit[:changed[0]] = False
            visit[changed] = True
            self._clear_above(visit.nonzero()[0])

    def _clear_above(self, cols):
        """Put the entries above the pivots at cols in [0, pivot), left to right."""
        R = self.rows
        for c in cols.tolist():
            s = self.slot[c]
            q = R[:self.k, c] // self.pivot[c]
            q[s] = 0
            idx = q.nonzero()[0]
            if idx.size:
                _subtract(R, idx, c, q[idx], R[s], self.n)


def _combine(forms, n, width):
    """The reduced Howell form mod n whose image mod each form's n is that form.

    The pivot at a column is the product of the local pivots (the form's
    modulus where it has none). Its row is the CRT lift, through the
    idempotents, of each local row scaled by pivot / local pivot, a unit
    there; then every entry above a pivot is put in [0, pivot).
    """
    if len(forms) == 1:
        return forms[0]
    out = _Howell(n, width)
    cols = np.flatnonzero(np.any([f.slot >= 0 for f in forms], axis=0))
    piv = np.prod([f.pivot[cols] for f in forms], axis=0)
    rows = np.zeros((cols.size, width), dtype=np.int64)
    for f in forms:
        m = n // f.n
        mine = f.slot[cols] >= 0
        coef = m * pow(m, -1, f.n) * (piv[mine] // f.pivot[cols[mine]]) % n
        rows[mine] = (rows[mine] + coef[:, None] * f.rows[f.slot[cols[mine]]]) % n
    out.rows, out.k = rows, cols.size
    out.slot[cols], out.pivot[cols] = np.arange(cols.size), piv
    out._clear_above(cols)
    return out


class RowReducer:
    """Incremental reduced Howell form over Z/N (Howell 1986).

    The form has one pivot row per pivot column. Every pivot divides N, every
    row is zero left of its pivot, every entry above a pivot lies in [0,
    pivot), and the span of the rows whose pivot lies right of column c holds
    every span vector that vanishes up to c. This form is unique for the row
    span, so basis() is canonical. Adding rows never shrinks the span.

    Rows are eliminated in one reduced Howell form over Z/q for each prime
    power q dividing N exactly, where pivots are powers of the prime. basis()
    and reduce_vector combine them with CRT idempotents into the form mod N.
    A submodule of (Z/N)^w is the product of its images in the (Z/q)^w, so
    the combined rows span the same module, satisfy the Howell property
    because each image does, and, being reduced, are the unique form.
    """

    def __init__(self, n_mod, width):
        self.N = int(n_mod)
        self.width = int(width)
        _check_int64(self.N, self.width)
        # one form per prime power; Z/1 has none, so it gets one empty form
        self._local = [_Howell(q, self.width) for q in _prime_powers(self.N) or (1,)]
        self._form = None

    def basis(self):
        """The pivot rows, ordered by pivot column."""
        return self._combined().basis()

    def add_matrix(self, mat):
        mat = np.atleast_2d(np.asarray(mat, dtype=np.int64))
        for lo in range(0, mat.shape[0], _BLOCK_ROWS):
            for form in self._local:
                form.add(mat[lo:lo + _BLOCK_ROWS] % form.n)
        self._form = None
        return self

    def reduce_vector(self, vec):
        v = np.asarray(vec, dtype=np.int64) % self.N
        return self._combined().reduce(v[None, :])[0]

    def _combined(self):
        if self._form is None:
            self._form = _combine(self._local, self.N, self.width)
        return self._form


def howell_reduce(mat, n_mod):
    mat = np.atleast_2d(np.asarray(mat, dtype=np.int64))
    red = RowReducer(n_mod, mat.shape[1])
    red.add_matrix(mat)
    return red


def _with_identity(A, n_mod):
    """Reduced Howell form of the rows of [A | I], fed a block at a time."""
    m, n = A.shape
    red = RowReducer(n_mod, n + m)
    for lo in range(0, m, _BLOCK_ROWS):
        hi = min(m, lo + _BLOCK_ROWS)
        block = np.zeros((hi - lo, n + m), dtype=np.int64)
        block[:, :n] = A[lo:hi]
        block[np.arange(hi - lo), n + np.arange(lo, hi)] = 1
        red.add_matrix(block)
    return red


def kernel_mod(A, n_mod):
    """Generator rows of {x : A @ x ≡ 0 (mod n_mod)}."""
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    m, n = A.shape
    if m == 0:
        return np.eye(n, dtype=np.int64)
    B = _with_identity(A.T, n_mod).basis()
    return B[~B[:, :m].any(axis=1), m:]


@dataclass
class SnfResult:
    """Diagonalization D = U A V over Z/N.

    diag has one entry per column of A: the gcd-normalized diagonal entry,
    padded with N past the rank. Together with the implicit relations N*e_j
    this is the relation modulus of each transformed column coordinate, in
    ascending divisibility order.
    """
    diag: tuple
    U: np.ndarray | None = None
    V: np.ndarray | None = None
    Vinv: np.ndarray | None = None


def snf_mod(A, n_mod, want_u=False, want_v=False):
    N = int(n_mod)
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    r, c = A.shape
    _check_int64(N, max(r, c))
    A = A % N
    U = np.eye(r, dtype=np.int64) if want_u else None
    V = np.eye(c, dtype=np.int64) if want_v else None
    Vinv = np.eye(c, dtype=np.int64) if want_v else None

    def row_swap(i, j):
        A[[i, j]] = A[[j, i]]
        if U is not None:
            U[[i, j]] = U[[j, i]]

    def row_scale(i, u):
        A[i] = (A[i] * u) % N
        if U is not None:
            U[i] = (U[i] * u) % N

    def rows_sub(idx, q, t):
        A[idx] = (A[idx] - q[:, None] * A[t]) % N
        if U is not None:
            U[idx] = (U[idx] - q[:, None] * U[t]) % N

    def row_add(t, i):
        A[t] = (A[t] + A[i]) % N
        if U is not None:
            U[t] = (U[t] + U[i]) % N

    def rows_combine(t, i, s, tt, p, ai, g):
        rt, ri = A[t].copy(), A[i].copy()
        A[t] = (s * rt + tt * ri) % N
        A[i] = ((p // g) * ri - (ai // g) * rt) % N
        if U is not None:
            ut, ui = U[t].copy(), U[i].copy()
            U[t] = (s * ut + tt * ui) % N
            U[i] = ((p // g) * ui - (ai // g) * ut) % N

    def col_swap(i, j):
        A[:, [i, j]] = A[:, [j, i]]
        if V is not None:
            V[:, [i, j]] = V[:, [j, i]]
            Vinv[[i, j]] = Vinv[[j, i]]

    def cols_sub(idx, q, t):
        A[:, idx] = (A[:, idx] - A[:, t][:, None] * q[None, :]) % N
        if V is not None:
            V[:, idx] = (V[:, idx] - V[:, t][:, None] * q[None, :]) % N
            Vinv[t] = (Vinv[t] + q @ Vinv[idx]) % N

    def cols_combine(t, j, s, tt, p, aj, g):
        ct, cj = A[:, t].copy(), A[:, j].copy()
        A[:, t] = (s * ct + tt * cj) % N
        A[:, j] = ((p // g) * cj - (aj // g) * ct) % N
        if V is not None:
            vt, vj = V[:, t].copy(), V[:, j].copy()
            V[:, t] = (s * vt + tt * vj) % N
            V[:, j] = ((p // g) * vj - (aj // g) * vt) % N
            rt, rj = Vinv[t].copy(), Vinv[j].copy()
            Vinv[t] = ((p // g) * rt + (aj // g) * rj) % N
            Vinv[j] = (s * rj - tt * rt) % N

    t = 0
    mdim = min(r, c)
    while t < mdim:
        sub = A[t:, t:]
        if not sub.any():
            break
        gs = np.gcd(sub, N)
        i, j = np.unravel_index(int(np.argmin(gs + (sub == 0) * N)), gs.shape)
        if i:
            row_swap(t, t + i)
        if j:
            col_swap(t, t + j)
        while True:
            u = unit_lift(int(A[t, t]), N)
            if u != 1:
                row_scale(t, u)
            g = int(A[t, t])
            bad = np.nonzero(A[t + 1:, t] % g)[0]
            while bad.size:
                i = t + 1 + int(bad[0])
                ai = int(A[i, t])
                g2, s, tt = xgcd(g, ai)
                rows_combine(t, i, s, tt, g, ai, g2)
                g = g2
                bad = np.nonzero(A[t + 1:, t] % g)[0]
            q = A[t + 1:, t] // g
            idx = np.nonzero(q)[0]
            if idx.size:
                rows_sub(t + 1 + idx, q[idx], t)
            bad = np.nonzero(A[t, t + 1:] % g)[0]
            while bad.size:
                j = t + 1 + int(bad[0])
                aj = int(A[t, j])
                g2, s, tt = xgcd(g, aj)
                cols_combine(t, j, s, tt, g, aj, g2)
                g = g2
                bad = np.nonzero(A[t, t + 1:] % g)[0]
            q = A[t, t + 1:] // g
            jdx = np.nonzero(q)[0]
            if jdx.size:
                cols_sub(t + 1 + jdx, q[jdx], t)
            if A[t + 1:, t].any():
                continue
            blk = A[t + 1:, t + 1:]
            if blk.size:
                off = np.argwhere(np.gcd(blk, N) % g)
                if off.size:
                    row_add(t, t + 1 + int(off[0][0]))
                    continue
            break
        t += 1

    diag = tuple(gcd(int(A[i, i]), N) if i < mdim else N for i in range(c))
    return SnfResult(diag=diag, U=U, V=V, Vinv=Vinv)


class ModularSolver:
    """Solve A x ≡ b (mod N) for many right-hand sides off one Smith form.

    snf_mod gives invertible U and V with U A V ≡ D, where D is zero off its
    diagonal and D[i, i] = d_i divides N. Writing x = V y, the system is
    D y ≡ U b: for c = U b, row i < min(m, n) reads d_i y_i ≡ c_i, solvable
    exactly when d_i divides c_i (a d_i of N asks c_i = 0), and every later
    row reads 0 ≡ c_i. So each row has a modulus, d_i or N; the system is
    solvable exactly when every c_i is a multiple of its row's modulus, and
    then y_i = c_i / d_i (0 past the rank) gives x = V y.
    """

    def __init__(self, A, n_mod):
        N = int(n_mod)
        A = np.atleast_2d(np.asarray(A, dtype=np.int64))
        m, n = A.shape
        _check_int64(N, n + m)
        r = min(m, n)
        snf = snf_mod(A, N, want_u=True, want_v=True)
        self.N = N
        self.U = snf.U
        self.V = snf.V[:, :r]
        self.mods = np.array(snf.diag[:r] + (N,) * (m - r), dtype=np.int64)

    def solve(self, b):
        """A particular solution x with A x ≡ b, or None if none exists."""
        c = (self.U @ (np.asarray(b, dtype=np.int64) % self.N)) % self.N
        q, rem = np.divmod(c, self.mods)
        if np.count_nonzero(rem):
            return None
        return (self.V @ q[:self.V.shape[1]]) % self.N

    def order(self, b):
        """The least k >= 1 with A x ≡ k b solvable: row i asks that its
        modulus divide k c_i, so k is the lcm of mods_i / gcd(c_i, mods_i)."""
        c = (self.U @ (np.asarray(b, dtype=np.int64) % self.N)) % self.N
        return lcm(*(self.mods // np.gcd(c, self.mods)).tolist())
