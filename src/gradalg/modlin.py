"""Linear algebra over Z/N: Howell-form row reduction, diagonalization, solving.

Rows live in int64 numpy arrays. A residue product is below N*N and a dot
product of residue vectors of length w below N*N*w, so RowReducer, snf_mod
and ModularSolver refuse (ModulusTooLarge) any modulus with N*N*w >= 2**63
for the widths they handle. The default moduli, |G|*exp(G) <= 64*64 at the
default order cap, stay many orders of magnitude below that bound. The
reduced Howell form makes coset reduction canonical: reduce_vector returns
the same vector for any two inputs that differ by an element of the row
span, which downstream code uses for membership tests and for deterministic
choice of representatives.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import ModulusTooLarge


def _check_int64(n_mod, width):
    """Refuse a modulus whose width-term dot products could overflow int64."""
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


# rows that add_matrix reduces together: a larger block shares each pivot's
# pass among more rows, a smaller one lets later rows meet new pivots sooner
_BLOCK_ROWS = 64


class RowReducer:
    """Incremental reduced Howell form over Z/N (Howell 1986).

    Keeps one pivot row per pivot column. Every pivot divides N, every row is
    zero left of its pivot, every entry above a pivot lies in [0, pivot), and
    the span of the rows whose pivot lies right of column c holds every span
    vector that vanishes up to c (the completion rows (N/pivot)*row are
    inserted for that). This form is unique for the row span, so basis() is
    canonical. Insertion never shrinks the row span.

    Because entries above a unit pivot are zero, adding a multiple of a pivot
    row to any row changes it only in free columns and in columns of non-unit
    pivots. Reduction therefore visits the pivots a row hits at the start plus
    the non-unit pivots, and touches only the rows with a nonzero quotient and
    the columns from the pivot on.
    """

    def __init__(self, n_mod, width):
        self.N = int(n_mod)
        self.width = int(width)
        _check_int64(self.N, self.width)
        self._rows = np.zeros((0, self.width), dtype=np.int64)
        self._k = 0
        # per column: row index of its pivot (-1 if none), pivot value (N if none)
        self._slot = np.full(self.width, -1, dtype=np.intp)
        self._pivot = np.full(self.width, self.N, dtype=np.int64)
        self._nonunit = np.zeros(self.width, dtype=bool)

    def basis(self):
        """The pivot rows, ordered by pivot column."""
        return self._rows[self._slot[self._slot >= 0]]

    def add_matrix(self, mat):
        mat = np.atleast_2d(np.asarray(mat, dtype=np.int64))
        # each block is reduced in one pass against the pivots so far; its rows
        # left nonzero are inserted one by one, and the next block sees them
        for lo in range(0, mat.shape[0], _BLOCK_ROWS):
            block = mat[lo:lo + _BLOCK_ROWS] % self.N
            self._reduce(block)
            for i in np.flatnonzero(block.any(axis=1)):
                self._insert(block[i])
        return self

    def reduce_vector(self, vec):
        v = np.asarray(vec, dtype=np.int64) % self.N
        return self._reduce(v[None, :])[0]

    def contains(self, vec):
        return not self.reduce_vector(vec).any()

    def _reduce(self, block, start=0):
        """Reduce the rows of block in place against the pivots at columns >= start."""
        piv = self._pivot
        hit = self._nonunit[start:] | (block[:, start:] >= piv[start:]).any(axis=0)
        for c in (hit.nonzero()[0] + start).tolist():
            q = block[:, c] // piv[c]
            idx = q.nonzero()[0]
            if idx.size:
                self._subtract(block, idx, c, q[idx], self._rows[self._slot[c]])
        return block

    def _subtract(self, rows, idx, c, q, prow):
        """rows[idx] -= q * prow, on the columns from c on (prow is zero left of c)."""
        part = rows[idx, c:]
        part -= q[:, None] * prow[c:]
        part %= self.N
        rows[idx, c:] = part

    def _insert(self, row):
        N = self.N
        stack = [row]
        while stack:
            v = self._reduce(stack.pop()[None, :])[0]
            nz = v.nonzero()[0]
            if not nz.size:
                continue
            c = int(nz[0])
            s = int(self._slot[c])
            if s < 0:
                s = self._new_slot(c)
                self._rows[s] = (unit_lift(int(v[c]), N) * v) % N
            else:
                # v[c] lies in (0, pivot): replace the pivot by their gcd
                old = self._rows[s].copy()
                p, a = int(old[c]), int(v[c])
                g, x, y = xgcd(p, a)
                self._rows[s] = (x * old + y * v) % N
                stack.append(((p // g) * v - (a // g) * old) % N)
            g = self._settle(c, s)
            if g > 1:
                comp = ((N // g) * self._rows[s]) % N
                if comp.any():
                    stack.append(comp)

    def _new_slot(self, c):
        if self._k == self._rows.shape[0]:
            cap = min(self.width, self._k + max(8, self._k // 4))
            grown = np.zeros((cap, self.width), dtype=np.int64)
            grown[:self._k] = self._rows[:self._k]
            self._rows = grown
        self._slot[c] = self._k
        self._k += 1
        return self._k - 1

    def _settle(self, c, s):
        """Restore reduced form after row s, the pivot row of column c, changed."""
        R = self._rows
        self._reduce(R[s:s + 1], c + 1)
        g = int(R[s, c])
        self._pivot[c] = g
        self._nonunit[c] = g > 1
        q = R[:self._k, c] // g
        q[s] = 0
        idx = q.nonzero()[0]
        if idx.size:
            self._subtract(R, idx, c, q[idx], R[s])
            if self._nonunit[c + 1:].any():
                R[idx] = self._reduce(R[idx], c + 1)
        return g


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
    Uinv: np.ndarray | None = None
    V: np.ndarray | None = None
    Vinv: np.ndarray | None = None


def snf_mod(A, n_mod, want_u=False, want_v=False):
    N = int(n_mod)
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    r, c = A.shape
    _check_int64(N, max(r, c))
    A = A % N
    U = np.eye(r, dtype=np.int64) if want_u else None
    Uinv = np.eye(r, dtype=np.int64) if want_u else None
    V = np.eye(c, dtype=np.int64) if want_v else None
    Vinv = np.eye(c, dtype=np.int64) if want_v else None

    def row_swap(i, j):
        A[[i, j]] = A[[j, i]]
        if U is not None:
            U[[i, j]] = U[[j, i]]
            Uinv[:, [i, j]] = Uinv[:, [j, i]]

    def row_scale(i, u):
        A[i] = (A[i] * u) % N
        if U is not None:
            U[i] = (U[i] * u) % N
            Uinv[:, i] = (Uinv[:, i] * modinv(u, N)) % N

    def rows_sub(idx, q, t):
        A[idx] = (A[idx] - q[:, None] * A[t]) % N
        if U is not None:
            U[idx] = (U[idx] - q[:, None] * U[t]) % N
            Uinv[:, t] = (Uinv[:, t] + Uinv[:, idx] @ q) % N

    def row_add(t, i):
        A[t] = (A[t] + A[i]) % N
        if U is not None:
            U[t] = (U[t] + U[i]) % N
            Uinv[:, i] = (Uinv[:, i] - Uinv[:, t]) % N

    def rows_combine(t, i, s, tt, p, ai, g):
        rt, ri = A[t].copy(), A[i].copy()
        A[t] = (s * rt + tt * ri) % N
        A[i] = ((p // g) * ri - (ai // g) * rt) % N
        if U is not None:
            ut, ui = U[t].copy(), U[i].copy()
            U[t] = (s * ut + tt * ui) % N
            U[i] = ((p // g) * ui - (ai // g) * ut) % N
            ct, ci = Uinv[:, t].copy(), Uinv[:, i].copy()
            Uinv[:, t] = ((p // g) * ct + (ai // g) * ci) % N
            Uinv[:, i] = (s * ci - tt * ct) % N

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
    return SnfResult(diag=diag, U=U, Uinv=Uinv, V=V, Vinv=Vinv)


class ModularSolver:
    """Solve A x ≡ b (mod N) for many right-hand sides off one factorization."""

    def __init__(self, A, n_mod):
        N = int(n_mod)
        A = np.atleast_2d(np.asarray(A, dtype=np.int64))
        m, n = A.shape
        _check_int64(N, n + m)
        self.N = N
        self.ncols = n
        B = _with_identity(A, N).basis()
        R, C = B[:, :n], B[:, n:]
        snf = snf_mod(R, N, want_u=True, want_v=True)
        self.V = snf.V
        self.W = (snf.U @ C) % N
        self.diag = snf.diag
        self.nrows = R.shape[0]

    def solve(self, b):
        """A particular solution x with A x ≡ b, or None if none exists."""
        N = self.N
        c = (self.W @ (np.asarray(b, dtype=np.int64) % N)) % N
        y = np.zeros(self.ncols, dtype=np.int64)
        for i in range(self.nrows):
            ci = int(c[i])
            if i >= self.ncols:
                if ci % N:
                    return None
                continue
            d = self.diag[i]
            if ci % d:
                return None
            if d != N:
                y[i] = ci // d
        return (self.V @ y) % N
