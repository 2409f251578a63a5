"""Linear algebra over Z/N: Howell-form row reduction, diagonalization, solving.

All moduli stay small (at most a few thousand), so rows live in int64 numpy
arrays and every intermediate product fits with room to spare. The Howell
completion rows make coset reduction canonical: reduce_vector returns the
same vector for any two inputs that differ by an element of the row span,
which downstream code uses for membership tests and for deterministic choice
of representatives.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np


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


class RowReducer:
    """Incremental Howell-form echelon over Z/N.

    Keeps one pivot row per pivot column (leading entry a divisor of N) plus
    the completion rows that make the form canonical. Insertion never shrinks
    the row span.
    """

    def __init__(self, n_mod, width):
        self.N = int(n_mod)
        self.width = int(width)
        self.piv = {}

    def basis(self):
        if not self.piv:
            return np.zeros((0, self.width), dtype=np.int64)
        return np.stack([self.piv[c] for c in sorted(self.piv)])

    def insert(self, vec):
        N = self.N
        stack = [np.asarray(vec, dtype=np.int64) % N]
        while stack:
            row = stack.pop()
            while True:
                nz = np.nonzero(row)[0]
                if nz.size == 0:
                    break
                c = int(nz[0])
                a = int(row[c])
                piv = self.piv.get(c)
                if piv is None:
                    u = unit_lift(a, N)
                    if u != 1:
                        row = (u * row) % N
                    g = int(row[c])
                    self.piv[c] = row
                    comp = ((N // g) * row) % N
                    if comp.any():
                        stack.append(comp)
                    break
                p = int(piv[c])
                if a % p == 0:
                    row = (row - (a // p) * piv) % N
                else:
                    g, s, t = xgcd(p, a)
                    combined = (s * piv + t * row) % N
                    residual = ((p // g) * row - (a // g) * piv) % N
                    self.piv[c] = combined
                    comp = ((N // g) * combined) % N
                    if comp.any():
                        stack.append(comp)
                    row = residual
        return self

    def add_matrix(self, mat, chunk=512):
        mat = np.atleast_2d(np.asarray(mat, dtype=np.int64)) % self.N
        for lo in range(0, mat.shape[0], chunk):
            block = mat[lo:lo + chunk].copy()
            for c in sorted(self.piv):
                prow = self.piv[c]
                q = block[:, c] // int(prow[c])
                if q.any():
                    block = (block - q[:, None] * prow[None, :]) % self.N
            for row in block:
                if row.any():
                    self.insert(row)
        return self

    def reduce_vector(self, vec):
        v = np.asarray(vec, dtype=np.int64) % self.N
        for c in sorted(self.piv):
            prow = self.piv[c]
            q = int(v[c]) // int(prow[c])
            if q:
                v = (v - q * prow) % self.N
        return v

    def contains(self, vec):
        return not self.reduce_vector(vec).any()


def howell_reduce(mat, n_mod):
    mat = np.atleast_2d(np.asarray(mat, dtype=np.int64))
    red = RowReducer(n_mod, mat.shape[1])
    red.add_matrix(mat)
    return red


def kernel_mod(A, n_mod):
    """Generator rows of {x : A @ x ≡ 0 (mod n_mod)}."""
    A = np.atleast_2d(np.asarray(A, dtype=np.int64)) % n_mod
    m, n = A.shape
    if m == 0:
        return np.eye(n, dtype=np.int64)
    red = RowReducer(n_mod, m + n)
    red.add_matrix(np.concatenate([A.T, np.eye(n, dtype=np.int64)], axis=1))
    gens = [row[m:] for c, row in sorted(red.piv.items()) if c >= m]
    if not gens:
        return np.zeros((0, n), dtype=np.int64)
    return np.stack(gens)


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
    A = np.atleast_2d(np.asarray(A, dtype=np.int64)).copy() % N
    r, c = A.shape
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
        A = np.atleast_2d(np.asarray(A, dtype=np.int64)) % N
        m, n = A.shape
        self.N = N
        self.ncols = n
        red = RowReducer(N, n + m)
        red.add_matrix(np.concatenate([A, np.eye(m, dtype=np.int64)], axis=1))
        B = red.basis()
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
