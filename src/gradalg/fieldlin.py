"""Dense exact linear algebra over a cyclotomic field.

Matrices are lists of rows of CycloNumber, reduced by Gauss-Jordan with
exact inverses, so every output is canonical.  Callers keep the matrices
small: `identities` hands over a minor of at most n! <= 24 rows that it
picked modulo a prime, and checks the rows left out itself.
"""

from __future__ import annotations


def rref(rows, field):
    """Reduced row echelon form.

    Returns (reduced, pivots) where reduced holds only the nonzero rows,
    each with a leading 1, and pivots lists their pivot columns in order.
    A pivot row is zero left of its pivot, so eliminating with it touches
    only the columns right of the pivot where it is nonzero.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    width = len(mat[0])
    zero = field.zero()
    pivots = []
    rank = 0
    for col in range(width):
        src = next((r for r in range(rank, len(mat)) if not mat[r][col].is_zero()), None)
        if src is None:
            continue
        mat[rank], mat[src] = mat[src], mat[rank]
        piv = mat[rank]
        if not piv[col].is_one():
            inv = piv[col].inv()
            piv[col:] = [inv * v for v in piv[col:]]
        support = [j for j in range(col + 1, width) if not piv[j].is_zero()]
        for r in range(len(mat)):
            row = mat[r]
            if r != rank and not row[col].is_zero():
                c = row[col]
                row[col] = zero
                for j in support:
                    row[j] = row[j] - c * piv[j]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return mat[:rank], pivots


def residual(reduced, pivots, vec):
    """What is left of vec after eliminating against an rref basis."""
    v = list(vec)
    for r, pc in enumerate(pivots):
        c = v[pc]
        if not c.is_zero():
            v = [a if b.is_zero() else a - c * b for a, b in zip(v, reduced[r])]
    return v


def in_span(reduced, pivots, vec):
    return all(x.is_zero() for x in residual(reduced, pivots, vec))


def kernel_basis(reduced, pivots, width, field):
    """Canonical basis of the right kernel {v : A v = 0}, given rref(A).

    One vector per free column, in ascending column order, with a 1 in the
    free coordinate.  An empty matrix yields the standard basis.
    """
    pivot_set = set(pivots)
    basis = []
    for free in range(width):
        if free in pivot_set:
            continue
        v = [field.zero()] * width
        v[free] = field.one()
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][free]
        basis.append(v)
    return basis
