"""Dense exact linear algebra over a cyclotomic field.

Matrices are lists of rows of CycloNumber.  The sizes that show up here
are tiny (identity-space columns are bounded by n! <= 24, rows by products
of component dimensions), so plain Gauss-Jordan with exact inverses is
fast enough and keeps every output canonical.
"""

from __future__ import annotations


def rref(rows, field):
    """Reduced row echelon form.

    Returns (reduced, pivots) where reduced holds only the nonzero rows,
    each with a leading 1, and pivots lists their pivot columns in order.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    width = len(mat[0])
    pivots = []
    rank = 0
    for col in range(width):
        src = next((r for r in range(rank, len(mat)) if not mat[r][col].is_zero()), None)
        if src is None:
            continue
        mat[rank], mat[src] = mat[src], mat[rank]
        inv = mat[rank][col].inv()
        mat[rank] = [inv * v for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and not mat[r][col].is_zero():
                c = mat[r][col]
                mat[r] = [a - c * b for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return mat[:rank], pivots


def rank(rows, field):
    return len(rref(rows, field)[0])


def residual(reduced, pivots, vec):
    """What is left of vec after eliminating against an rref basis."""
    v = list(vec)
    for r, pc in enumerate(pivots):
        c = v[pc]
        if not c.is_zero():
            v = [a - c * b for a, b in zip(v, reduced[r])]
    return v


def in_span(reduced, pivots, vec):
    return all(x.is_zero() for x in residual(reduced, pivots, vec))


def kernel_basis(rows, width, field):
    """Canonical basis of the right kernel {v : A v = 0}.

    One vector per free column, in ascending column order, with a 1 in the
    free coordinate.  An empty row list yields the standard basis.
    """
    reduced, pivots = rref(rows, field)
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
