"""Linear algebra over Z/N: reduction canonicity, kernels, SNF, and solving."""
import itertools
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form

from gradalg.errors import ModulusTooLarge
from gradalg.modlin import (
    ModularSolver,
    RowReducer,
    howell_reduce,
    kernel_mod,
    modinv,
    snf_mod,
    unit_lift,
    xgcd,
)

moduli = st.integers(min_value=2, max_value=36)
# small enough to enumerate a span of up to four rows
tiny_moduli = st.integers(min_value=2, max_value=8)


def small_matrix(draw, n_mod, max_dim=4):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    data = draw(
        st.lists(
            st.lists(st.integers(0, n_mod - 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return np.array(data, dtype=np.int64)


@given(st.integers(-500, 500), st.integers(-500, 500))
def test_xgcd_bezout(a, b):
    g, s, t = xgcd(a, b)
    assert s * a + t * b == g
    if a or b:
        assert a % g == 0 and b % g == 0


def test_modinv():
    assert modinv(3, 7) == 5
    assert modinv(1, 1) == 0
    for n in (2, 5, 12, 36):
        for a in range(1, n):
            if np.gcd(a, n) == 1:
                assert a * modinv(a, n) % n == 1


@given(moduli, st.integers(0, 400))
def test_unit_lift_contract(n, a):
    u = unit_lift(a, n)
    assert np.gcd(u, n) == 1
    assert u * a % n == np.gcd(a, n) % n


@given(st.data(), moduli)
@settings(max_examples=60)
def test_reduce_vector_is_canonical_on_cosets(data, n):
    """Vectors differing by a row-span element reduce to the same thing."""
    A = small_matrix(data.draw, n)
    red = howell_reduce(A, n)
    v = np.array(data.draw(
        st.lists(st.integers(0, n - 1), min_size=A.shape[1], max_size=A.shape[1])))
    coeffs = np.array(data.draw(
        st.lists(st.integers(0, n - 1), min_size=A.shape[0], max_size=A.shape[0])))
    shifted = (v + coeffs @ A) % n
    assert (red.reduce_vector(v) == red.reduce_vector(shifted)).all()
    assert red.contains((coeffs @ A) % n)


def test_howell_basis_spans_input_rows():
    A = np.array([[2, 4], [4, 2]])
    red = howell_reduce(A, 6)
    for row in A:
        assert red.contains(row)
    # 3*(2,4) = (0,0) mod 6 but 3*(2,4)+ (4,2) = (4,2): span membership only
    assert not red.contains([1, 0])


def span(rows, n, width):
    """Every Z/n-combination of the rows, by enumeration."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, width)
    if not rows.shape[0]:
        return {(0,) * width}
    coeffs = np.array(list(itertools.product(range(n), repeat=rows.shape[0])), dtype=np.int64)
    return {tuple(v) for v in (coeffs @ rows) % n}


@given(st.data(), tiny_moduli)
@settings(max_examples=80, deadline=None)
def test_basis_is_reduced_howell_form(data, n):
    A = small_matrix(data.draw, n)
    B = howell_reduce(A, n).basis()
    width = A.shape[1]
    assert ((B >= 0) & (B < n)).all()
    lead = [int(np.flatnonzero(row)[0]) for row in B]  # no zero rows
    assert lead == sorted(set(lead))
    for i, c in enumerate(lead):
        p = B[i, c]
        assert n % p == 0
        assert (B[:i, c] < p).all()
    # Howell property: the span vectors vanishing up to column c are exactly
    # the span of the rows whose pivot lies right of c
    full = span(B, n, width)
    for c in range(width):
        vanishing = {v for v in full if not any(v[:c + 1])}
        right = [row for row, col in zip(B, lead) if col > c]
        assert vanishing == span(right, n, width)


@given(st.data(), tiny_moduli)
@settings(max_examples=80, deadline=None)
def test_basis_spans_exactly_the_input_rows(data, n):
    A = small_matrix(data.draw, n)
    assert span(howell_reduce(A, n).basis(), n, A.shape[1]) == span(A, n, A.shape[1])


@given(st.data(), moduli)
@settings(max_examples=80)
def test_basis_bytes_ignore_row_order_and_split(data, n):
    A = small_matrix(data.draw, n, max_dim=5)
    extra = data.draw(st.lists(st.integers(0, n - 1), min_size=A.shape[0], max_size=A.shape[0]))
    rows = np.vstack([A, (np.array(extra) @ A) % n])  # a redundant row changes no span
    order = data.draw(st.permutations(range(rows.shape[0])))
    cut = data.draw(st.integers(0, rows.shape[0]))
    red = RowReducer(n, A.shape[1])
    red.add_matrix(rows[list(order[:cut])])
    red.add_matrix(rows[list(order[cut:])])
    assert red.basis().tobytes() == howell_reduce(A, n).basis().tobytes()


def test_basis_bytes_ignore_row_blocking():
    """Inputs longer than one elimination block give the same bytes fed any way."""
    rng = np.random.default_rng(7)
    A = rng.integers(0, 12, size=(150, 6)) * rng.integers(0, 2, size=(150, 6))
    whole = howell_reduce(A, 12).basis()
    one_by_one = RowReducer(12, 6)
    for row in A[::-1]:
        one_by_one.add_matrix(row)
    assert one_by_one.basis().tobytes() == whole.tobytes()
    assert whole.shape[0] == 6


@given(st.data(), moduli)
@settings(max_examples=60)
def test_kernel_mod_annihilates(data, n):
    A = small_matrix(data.draw, n)
    K = kernel_mod(A, n)
    if K.shape[0]:
        assert ((A @ K.T) % n == 0).all()


def test_kernel_mod_exact_small():
    K = kernel_mod([[2]], 4)
    spanned = {tuple((c * K[i]) % 4) for i in range(K.shape[0]) for c in range(4)}
    assert {(0,), (2,)} <= spanned
    assert (1,) not in spanned
    full = kernel_mod(np.zeros((0, 3), dtype=np.int64), 5)
    assert full.shape == (3, 3)


@given(st.data(), moduli)
@settings(max_examples=60)
def test_snf_transforms_witness(data, n):
    A = small_matrix(data.draw, n)
    res = snf_mod(A, n, want_u=True, want_v=True)
    D = (res.U @ A @ res.V) % n
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            expect = res.diag[j] % n if i == j else 0
            assert D[i, j] == expect
    # transforms invert each other
    assert ((res.U @ res.Uinv) % n == np.eye(A.shape[0], dtype=np.int64) % n).all()
    assert ((res.V @ res.Vinv) % n == np.eye(A.shape[1], dtype=np.int64) % n).all()


@given(st.data(), moduli)
@settings(max_examples=60, deadline=None)
def test_snf_diag_matches_sympy_over_the_integers(data, n):
    """Over Z/n the invariant factors are gcd(d_i, n) of the integer Smith form."""
    A = small_matrix(data.draw, n)
    r, c = A.shape
    S = smith_normal_form(Matrix(A.tolist()), domain=ZZ)
    d = [abs(int(S[i, i])) for i in range(min(r, c))]
    expect = tuple(gcd(x, n) for x in d) + (n,) * (c - min(r, c))
    assert snf_mod(A, n).diag == expect


def test_snf_divisibility():
    res = snf_mod([[2, 0], [0, 6]], 12)
    assert list(res.diag) == [2, 6]
    for a, b in zip(res.diag, res.diag[1:]):
        assert b % a == 0


@given(st.data(), moduli)
@settings(max_examples=80)
def test_solver_finds_planted_solution(data, n):
    A = small_matrix(data.draw, n)
    x0 = np.array(data.draw(
        st.lists(st.integers(0, n - 1), min_size=A.shape[1], max_size=A.shape[1])))
    b = (A @ x0) % n
    solver = ModularSolver(A, n)
    x = solver.solve(b)
    assert x is not None
    assert ((A @ x) % n == b).all()


def test_solver_reports_unsolvable():
    assert ModularSolver([[2]], 4).solve([1]) is None
    assert ModularSolver([[2, 0], [0, 2]], 4).solve([1, 0]) is None


def test_solver_many_rhs_reuse():
    A = [[2, 1, 0], [0, 3, 1]]
    solver = ModularSolver(A, 12)
    hits = 0
    for b0 in range(12):
        for b1 in range(0, 12, 5):
            x = solver.solve([b0, b1])
            if x is not None:
                hits += 1
                assert ((np.array(A) @ x) % 12 == [b0, b1]).all()
    assert hits > 0


@pytest.mark.parametrize("n", [2, 3, 4, 6, 9])
def test_kernel_matches_brute_force(n):
    A = np.array([[2, 4], [3, 0]])
    K = kernel_mod(A, n)
    red = howell_reduce(K, n) if K.shape[0] else None
    for x0 in range(n):
        for x1 in range(n):
            v = np.array([x0, x1])
            in_kernel = ((A @ v) % n == 0).all()
            spanned = red.contains(v) if red is not None else not v.any()
            assert in_kernel == spanned


def test_modulus_too_large_is_refused():
    """int64 holds a width-term dot product of residues only while N*N*width < 2**63."""
    big = 2 ** 31
    RowReducer(big, 1)
    snf_mod(np.ones((1, 1), dtype=np.int64), big)
    with pytest.raises(ModulusTooLarge):
        RowReducer(big, 2)
    with pytest.raises(ModulusTooLarge):
        snf_mod(np.ones((2, 1), dtype=np.int64), big)
    with pytest.raises(ModulusTooLarge):
        ModularSolver(np.ones((1, 1), dtype=np.int64), big)
    # the default working modulus |G|*exp(G) at the default order cap of 64,
    # at the widest system the engine builds there, is far inside the bound
    n = 64
    RowReducer(n * n, 2 * (n - 1) ** 2)
    assert (n * n) ** 2 * 2 * (n - 1) ** 2 < 2 ** 63 // 10 ** 6
