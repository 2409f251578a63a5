"""Linear algebra over Z/N: reduction canonicity, kernels, SNF, and solving."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradalg.modlin import (
    ModularSolver,
    howell_reduce,
    kernel_mod,
    modinv,
    snf_mod,
    unit_lift,
    xgcd,
)

moduli = st.integers(min_value=2, max_value=36)


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
