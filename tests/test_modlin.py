"""Linear algebra over Z/N: reduction canonicity, kernels, SNF, and solving."""
import itertools
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix, divisors
from sympy.matrices.normalforms import smith_normal_form

from gradalg import modlin
from gradalg.errors import ModulusTooLarge, ValidationError
from gradalg.modlin import (
    _BLOCK_ROWS,
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


# -- reference: incremental reduced Howell form over Z/N itself -------------------

class _IncrementalReducer:
    """Reduced Howell form over Z/N by inserting rows one at a time, with gcd
    steps over Z/N: the form RowReducer must reproduce byte for byte.

    Keeps one pivot row per pivot column. A row is reduced against the
    pivots, then placed at its leading column: a new pivot is scaled to
    gcd(entry, N), and a row that meets a pivot replaces it by the gcd of the
    two entries, the leftover combination going back on the stack. The rows
    above are then re-reduced, and a non-unit pivot row r also pushes its
    completion (N/pivot)*r.
    """

    def __init__(self, n_mod, width):
        self.N = int(n_mod)
        self.width = int(width)
        self._rows = np.zeros((0, self.width), dtype=np.int64)
        self._k = 0
        self._slot = np.full(self.width, -1, dtype=np.intp)
        self._pivot = np.full(self.width, self.N, dtype=np.int64)
        self._nonunit = np.zeros(self.width, dtype=bool)

    def basis(self):
        return self._rows[self._slot[self._slot >= 0]]

    def add_matrix(self, mat):
        mat = np.atleast_2d(np.asarray(mat, dtype=np.int64))
        for lo in range(0, mat.shape[0], _BLOCK_ROWS):
            block = mat[lo:lo + _BLOCK_ROWS] % self.N
            self._reduce(block)
            for i in np.flatnonzero(block.any(axis=1)):
                self._insert(block[i])
        return self

    def reduce_vector(self, vec):
        v = np.asarray(vec, dtype=np.int64) % self.N
        return self._reduce(v[None, :])[0]

    def _reduce(self, block, start=0):
        piv = self._pivot
        hit = self._nonunit[start:] | (block[:, start:] >= piv[start:]).any(axis=0)
        for c in (hit.nonzero()[0] + start).tolist():
            q = block[:, c] // piv[c]
            idx = q.nonzero()[0]
            if idx.size:
                self._subtract(block, idx, c, q[idx], self._rows[self._slot[c]])
        return block

    def _subtract(self, rows, idx, c, q, prow):
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


# one, two and three distinct primes, and the trivial ring
oracle_moduli = st.sampled_from(list(range(1, 37)) + [72, 144, 192, 210, 4096])


def divisor_rows(draw, n_mod, max_rows, max_cols):
    """A matrix whose rows carry drawn divisors of n_mod, so that non-unit
    leading entries and vanishing rows are common."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    data = draw(st.lists(
        st.lists(st.integers(0, n_mod - 1), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))
    scale = draw(st.lists(st.sampled_from(divisors(n_mod)), min_size=rows, max_size=rows))
    return (np.array(data, dtype=np.int64) * np.array(scale)[:, None]) % n_mod


@given(st.data(), oracle_moduli)
@settings(max_examples=150, deadline=None)
def test_reducer_bytes_match_the_incremental_oracle(data, n):
    A = divisor_rows(data.draw, n, max_rows=9, max_cols=6)
    expect = _IncrementalReducer(n, A.shape[1]).add_matrix(A)
    cut = data.draw(st.integers(0, A.shape[0]))
    whole = RowReducer(n, A.shape[1]).add_matrix(A)
    by_row = RowReducer(n, A.shape[1])
    for row in A:
        by_row.add_matrix(row)
    split = RowReducer(n, A.shape[1]).add_matrix(A[:cut]).add_matrix(A[cut:])
    v = np.array(data.draw(st.lists(
        st.integers(-2 * n, 2 * n), min_size=A.shape[1], max_size=A.shape[1])))
    for red in (whole, by_row, split):
        assert red.basis().tobytes() == expect.basis().tobytes()
        assert red.basis().shape == expect.basis().shape
        assert red.reduce_vector(v).tobytes() == expect.reduce_vector(v).tobytes()


@pytest.mark.parametrize("n", [72, 144, 192, 210, 4096])
def test_reducer_bytes_match_the_oracle_across_blocks(n):
    """More rows than one elimination block, fed whole and in uneven pieces,
    with the [A | I] shape that kernel_mod feeds."""
    rng = np.random.default_rng(n)
    A = rng.integers(0, n, size=(150, 9)) * rng.integers(0, 2, size=(150, 9))
    A = (A * rng.choice([1, 2, 3, 4], size=(150, 1))) % n
    for mat in (A, np.hstack([A[:70], np.eye(70, dtype=np.int64)])):
        expect = _IncrementalReducer(n, mat.shape[1]).add_matrix(mat).basis()
        assert RowReducer(n, mat.shape[1]).add_matrix(mat).basis().tobytes() == expect.tobytes()
        pieces = RowReducer(n, mat.shape[1])
        for lo, hi in ((0, 5), (5, 100), (100, None)):
            pieces.add_matrix(mat[lo:hi])
        assert pieces.basis().tobytes() == expect.tobytes()


def test_reducer_bytes_match_the_oracle_past_float64():
    """Under a modulus whose residue products pass 2**53, reduction against
    the form mod N must leave float64 for int64 and stay exact."""
    n = 2**6 * 3**4 * 5**3 * 7**2 * 11
    rng = np.random.default_rng(3)
    A = rng.integers(0, n, size=(6, 8)) * np.array([[1], [1], [1], [1], [2 * 7], [3 * 5]]) % n
    expect = _IncrementalReducer(n, 8).add_matrix(A)
    red = RowReducer(n, 8).add_matrix(A[:3]).add_matrix(A[3:])
    assert red.basis().tobytes() == expect.basis().tobytes()
    for v in rng.integers(0, n, size=(20, 8)):
        assert red.reduce_vector(v).tobytes() == expect.reduce_vector(v).tobytes()


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
    assert _contains(red, (coeffs @ A) % n)


def _contains(red, vec):
    return not red.reduce_vector(vec).any()


def test_howell_basis_spans_input_rows():
    A = np.array([[2, 4], [4, 2]])
    red = howell_reduce(A, 6)
    for row in A:
        assert _contains(red, row)
    # 3*(2,4) = (0,0) mod 6 but 3*(2,4)+ (4,2) = (4,2): span membership only
    assert not _contains(red, [1, 0])


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
    res = snf_mod(A, n)
    D = (res.U @ A @ res.V) % n
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            expect = res.diag[j] % n if i == j else 0
            assert D[i, j] == expect
    # V is invertible, with inverse Vinv
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


@pytest.mark.parametrize("A, n, expect", [
    ([[2, 0], [0, 3]], 6, (1, 6)),
    ([[3, 0], [0, 2]], 6, (1, 6)),
    ([[2, 0], [0, 3]], 12, (1, 6)),
    ([[2, 0], [0, 3]], 210, (1, 6)),
    ([[4, 0], [0, 9]], 36, (1, 36)),
    ([[6, 0], [0, 10]], 30, (2, 30)),
    ([[2, 0, 0], [0, 3, 0], [0, 0, 5]], 30, (1, 1, 30)),
    ([[9, 0], [0, 8]], 8 * 3 ** 5, (1, 72)),
])
def test_snf_fixup_of_coprime_diagonal(A, n, expect):
    """A diagonal pivot that does not divide a later one is mended by adding
    the later row to the pivot row and clearing again: on these inputs
    snf_mod runs that row addition, an xgcd column combination and both
    re-loops of its pivot step."""
    res = snf_mod(A, n)
    assert res.diag == expect
    A = np.array(A, dtype=np.int64)
    r, c = A.shape
    D = np.zeros((r, c), dtype=np.int64)
    D[range(min(r, c)), range(min(r, c))] = res.diag[:min(r, c)]
    assert np.array_equal((res.U @ A @ res.V) % n, D % n)
    assert np.array_equal((res.V @ res.Vinv) % n, np.eye(c, dtype=np.int64))
    S = smith_normal_form(Matrix(A.tolist()), domain=ZZ)
    assert res.diag == tuple(gcd(abs(int(S[i, i])), n) for i in range(min(r, c)))


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


@given(st.data(), st.integers(1, 12))
@settings(max_examples=150, deadline=None)
def test_solver_says_no_exactly_when_brute_force_finds_no_solution(data, n):
    A = small_matrix(data.draw, n, max_dim=3)
    b = np.array(data.draw(
        st.lists(st.integers(0, n - 1), min_size=A.shape[0], max_size=A.shape[0])))
    xs = np.array(list(itertools.product(range(n), repeat=A.shape[1])), dtype=np.int64)
    solvable = bool(((xs @ A.T) % n == b).all(axis=1).any())
    x = ModularSolver(A, n).solve(b)
    assert (x is not None) == solvable
    if x is not None:
        assert ((A @ x) % n == b).all()


def test_solver_reports_unsolvable():
    assert ModularSolver([[2]], 4).solve([1]) is None
    assert ModularSolver([[2, 0], [0, 2]], 4).solve([1, 0]) is None


def test_solver_is_one_smith_form_of_a(monkeypatch):
    """The solver diagonalizes A itself, once, and runs no Howell pass."""
    calls = {"snf_mod": 0, "add_matrix": 0}
    snf, add = modlin.snf_mod, RowReducer.add_matrix

    def counted_snf(*args, **kwargs):
        calls["snf_mod"] += 1
        return snf(*args, **kwargs)

    def counted_add(self, mat):
        calls["add_matrix"] += 1
        return add(self, mat)

    monkeypatch.setattr(modlin, "snf_mod", counted_snf)
    monkeypatch.setattr(RowReducer, "add_matrix", counted_add)
    A = np.array([[2, 1, 0], [0, 3, 1], [4, 0, 2], [1, 1, 1]])
    solver = ModularSolver(A, 12)
    assert calls == {"snf_mod": 1, "add_matrix": 0}
    b = (A @ [1, 2, 3]) % 12
    assert ((A @ solver.solve(b)) % 12 == b).all()
    assert calls == {"snf_mod": 1, "add_matrix": 0}


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
            spanned = _contains(red, v) if red is not None else not v.any()
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


@pytest.mark.parametrize("n", [0, -8])
def test_nonpositive_modulus_is_refused(n):
    """Z/N needs N >= 1; snf_mod's pivot search would never end at N = -8."""
    one = np.ones((1, 1), dtype=np.int64)
    with pytest.raises(ValidationError, match="not positive"):
        RowReducer(n, 1)
    with pytest.raises(ValidationError, match="not positive"):
        snf_mod(one, n)
    with pytest.raises(ValidationError, match="not positive"):
        ModularSolver(one, n)
