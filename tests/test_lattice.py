from __future__ import annotations

import random

import pytest

from zipk0.lattice import (
    cokernel_invariants,
    cokernel_torsion,
    determinant,
    hermite_row_basis,
    kernel_basis,
    solve_linear_diophantine,
)

from oracles import (
    IntegerMatrix,
    dense_hermite_row_basis,
    dense_kernel_basis,
    dense_solve_linear_diophantine,
    diagonal_of,
    hermite_remainder,
    smith_cokernel_invariants,
    smith_kernel_basis,
    smith_normal_form,
    smith_solve,
)


def check_snf(m: IntegerMatrix) -> IntegerMatrix:
    s, u, v = smith_normal_form(m)
    assert u.mul(m).mul(v).entries == s.entries
    assert abs(u.determinant()) == 1
    assert abs(v.determinant()) == 1
    diag = diagonal_of(s)
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert s.entries[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return s


def test_snf_1x1():
    s = check_snf(IntegerMatrix.from_rows([[2]]))
    assert diagonal_of(s) == [2]


def test_snf_identity():
    s = check_snf(IntegerMatrix.identity(2))
    assert diagonal_of(s) == [1, 1]


def test_snf_2x2_hand_reduced():
    # Row/column reduction by hand gives diag(2, 4):
    # gcd of all entries is 2; det = 16-24 = -8, so d1*d2 = 8.
    s = check_snf(IntegerMatrix.from_rows([[2, 4], [6, 8]]))
    assert diagonal_of(s) == [2, 4]


@pytest.mark.parametrize("seed", range(20))
def test_snf_random_matrices(seed):
    rng = random.Random(seed)
    nr = rng.randint(1, 5)
    nc = rng.randint(1, 5)
    m = IntegerMatrix.from_rows(
        [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
    )
    check_snf(m)


def test_cokernel_examples():
    assert cokernel_invariants([[2]], 1) == [2]
    assert cokernel_invariants([[1, 0]], 2) == [1, 0]
    # SL2 coroot (1) inside Z: trivial fundamental group.
    assert cokernel_invariants([[1]], 1) == [1]


def test_cokernel_independent_of_generating_set():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        cols = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)]
        base = cokernel_invariants(cols, n)
        # Append Z-combinations of existing columns: same span, same answer.
        extra = list(cols)
        for _ in range(rng.randint(1, 3)):
            coeffs = [rng.randint(-3, 3) for _ in cols]
            extra.append([sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(n)])
        again = cokernel_invariants(extra, n)
        assert base == again


@pytest.mark.parametrize("seed", range(4))
def test_cokernel_torsion_matches_smith_form(seed):
    # Independent columns: random ones, with the nonzero Smith invariants
    # (and extra primes) as factors, and echelon ones with small pivots and
    # large entries below them, as the quotient module builds, with the
    # pivots as factors.
    rng = random.Random(seed)
    for _ in range(30):
        n = rng.randint(1, 6)
        k = rng.randint(1, n)
        if rng.random() < 0.5:
            cols = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)]
            invariants = smith_cokernel_invariants(IntegerMatrix.from_columns(cols, nrows=n))
            factors = [d for d in invariants if d]
            if len(factors) < k:
                continue
            factors.append(rng.choice((1, 6, 25, 49 * 11)))
        else:
            rows = sorted(rng.sample(range(n), k))
            factors = [rng.choice((2, 3, 4, 6, 9, 10)) for _ in rows]
            cols = []
            for r, d in zip(rows, factors):
                col = [0] * n
                col[r] = d
                for below in range(r + 1, n):
                    col[below] = rng.randint(-9, 9) * rng.choice((1, 10 ** 15))
                cols.append(col)
            invariants = smith_cokernel_invariants(IntegerMatrix.from_columns(cols, nrows=n))
        want = tuple(sorted(d for d in invariants if d > 1))
        assert cokernel_torsion(cols, factors) == want


def test_cokernel_torsion_examples():
    assert cokernel_torsion([], []) == ()
    assert cokernel_torsion([[2, -3, 0]], [2]) == ()               # 2x = 3y: Z^2
    assert cokernel_torsion([[4, 0], [0, 6]], [4, 6]) == (2, 12)
    assert cokernel_torsion([[3, 0, 0], [1, 3, 0]], [3, 3]) == (9,)
    with pytest.raises(ValueError):
        cokernel_torsion([[1, 2], [2, 4]], [5])                    # dependent


def test_diophantine_examples():
    assert solve_linear_diophantine([[2]], [4], 1) == (2,)
    assert kernel_basis([[2]], 1) == ()

    assert solve_linear_diophantine([[2]], [3], 1) is None

    assert solve_linear_diophantine([[1, 1]], [0], 2) == (0, 0)
    ker = kernel_basis([[1, 1]], 2)
    assert len(ker) == 1
    assert ker[0] in ((1, -1), (-1, 1))


@pytest.mark.parametrize("seed", range(20))
def test_diophantine_random(seed):
    rng = random.Random(100 + seed)
    nr = rng.randint(1, 4)
    nc = rng.randint(1, 4)
    rows = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
    m = IntegerMatrix.from_rows(rows)
    # Solvable by construction: b = m * (random integer vector).
    x0 = [rng.randint(-4, 4) for _ in range(nc)]
    b = m.mul_vector(x0)
    x = solve_linear_diophantine(rows, b, nc)
    assert x is not None
    assert m.mul_vector(x) == b
    ker = kernel_basis(rows, nc)
    for v in ker:
        assert m.mul_vector(v) == (0,) * nr
    # Kernel rank is nc - rank(m).
    s, _, _ = smith_normal_form(m)
    rank = sum(1 for d in diagonal_of(s) if d != 0)
    assert len(ker) == nc - rank


def test_determinant_of_singular_and_non_square_matrices():
    # A zero pivot with no nonzero entry below it ends the elimination at 0.
    assert determinant([[0, 1, 2], [0, 3, 4], [0, 6, 7]]) == 0
    assert determinant([[1, 2], [2, 4]]) == 0
    with pytest.raises(ValueError, match="non-square"):
        determinant([[1, 2, 3], [4, 5, 6]])


def test_determinant_of_the_empty_matrix_is_one():
    assert determinant([]) == 1  # the empty product


def test_kernel_basis_spans_kernel():
    m = IntegerMatrix.from_rows([[1, 2, 3]])
    ker = kernel_basis(m.entries, 3)
    assert len(ker) == 2
    for v in ker:
        assert m.mul_vector(v) == (0,)


def test_hermite_row_basis_canonical():
    a = hermite_row_basis([(2, 0), (0, 3), (2, 3)], 2)
    b = hermite_row_basis([(2, 3), (2, 0), (4, 3)], 2)
    assert a == b == ((2, 0), (0, 3))
    # Span comparison distinguishes index-2 sublattice from the full lattice.
    assert hermite_row_basis([(1, 0), (0, 1)], 2) != hermite_row_basis([(1, 0), (0, 2)], 2)


# ---------------------------------------------------------------------------
# The Hermite layer against the Smith-form oracle


def assert_hermite_form(h, ncols):
    """Echelon rows, positive pivots, entries above each pivot in [0, pivot)."""
    pivots = [next(j for j, x in enumerate(row) if x) for row in h]
    assert pivots == sorted(set(pivots))
    for idx, j in enumerate(pivots):
        assert h[idx][j] > 0
        assert all(0 <= above[j] < h[idx][j] for above in h[:idx])
    assert all(len(row) == ncols for row in h)


def test_hermite_row_basis_canonical_example():
    # Two bases of one sublattice of Z^5.  Reducing above the pivots from the
    # last pivot up gave them different first rows.
    a = hermite_row_basis([(1, -2, -1, 0, 0), (0, 2, 1, 1, 0), (0, -1, 1, 0, 1)], 5)
    b = hermite_row_basis([(1, 0, 6, 3, 4), (0, 1, 2, 1, 1), (0, 0, 3, 1, 2)], 5)
    assert a == b == ((1, 0, 0, 1, 0), (0, 1, 2, 1, 1), (0, 0, 3, 1, 2))


@pytest.mark.parametrize("seed", range(6))
def test_hermite_row_basis_invariant_under_unimodular_mixing(seed):
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        h = hermite_row_basis(rows, n)
        assert_hermite_form(h, n)
        assert not any(any(hermite_remainder(h, r)) for r in rows)
        # Mix: add multiples of one row to another, negate, append
        # combinations and zero rows, then shuffle.
        mixed = [list(r) for r in rows]
        for _ in range(rng.randint(1, 8)):
            i, j = rng.randrange(len(mixed)), rng.randrange(len(mixed))
            if i != j:
                c = rng.randint(-3, 3)
                mixed[i] = [x + c * y for x, y in zip(mixed[i], mixed[j])]
            else:
                mixed[i] = [-x for x in mixed[i]]
        coeffs = [rng.randint(-2, 2) for _ in rows]
        mixed.append([sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(n)])
        mixed.append([0] * n)
        rng.shuffle(mixed)
        assert hermite_row_basis(mixed, n) == h


def random_matrix(rng):
    """Rows of a random matrix with at least one column; some columns zero,
    some combinations of others, and sometimes no rows at all."""
    nr = rng.randint(0, 4)
    nc = rng.randint(1, 5)
    cols = []
    for _ in range(nc):
        kind = rng.random()
        if kind < 0.15:
            cols.append([0] * nr)
        elif kind < 0.35 and cols:
            a, b = rng.choice(cols), rng.choice(cols)
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            cols.append([s * x + t * y for x, y in zip(a, b)])
        else:
            cols.append([rng.randint(-6, 6) for _ in range(nr)])
    return [[c[i] for c in cols] for i in range(nr)], nc


@pytest.mark.parametrize("seed", range(5))
def test_kernel_basis_matches_smith_kernel(seed):
    rng = random.Random(1000 + seed)
    for _ in range(80):
        rows, nc = random_matrix(rng)
        ker = kernel_basis(rows, nc)
        assert_hermite_form(ker, nc)
        oracle = smith_kernel_basis(IntegerMatrix(len(rows), nc, tuple(map(tuple, rows))))
        assert ker == hermite_row_basis(oracle, nc)


def test_kernel_basis_without_rows_is_the_identity():
    assert kernel_basis([], 3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@pytest.mark.parametrize("seed", range(5))
def test_solve_matches_smith_solve(seed):
    rng = random.Random(2000 + seed)
    for _ in range(80):
        rows, nc = random_matrix(rng)
        m = IntegerMatrix(len(rows), nc, tuple(map(tuple, rows)))
        solvable = list(m.mul_vector([rng.randint(-4, 4) for _ in range(nc)]))
        arbitrary = [rng.randint(-6, 6) for _ in rows]
        for b in (solvable, arbitrary):
            x = solve_linear_diophantine(rows, b, nc)
            assert (x is None) == (smith_solve(m, b) is None)
            if x is not None:
                assert list(m.mul_vector(x)) == b
    with pytest.raises(ValueError):
        solve_linear_diophantine([[1, 2]], [1, 2], 2)


@pytest.mark.parametrize("seed", range(5))
def test_cokernel_invariants_match_smith_form(seed):
    rng = random.Random(3000 + seed)
    for _ in range(80):
        rows, nc = random_matrix(rng)
        n = rng.randint(1, 5)
        # Read the random matrix's rows as columns in Z^n, zero-padded or cut.
        cols = [(list(r) + [0] * n)[:n] for r in rows]
        got = cokernel_invariants(cols, n)
        assert got == smith_cokernel_invariants(IntegerMatrix.from_columns(cols, nrows=n))
        assert len(got) == n
    assert cokernel_invariants([], 2) == [0, 0]


def sparse_test_matrix(rng):
    """Rows of a mostly-zero random matrix with zero rows, duplicate and
    negated rows, leading entries of either sign, and some entries of 2^64
    and beyond."""
    nc = rng.randint(1, 9)
    rows = []
    for _ in range(rng.randint(0, 9)):
        kind = rng.random()
        if kind < 0.1:
            rows.append([0] * nc)
        elif kind < 0.3 and rows:
            rows.append([rng.choice((1, -1)) * x for x in rng.choice(rows)])
        else:
            scale = 2 ** rng.randint(64, 80) if rng.random() < 0.2 else 1
            rows.append([rng.randint(-7, 7) * scale if rng.random() < 0.3 else 0 for _ in range(nc)])
    return rows, nc


@pytest.mark.parametrize("seed", range(5))
def test_sparse_elimination_matches_dense_oracle(seed):
    # The same Hermite bases, kernels and solves as the dense elimination,
    # whether the rows come dense or as {column: entry} dicts.
    rng = random.Random(4000 + seed)
    for _ in range(150):
        rows, nc = sparse_test_matrix(rng)
        sparse = [{j: x for j, x in enumerate(r) if x} for r in rows]
        h = dense_hermite_row_basis(rows, nc)
        assert hermite_row_basis(rows, nc) == hermite_row_basis(sparse, nc) == h
        ker = dense_kernel_basis(rows, nc)
        assert kernel_basis(rows, nc) == kernel_basis(sparse, nc) == ker
        x = [rng.randint(-3, 3) for _ in range(nc)]
        solvable = [sum(a * b for a, b in zip(r, x)) for r in rows]
        arbitrary = [rng.randint(-5, 5) * 2 ** rng.choice((0, 64)) for _ in rows]
        for b in (solvable, arbitrary):
            want = dense_solve_linear_diophantine(rows, b, nc)
            assert solve_linear_diophantine(rows, b, nc) == solve_linear_diophantine(sparse, b, nc) == want
