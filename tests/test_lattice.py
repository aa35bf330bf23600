from __future__ import annotations

import random

import pytest

from zipk0.lattice import (
    IntegerMatrix,
    cokernel_invariants,
    cokernel_torsion,
    diagonal_of,
    hermite_row_basis,
    kernel_basis,
    smith_normal_form,
    solve_linear_diophantine,
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
    assert cokernel_invariants(IntegerMatrix.from_columns([[2]])) == [2]
    assert cokernel_invariants(IntegerMatrix.from_columns([[1, 0]])) == [1, 0]
    # SL2 coroot (1) inside Z: trivial fundamental group.
    assert cokernel_invariants(IntegerMatrix.from_columns([[1]])) == [1]


def test_cokernel_independent_of_generating_set():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        cols = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)]
        base = cokernel_invariants(IntegerMatrix.from_columns(cols, nrows=n))
        # Append Z-combinations of existing columns: same span, same answer.
        extra = list(cols)
        for _ in range(rng.randint(1, 3)):
            coeffs = [rng.randint(-3, 3) for _ in cols]
            extra.append([sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(n)])
        again = cokernel_invariants(IntegerMatrix.from_columns(extra, nrows=n))
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
            invariants = cokernel_invariants(IntegerMatrix.from_columns(cols, nrows=n))
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
            invariants = cokernel_invariants(IntegerMatrix.from_columns(cols, nrows=n))
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
    m = IntegerMatrix.from_rows([[2]])
    sol = solve_linear_diophantine(m, [4])
    assert sol is not None
    x, ker = sol
    assert x == (2,)
    assert ker == []

    assert solve_linear_diophantine(m, [3]) is None

    m = IntegerMatrix.from_rows([[1, 1]])
    sol = solve_linear_diophantine(m, [0])
    assert sol is not None
    x, ker = sol
    assert x == (0, 0)
    assert len(ker) == 1
    assert ker[0] in ((1, -1), (-1, 1))


@pytest.mark.parametrize("seed", range(20))
def test_diophantine_random(seed):
    rng = random.Random(100 + seed)
    nr = rng.randint(1, 4)
    nc = rng.randint(1, 4)
    m = IntegerMatrix.from_rows(
        [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
    )
    # Solvable by construction: b = m * (random integer vector).
    x0 = [rng.randint(-4, 4) for _ in range(nc)]
    b = m.mul_vector(x0)
    sol = solve_linear_diophantine(m, b)
    assert sol is not None
    x, ker = sol
    assert m.mul_vector(x) == b
    for v in ker:
        assert m.mul_vector(v) == (0,) * nr
    # Kernel rank is nc - rank(m).
    s, _, _ = smith_normal_form(m)
    rank = sum(1 for d in diagonal_of(s) if d != 0)
    assert len(ker) == nc - rank


def test_kernel_basis_spans_kernel():
    m = IntegerMatrix.from_rows([[1, 2, 3]])
    ker = kernel_basis(m)
    assert len(ker) == 2
    for v in ker:
        assert m.mul_vector(v) == (0,)


def test_hermite_row_basis_canonical():
    a = hermite_row_basis([(2, 0), (0, 3), (2, 3)], 2)
    b = hermite_row_basis([(2, 3), (2, 0), (4, 3)], 2)
    assert a == b == ((2, 0), (0, 3))
    # Span comparison distinguishes index-2 sublattice from the full lattice.
    assert hermite_row_basis([(1, 0), (0, 1)], 2) != hermite_row_basis([(1, 0), (0, 2)], 2)
