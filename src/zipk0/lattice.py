"""Exact integer linear algebra by Hermite echelon forms: canonical lattice
bases, kernels, Diophantine solves and cokernel invariants.

Vectors are tuples of Python ints (arbitrary precision) and a matrix is the
list of its rows.  Every kernel, solve and cokernel here comes from one
routine, hermite_row_basis, and its reduction hermite_remainder: the kernel
and the image of A both sit in one Hermite basis of the rows
(column j of A | e_j) (Cohen, "A Course in Computational Algebraic Number
Theory", GTM 138, section 2.4).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence


Vector = tuple[int, ...]


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square matrix by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of non-square matrix")
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def cokernel_torsion(columns: Sequence[Sequence[int]], factors: Sequence[int]) -> tuple[int, ...]:
    """Invariant factors > 1 of Z^n / (span of the columns), ascending, for
    linearly independent columns, given nonzero `factors` whose product is
    a multiple of every invariant factor (a nonzero maximal minor is one).

    Each prime l of the factors is taken on its own, with a Smith form over
    Z/l^K for the least l^K that does not divide their product.  There every
    nonzero entry is a unit times a power of l, so the entry of least
    valuation divides its row and its column, one elimination per pivot
    suffices, and the entries stay below l^K however large the input is.
    The l-parts are then put together into the divisibility chain.
    """
    multiple = math.prod(factors)
    primes = sorted({ell for f in factors for ell in _prime_factors(abs(f))})
    parts: list[list[int]] = []
    for ell in primes:
        mod = ell
        while multiple % mod == 0:
            mod *= ell
        rows = [[x % mod for x in c] for c in columns]
        valuations = []
        while rows:
            best = None
            for i, row in enumerate(rows):
                for j, x in enumerate(row):
                    if x:
                        v = 0
                        while x % ell == 0:
                            x //= ell
                            v += 1
                        if best is None or v < best[0]:
                            best = (v, i, j, x)
                if best is not None and best[0] == 0:
                    break
            if best is None:
                raise ValueError("columns are dependent, or the factors miss an invariant factor")
            v, i, j, unit = best
            valuations.append(v)
            pivot_row = rows.pop(i)
            step = ell ** v
            inverse = pow(unit, -1, mod)
            for row in rows:
                if row[j]:
                    f = row[j] // step * inverse % mod
                    row[:] = [(x - f * y) % mod for x, y in zip(row, pivot_row)]
        parts.append(sorted((ell ** v for v in valuations if v), reverse=True))
    depth = max((len(part) for part in parts), default=0)
    chain = [math.prod(part[k] for part in parts if k < len(part)) for k in range(depth)]
    return tuple(sorted(chain))


def hermite_row_basis(vectors: Sequence[Sequence[int]], ncols: int) -> tuple[Vector, ...]:
    """Canonical (row-style Hermite) basis of the Z-span of the given vectors.

    Used to compare sublattices of Z^ncols for equality.
    """
    pivots: dict[int, list[int]] = {}  # leading column -> row with that pivot

    def leading(w: list[int], start: int) -> Optional[int]:
        for k in range(start, len(w)):
            if w[k] != 0:
                return k
        return None

    for vec in vectors:
        w = list(vec)
        j = 0
        while True:
            # Reduction at column j leaves w zero up to j, so the scan resumes there.
            j = leading(w, j)
            if j is None:
                break
            if j not in pivots:
                pivots[j] = w
                break
            piv = pivots[j]
            while w[j] != 0:
                if abs(w[j]) < abs(piv[j]):
                    pivots[j], w = w, pivots[j]
                    piv = pivots[j]
                q = w[j] // piv[j]
                w[j:ncols] = [x - q * y for x, y in zip(w[j:ncols], piv[j:ncols])]
    cols = sorted(pivots)
    # Normalize: positive pivots, entries above each pivot reduced into [0, pivot).
    basis = [pivots[j] if pivots[j][j] > 0 else [-x for x in pivots[j]] for j in cols]
    # Ascending pivots: row idx is zero left of its pivot, so reducing the rows
    # above by it leaves the columns of the earlier, already reduced pivots alone.
    for idx, j in enumerate(cols):
        piv = basis[idx]
        for above in basis[:idx]:
            q = above[j] // piv[j]
            if q:
                above[j:ncols] = [x - q * y for x, y in zip(above[j:ncols], piv[j:ncols])]
    return tuple(tuple(r) for r in basis)


def hermite_remainder(basis: Sequence[Sequence[int]], vector: Sequence[int]) -> Vector:
    """Reduce `vector` by a hermite_row_basis, pivot by pivot.

    Each row in turn is subtracted as often as floor division at its pivot
    allows, so the remainder is zero exactly when `vector` lies in the span.
    """
    w = list(vector)
    j = 0
    for row in basis:
        while not row[j]:  # pivots strictly increase down the rows
            j += 1
        q = w[j] // row[j]
        if q:
            w[j:] = [x - q * y for x, y in zip(w[j:], row[j:])]
        j += 1
    return tuple(w)


def _augmented_basis(rows: Sequence[Sequence[int]], ncols: int) -> tuple[Vector, ...]:
    """Hermite basis of the rows (column j of A | e_j), j < ncols, for the
    matrix A with the given rows.  Each of its rows is (A x | x) for some x."""
    aug = [tuple(r[j] for r in rows) + tuple(int(i == j) for i in range(ncols)) for j in range(ncols)]
    return hermite_row_basis(aug, len(rows) + ncols)


def kernel_basis(rows: Sequence[Sequence[int]], ncols: int) -> tuple[Vector, ...]:
    """Hermite basis of {x in Z^ncols : A x = 0}, for the matrix A with the
    given rows; with no rows it is the identity basis.

    The rows (A x | x) of the augmented basis whose A-part is zero come last,
    and their x-parts are the kernel's own Hermite basis.
    """
    nrows = len(rows)
    return tuple(r[nrows:] for r in _augmented_basis(rows, ncols) if not any(r[:nrows]))


def solve_linear_diophantine(
    rows: Sequence[Sequence[int]], b: Sequence[int], ncols: int
) -> Optional[Vector]:
    """One x in Z^ncols with A x = b, for the matrix A with the given rows, or
    None when there is none.

    Reducing (b | 0) by the augmented basis leaves (b - A y | -y).  Its A-part
    is zero exactly when b lies in the image of A, and then x = y.
    """
    if len(b) != len(rows):
        raise ValueError("right-hand side length does not match row count")
    nrows = len(rows)
    rem = hermite_remainder(_augmented_basis(rows, ncols), tuple(b) + (0,) * ncols)
    if any(rem[:nrows]):
        return None
    return tuple(-x for x in rem[nrows:])


def cokernel_invariants(columns: Sequence[Sequence[int]], nrows: int) -> list[int]:
    """Invariant factors of Z^nrows / (span of the columns), free parts as 0.

    The result is divisibility-ordered: d1 | d2 | ... | dr followed by one 0
    per free summand.  Trivial factors (1) are kept so the list always has
    `nrows` entries.  The Hermite basis of the columns is independent and its
    pivots multiply to a nonzero maximal minor, so cokernel_torsion applies.
    """
    h = hermite_row_basis(columns, nrows)
    torsion = cokernel_torsion(h, [next(x for x in row if x) for row in h])
    return [1] * (len(h) - len(torsion)) + list(torsion) + [0] * (nrows - len(h))
