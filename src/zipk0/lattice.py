"""Exact integer linear algebra: Smith normal form, cokernels, Diophantine systems.

All matrices are immutable tuples of tuples of Python ints (arbitrary
precision, row-major).  Everything here is pure and deterministic: the
Smith reduction always pivots on the entry of smallest nonzero absolute
value (ties broken by position), so the transforms U, V are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence


Vector = tuple[int, ...]


@dataclass(frozen=True)
class IntegerMatrix:
    """Dense integer matrix; entries row-major, exact arithmetic only."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.entries)}")
        for r in self.entries:
            if len(r) != self.cols:
                raise ValueError(f"expected {self.cols} cols, got {len(r)}")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntegerMatrix":
        ents = tuple(tuple(int(x) for x in r) for r in rows)
        nrows = len(ents)
        ncols = len(ents[0]) if ents else 0
        return IntegerMatrix(nrows, ncols, ents)

    @staticmethod
    def from_columns(cols: Sequence[Sequence[int]], nrows: Optional[int] = None) -> "IntegerMatrix":
        if cols:
            nrows = len(cols[0]) if nrows is None else nrows
        elif nrows is None:
            raise ValueError("empty column list needs an explicit row count")
        rows = [[int(c[i]) for c in cols] for i in range(nrows)]
        return IntegerMatrix(nrows, len(cols), tuple(tuple(r) for r in rows))

    @staticmethod
    def identity(n: int) -> "IntegerMatrix":
        return IntegerMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def mul(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                row.append(sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols)))
            out.append(tuple(row))
        return IntegerMatrix(self.rows, other.cols, tuple(out))

    def mul_vector(self, v: Sequence[int]) -> Vector:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        return tuple(sum(self.entries[i][k] * v[k] for k in range(self.cols)) for i in range(self.rows))

    def determinant(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        a = [list(r) for r in self.entries]
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


def _smallest_pivot(a: list[list[int]], start: int) -> Optional[tuple[int, int]]:
    """Position of the nonzero entry of least |value| in the trailing block."""
    best = None
    best_abs = None
    for i in range(start, len(a)):
        for j in range(start, len(a[0])):
            v = a[i][j]
            if v != 0 and (best_abs is None or abs(v) < best_abs):
                best, best_abs = (i, j), abs(v)
                if best_abs == 1:
                    return best
    return best


def smith_normal_form(m: IntegerMatrix) -> tuple[IntegerMatrix, IntegerMatrix, IntegerMatrix]:
    """Return (S, U, V) with U*M*V = S, U and V unimodular, S = diag(d1|d2|...) >= 0."""
    nr, nc = m.rows, m.cols
    a = [list(r) for r in m.entries]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, c):
        # row_dst += c * row_src
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for r in a:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while True:
        piv = _smallest_pivot(a, t)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        # Clear row and column t, restarting whenever a remainder shrinks the pivot.
        while True:
            p = a[t][t]
            done = True
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    q = a[i][t] // p
                    add_row(t, i, -q)
                    if a[i][t] != 0:  # remainder strictly smaller than |p|
                        swap_rows(t, i)
                        done = False
                        break
            if not done:
                continue
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    q = a[t][j] // p
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        done = False
                        break
            if done:
                break
        # Pivot must divide every remaining entry; if not, fold the offender in.
        p = a[t][t]
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % p != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        if p < 0:
            negate_row(t)
        t += 1

    s = IntegerMatrix.from_rows(a)
    return s, IntegerMatrix.from_rows(u), IntegerMatrix.from_rows(v)


def diagonal_of(m: IntegerMatrix) -> list[int]:
    return [m.entries[i][i] for i in range(min(m.rows, m.cols))]


def cokernel_invariants(m: IntegerMatrix) -> list[int]:
    """Elementary divisors of Z^rows / (column span of m), free parts as 0.

    The result is divisibility-ordered: d1 | d2 | ... | dr followed by one 0
    per free summand.  Trivial factors (1) are kept so the list always has
    `rows` entries.
    """
    s, _, _ = smith_normal_form(m)
    divisors = [d for d in diagonal_of(s) if d != 0]
    free = m.rows - len(divisors)
    return divisors + [0] * free


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


def solve_linear_diophantine(
    m: IntegerMatrix, b: Sequence[int]
) -> Optional[tuple[Vector, list[Vector]]]:
    """Solve m*x = b over Z.

    Returns (particular solution, basis of ker m) or None when unsolvable.
    """
    if len(b) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    s, u, v = smith_normal_form(m)
    c = u.mul_vector(b)
    r = min(m.rows, m.cols)
    y = [0] * m.cols
    for i in range(r):
        d = s.entries[i][i]
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
    for i in range(r, m.rows):
        if c[i] != 0:
            return None
    x = v.mul_vector(y)
    kernel = [v.column(j) for j in range(m.cols)
              if j >= r or s.entries[j][j] == 0]
    return x, kernel


def kernel_basis(m: IntegerMatrix) -> list[Vector]:
    """Z-basis of {x : m*x = 0}."""
    solved = solve_linear_diophantine(m, [0] * m.rows)
    if solved is None:
        raise RuntimeError("homogeneous system reported unsolvable: internal error")
    return solved[1]


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
    for idx in range(len(basis) - 1, -1, -1):
        piv = basis[idx]
        j = cols[idx]
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
