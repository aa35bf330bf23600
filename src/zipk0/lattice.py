"""Exact integer linear algebra by Hermite echelon forms: canonical lattice
bases, kernels, Diophantine solves and cokernel invariants.

Vectors are tuples of Python ints (arbitrary precision) and a matrix is the
list of its rows.  A row may also be given sparse, as a dict from column to
nonzero entry; results are dense.  Every kernel, solve and cokernel here
comes from one elimination on sparse rows, _hermite, and the reduction
_reduce: the kernel and the image of A both sit in one Hermite basis of the
rows (column j of A | e_j) (Cohen, "A Course in Computational Algebraic
Number Theory", GTM 138, section 2.4).
The primality gate of every job (deterministic Miller-Rabin) lives here too.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Union

from .caps import ResourceCapError


Vector = tuple[int, ...]
SparseRow = dict[int, int]          # column -> nonzero entry
Row = Union[Sequence[int], SparseRow]


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square matrix by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        return 1  # the empty product
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


# Miller-Rabin to the prime bases up to 41 is exact below this bound, the
# least strong pseudoprime to all of them (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86 (2017)).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin.  An n at or above
    MILLER_RABIN_BOUND raises ResourceCapError: no test here is exact there."""
    if n >= MILLER_RABIN_BOUND:
        raise ResourceCapError(
            f"p = {n} is at or above {MILLER_RABIN_BOUND}, the bound below which "
            f"primality is decided exactly"
        )
    if n < 2:
        return False
    for a in MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False  # a witnesses that n is composite
    return True


def require_prime(p: int) -> None:
    """The primality gate of every job: a p that is not prime raises
    ValueError, and one at or above MILLER_RABIN_BOUND ResourceCapError."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


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


def _sparse(row: Row) -> SparseRow:
    """The nonzero entries of a dense or sparse row, as a new dict."""
    if isinstance(row, dict):
        return {j: x for j, x in row.items() if x}
    return {j: x for j, x in enumerate(row) if x}


def _dense(row: SparseRow, ncols: int) -> Vector:
    out = [0] * ncols
    for j, x in row.items():
        out[j] = x
    return tuple(out)


def _add_multiple(w: SparseRow, q: int, v: SparseRow) -> None:
    """w += q * v in place, dropping the entries that cancel."""
    for j, y in v.items():
        x = w.get(j, 0) + q * y
        if x:
            w[j] = x
        else:
            w.pop(j, None)


def _reduce(w: SparseRow, basis: dict[int, SparseRow], start: int) -> None:
    """Reduce w in place by the rows of an echelon basis whose pivot columns
    lie right of `start`, in ascending order, each subtracted as often as
    floor division at its pivot allows.  A row changes no column left of its
    pivot, so each such entry of w ends in [0, pivot)."""
    j = start
    while True:
        later = [k for k in w if k > j and k in basis]
        if not later:
            return
        j = min(later)
        piv = basis[j]
        q = w[j] // piv[j]
        if q:
            _add_multiple(w, -q, piv)


def _hermite(rows: Iterable[SparseRow]) -> dict[int, SparseRow]:
    """Row-style Hermite basis of the Z-span of sparse rows, which it consumes,
    keyed by pivot (leading) column in ascending order: an echelon basis with
    positive pivots and the entries above each pivot reduced into [0, pivot).
    That form of a lattice is unique, so it serves to compare sublattices.

    _reduce by it leaves zero exactly when a vector lies in the span, since
    the remainder's leading entry would be a nonzero multiple of its pivot in
    [0, pivot).
    """
    pivots: dict[int, SparseRow] = {}  # leading column -> row with that pivot
    for w in rows:
        while w:
            j = min(w)
            piv = pivots.get(j)
            if piv is None:
                pivots[j] = w
                break
            while j in w:
                if abs(w[j]) < abs(piv[j]):
                    pivots[j], w = w, piv
                    piv = pivots[j]
                _add_multiple(w, -(w[j] // piv[j]), piv)
    basis = {}
    for j in sorted(pivots):
        row = pivots[j]
        basis[j] = row if row[j] > 0 else {k: -x for k, x in row.items()}
    # Bottom up: the rows below are reduced already, and reducing by one of
    # them leaves the columns left of its pivot alone.
    for j in reversed(basis):
        _reduce(basis[j], basis, j)
    return basis


def hermite_row_basis(vectors: Sequence[Row], ncols: int) -> tuple[Vector, ...]:
    """Canonical (row-style Hermite) basis of the Z-span of the given vectors,
    dense or sparse, as dense rows in ascending order of their pivots.

    Used to compare sublattices of Z^ncols for equality.
    """
    return tuple(_dense(r, ncols) for r in _hermite(_sparse(v) for v in vectors).values())


def _augmented_basis(rows: Sequence[Row], ncols: int) -> dict[int, SparseRow]:
    """Sparse Hermite basis of the rows (column j of A | e_j), j < ncols, for
    the matrix A with the given dense or sparse rows.  Each of its rows is
    (A x | x) for some x."""
    nrows = len(rows)
    aug: list[SparseRow] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in _sparse(row).items():
            aug[j][i] = x
    for j, r in enumerate(aug):
        r[nrows + j] = 1
    return _hermite(aug)


def kernel_basis(rows: Sequence[Row], ncols: int) -> tuple[Vector, ...]:
    """Hermite basis of {x in Z^ncols : A x = 0}, for the matrix A with the
    given dense or sparse rows; with no rows it is the identity basis.

    The rows (A x | x) of the augmented basis whose A-part is zero come last,
    and their x-parts are the kernel's own Hermite basis.
    """
    nrows = len(rows)
    return tuple(
        _dense({k - nrows: x for k, x in r.items()}, ncols)
        for j, r in _augmented_basis(rows, ncols).items()
        if j >= nrows
    )


def solve_linear_diophantine(
    rows: Sequence[Row], b: Sequence[int], ncols: int
) -> Optional[Vector]:
    """One x in Z^ncols with A x = b, for the matrix A with the given dense
    or sparse rows, or None when there is none.

    Reducing (b | 0) by the augmented basis leaves (b - A y | -y).  Its A-part
    is zero exactly when b lies in the image of A, and then x = y.
    """
    if len(b) != len(rows):
        raise ValueError("right-hand side length does not match row count")
    nrows = len(rows)
    rem = _sparse(b)
    _reduce(rem, _augmented_basis(rows, ncols), -1)
    if any(k < nrows for k in rem):
        return None
    return tuple(-rem.get(nrows + j, 0) for j in range(ncols))


def cokernel_invariants(columns: Sequence[Sequence[int]], nrows: int) -> list[int]:
    """Invariant factors of Z^nrows / (span of the columns), free parts as 0.

    The result is divisibility-ordered: d1 | d2 | ... | dr followed by one 0
    per free summand.  Trivial factors (1) are kept so the list always has
    `nrows` entries.  The Hermite basis of the columns is independent, and
    the torsion's order is its index in its saturation, the lattice
    orthogonal to its orthogonal: both bases are echelon on the same pivot
    columns, so that index is the ratio of their pivot products.  Only that
    order is factored for cokernel_torsion, never a pivot, which may be huge
    where the torsion is trivial.
    """
    h = hermite_row_basis(columns, nrows)
    saturation = kernel_basis(kernel_basis(h, nrows), nrows)
    order = math.prod(_pivots(h)) // math.prod(_pivots(saturation))
    torsion = cokernel_torsion(h, [order])
    return [1] * (len(h) - len(torsion)) + list(torsion) + [0] * (nrows - len(h))


def _pivots(basis: Sequence[Vector]) -> list[int]:
    return [next(x for x in row if x) for row in basis]
