"""Test oracles: the reference Groebner engine on exponent tuples, the
reference group-algebra arithmetic (GroupAlgebraElement, with its Weyl
action, orbit sums and Frobenius) that the library's plain {character: int}
dicts are tested against, the dense Hermite elimination and the
element-arithmetic builders of the check rows that the sparse ones must
match, independent re-checks of the packed
engine, of the quotient module's invariants, of Steinberg's weights and
their spanning, of the closed-form dominant Hilbert basis, of the
fundamental-weight lift's rounding (box_search_preimage) and of the positive
roots and generator combinations read off the root datum, the principal
minors of a finite-type Cartan matrix, the rank counted
from the Weyl group (twisted_point_count) and from sympy's Groebner bases over
QQ and GF(p) (sympy_quotient_dimension), and the general code
that the library itself does not need: the Smith normal form with its
transforms, block elimination orders and elimination ideals, the Demazure
operator on elements and by pseudo-division, Demazure characters, the
substitution of generators into a polynomial, Levi restrictions, Weyl
lengths counted as inversions and as words, reduced-word counts, and the
walk of the simple roots' orbit that validate's base test replaces."""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from operator import add, le, sub
from typing import Iterable, Mapping, Optional, Sequence

from zipk0 import groebner
from zipk0._record import record
from zipk0.caps import DEFAULT_MAX_DEGREE, ResourceCapError
from zipk0.groebner import (
    GroebnerBasis,
    Monomial,
    Poly,
    PolyRingSpec,
    QuotientReport,
    _leading,
    _normalize_sign,
    normal_form_gb,
    poly_canonical,
    quotient_z_module,
    strong_groebner,
)
from zipk0.checks import _demazure_series, _hecke_rows, window_box
from zipk0.lattice import determinant, hermite_row_basis, kernel_basis, solve_linear_diophantine
from zipk0.rootdata import (
    PRESET_NAMES,
    Matrix,
    RootDatum,
    Vector,
    WeylGroup,
    identity_matrix,
    mat_mul,
    mat_vec,
    pairing,
    positive_root_indices,
    preset,
    reflection_matrix,
    weights_dominant,
    weyl_enumerate,
    weyl_orbit,
)
from zipk0.zipk import CocharacterDatum, KZeroPresentation, compute_k0, unit_relations


# ---------------------------------------------------------------------------
# Smith normal form with both transforms, and the cokernel, solve and kernel
# built on it


@record
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
        return determinant(self.entries)


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


def smith_cokernel_invariants(m: IntegerMatrix) -> list[int]:
    """Elementary divisors of Z^rows / (column span of m), free parts as 0.

    The result is divisibility-ordered: d1 | d2 | ... | dr followed by one 0
    per free summand.  Trivial factors (1) are kept so the list always has
    `rows` entries.
    """
    s, _, _ = smith_normal_form(m)
    divisors = [d for d in diagonal_of(s) if d != 0]
    free = m.rows - len(divisors)
    return divisors + [0] * free


def smith_solve(
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


def smith_kernel_basis(m: IntegerMatrix) -> list[Vector]:
    """Z-basis of {x : m*x = 0}."""
    solved = smith_solve(m, [0] * m.rows)
    if solved is None:
        raise RuntimeError("homogeneous system reported unsolvable: internal error")
    return solved[1]


# ---------------------------------------------------------------------------
# Dense Hermite elimination: the library's routine before its rows went sparse


def dense_hermite_row_basis(vectors: Sequence[Sequence[int]], ncols: int) -> tuple[Vector, ...]:
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


def densify(rows: Sequence, ncols: int) -> list[Vector]:
    """Dense copies of rows given dense or as {column: entry} dicts."""
    return [tuple(r.get(j, 0) for j in range(ncols)) if isinstance(r, dict) else tuple(r)
            for r in rows]


def _dense_augmented_basis(rows: Sequence[Sequence[int]], ncols: int) -> tuple[Vector, ...]:
    aug = [tuple(r[j] for r in rows) + tuple(int(i == j) for i in range(ncols)) for j in range(ncols)]
    return dense_hermite_row_basis(aug, len(rows) + ncols)


def dense_kernel_basis(rows: Sequence[Sequence[int]], ncols: int) -> tuple[Vector, ...]:
    """lattice.kernel_basis on the dense elimination: the x-parts of the rows
    (A x | x) of the augmented basis whose A-part is zero."""
    nrows = len(rows)
    return tuple(r[nrows:] for r in _dense_augmented_basis(rows, ncols) if not any(r[:nrows]))


def dense_solve_linear_diophantine(
    rows: Sequence[Sequence[int]], b: Sequence[int], ncols: int
) -> Optional[Vector]:
    """lattice.solve_linear_diophantine on the dense elimination."""
    nrows = len(rows)
    rem = hermite_remainder(_dense_augmented_basis(rows, ncols), tuple(b) + (0,) * ncols)
    if any(rem[:nrows]):
        return None
    return tuple(-x for x in rem[nrows:])


# ---------------------------------------------------------------------------
# Reference Groebner engine: monomials as exponent tuples
#
# The engine of zipk0.groebner as it was before its monomials were packed
# into ints, step for step, with the monomial order taken from the ring spec:
# grevlex for a PolyRingSpec, the block order of a BlockRingSpec.  The packed
# engine must return the same bases and the same remainders, term for term.


def _monomial_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def _monomial_sub(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(sub, a, b))


def _monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _sub_scaled_shifted(f: Poly, g: Poly, c: int, shift: Monomial) -> None:
    """f -= c * X^shift * g, in place."""
    for m, cc in g.items():
        key = tuple(a + b for a, b in zip(m, shift))
        val = f.get(key, 0) - c * cc
        if val:
            f[key] = val
        else:
            f.pop(key, None)


def heap_key(spec: PolyRingSpec):
    """Key that sorts monomials in descending order of the spec's monomial
    order, so that a min-heap of (heap_key(m), m) pops the largest first."""
    if isinstance(spec, BlockRingSpec):
        return spec.heap_key()
    return lambda m: (-sum(m), m[::-1])


def _reducer_table(basis: Iterable[Poly], key) -> list[tuple]:
    """(lc, key(lm), position, lm, g) for each nonzero element, sorted."""
    table = []
    for position, g in enumerate(g for g in basis if g):
        lm, lc = _leading(g, key)
        table.append((lc, key(lm), position, lm, g))
    table.sort()
    return table


def _reduce(f: Poly, table: Sequence[tuple], heap_key) -> Poly:
    """Strong reduction of f by a sorted reducer table: zipk0.groebner._reduce
    on exponent tuples."""
    work = {m: c for m, c in f.items() if c}
    heap = [(heap_key(m), m) for m in work]
    heapq.heapify(heap)
    out: Poly = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        for lc, _, _, lm, g in table:
            if all(map(le, lm, m)):
                break
        else:
            out[m] = c
            continue
        q, r = divmod(c, lc)
        if q:
            shift = _monomial_sub(m, lm)
            for gm, gc in g.items():
                if gm == lm:
                    continue
                t = tuple(map(add, gm, shift))
                old = work.get(t)
                if old is None:
                    work[t] = -q * gc
                    heapq.heappush(heap, (heap_key(t), t))
                elif old == q * gc:
                    del work[t]
                else:
                    work[t] = old - q * gc
        if r:
            out[m] = r
    return out


def normal_form(f: Poly, basis: Sequence[Poly], spec: PolyRingSpec) -> Poly:
    """Unique remainder of f under strong (Euclidean) reduction by the basis.

    Zero coefficients of f are dropped, so the remainder holds none.  Terms
    are reduced largest monomial first.  Each term c*X^m is reduced
    modulo the smallest leading coefficient among the basis elements whose
    leading monomial divides m; ties go to the smaller leading monomial, then
    to the earlier element.  With a reduced strong basis the result is
    canonical and membership is `normal_form(f) == {}`.
    """
    return _reduce(f, _reducer_table(basis, spec.monomial_key()), heap_key(spec))


def reference_normal_form_gb(f: Poly, gb: GroebnerBasis) -> Poly:
    return normal_form(f, gb.as_dicts(), gb.spec)


def _spair(f: Poly, lt_f, g: Poly, lt_g) -> Poly:
    (lmf, lcf), (lmg, lcg) = lt_f, lt_g
    big = _monomial_lcm(lmf, lmg)
    l = lcf * lcg // math.gcd(lcf, lcg)
    out: Poly = {}
    _sub_scaled_shifted(out, f, -(l // lcf), _monomial_sub(big, lmf))
    _sub_scaled_shifted(out, g, l // lcg, _monomial_sub(big, lmg))
    return out


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _gpair(f: Poly, lt_f, g: Poly, lt_g) -> Optional[Poly]:
    (lmf, lcf), (lmg, lcg) = lt_f, lt_g
    if lcg % lcf == 0 or lcf % lcg == 0:
        return None
    d, u, v = _xgcd(lcf, lcg)
    big = _monomial_lcm(lmf, lmg)
    out: Poly = {}
    _sub_scaled_shifted(out, f, -u, _monomial_sub(big, lmf))
    _sub_scaled_shifted(out, g, -v, _monomial_sub(big, lmg))
    return out


def reference_interreduce(basis: list[Poly], spec: PolyRingSpec) -> list[Poly]:
    """The interreduction run until nothing changes, on exponent tuples and
    in the spec's order: each pass drops the elements whose leading term
    another's strongly divides and reduces each by the others through one
    reducer table, updated as elements change.  The library's
    zipk0.groebner._interreduce is one ordered pass that takes only strong
    bases; this fixpoint takes any set and is the reference for it."""
    key = spec.monomial_key()
    hkey = heap_key(spec)
    basis = [_normalize_sign(dict(g), key) for g in basis if g]
    changed = True
    while changed:
        changed = False
        leads = [_leading(g, key) for g in basis]
        order = sorted(range(len(basis)), key=lambda t: (key(leads[t][0]), leads[t][1]))
        basis = [basis[t] for t in order]
        leads = [leads[t] for t in order]
        kept: list[Poly] = []
        kept_leads: list[tuple[Monomial, int]] = []
        for i, (g, (lmg, lcg)) in enumerate(zip(basis, leads)):
            redundant = False
            for j, (lmh, lch) in enumerate(leads):
                if i == j:
                    continue
                if _monomial_divides(lmh, lmg) and lcg % lch == 0:
                    if (key(lmh), lch) < (key(lmg), lcg) or j < i:
                        redundant = True
                        break
            if not redundant:
                kept.append(g)
                kept_leads.append((lmg, lcg))
        if len(kept) != len(basis):
            changed = True
        basis = kept
        table = [(lc, key(lm), i, lm, g)
                 for i, (g, (lm, lc)) in enumerate(zip(basis, kept_leads))]
        table.sort()
        for i, (g, (lm, lc)) in enumerate(zip(basis, kept_leads)):
            del table[bisect.bisect_left(table, (lc, key(lm), i))]
            red = _normalize_sign(_reduce(g, table, hkey), key)
            if red != g:
                basis[i] = red
                changed = True
            if red:
                lm, lc = _leading(red, key)
                bisect.insort(table, (lc, key(lm), i, lm, red))
        basis = [g for g in basis if g]
    basis.sort(key=lambda g: (key(_leading(g, key)[0]), _leading(g, key)[1],
                              poly_canonical(g, key)))
    return basis


def _product_criterion(lt_f, lt_g) -> bool:
    """zipk0.groebner._product_criterion: coprime leading monomials and
    coprime leading coefficients."""
    (lmf, lcf), (lmg, lcg) = lt_f, lt_g
    return math.gcd(lcf, lcg) == 1 and not any(map(min, lmf, lmg))


def _chain_criterion(lt_k, lt_i, lt_j, big: Monomial) -> bool:
    """The update-only chain criterion: lm_k | big and lc_k | lcm(lc_i, lc_j)."""
    lmk, lck = lt_k
    (_, lci), (_, lcj) = lt_i, lt_j
    return all(map(le, lmk, big)) and (lci * lcj // math.gcd(lci, lcj)) % lck == 0


def reference_strong_groebner(
    gens: Iterable[Poly], spec: PolyRingSpec, max_degree: int = DEFAULT_MAX_DEGREE
) -> GroebnerBasis:
    """zipk0.groebner.strong_groebner on exponent tuples, in the spec's order,
    with the same selection, caps and interreduction but an independent
    pruning of S-pairs: the product criterion, and the chain criterion tried
    only with the newest element k and on the old queued pairs (i, j),
    dropping one when lm_k | lcm(lm_i, lm_j) and lc_k | lcm(lc_i, lc_j),
    with no condition on the lcms; M and F are not used.  No pair is ever
    dropped on the strength of a pair that was dropped on its strength, since
    each drop leans on pairs with the newer element k, which only a still
    newer element can drop.  The reduced strong basis is unique, so the
    engine's basis must equal this one."""
    key = spec.monomial_key()
    hkey = heap_key(spec)
    start = [_normalize_sign(dict(g), key) for g in gens if g]
    start.sort(key=lambda g: (key(_leading(g, key)[0]), poly_canonical(g, key)))
    basis: list[Poly] = []
    leads: list[tuple[Monomial, int]] = []
    table: list[tuple] = []

    def add(g: Poly) -> None:
        g = _normalize_sign(g, key)
        lm, lc = _leading(g, key)
        if sum(lm) > max_degree:
            raise ResourceCapError(f"leading monomial degree {sum(lm)} exceeds cap {max_degree}")
        if len(basis) >= groebner.DEFAULT_MAX_BASIS:
            raise ResourceCapError(f"basis size exceeds cap {groebner.DEFAULT_MAX_BASIS}")
        bisect.insort(table, (lc, key(lm), len(basis), lm, g))
        basis.append(g)
        leads.append((lm, lc))

    for g in start:
        red = _reduce(g, table, hkey)
        if red:
            add(red)

    queue: list[tuple] = []
    counter = itertools.count()
    pending: dict[Monomial, set[tuple[int, int]]] = {}

    def push_pairs(j: int):
        lt_j = leads[j]
        lcj = lt_j[1]
        for i in range(j):
            lt_i = leads[i]
            big = _monomial_lcm(lt_i[0], lt_j[0])
            big_key = key(big)
            if not _product_criterion(lt_i, lt_j):
                pending.setdefault(big, set()).add((i, j))
                heapq.heappush(queue, (big_key, 0, i, j, next(counter)))
            lci = lt_i[1]
            if lcj % lci and lci % lcj:
                heapq.heappush(queue, (big_key, 1, i, j, next(counter)))

    def drop_chained(k: int):
        lt_k = leads[k]
        emptied = []
        for big, pairs in pending.items():
            if all(map(le, lt_k[0], big)):
                pairs.difference_update([
                    (i, j) for i, j in pairs
                    if _chain_criterion(lt_k, leads[i], leads[j], big)
                ])
                if not pairs:
                    emptied.append(big)
        for big in emptied:
            del pending[big]

    for j in range(len(basis)):
        drop_chained(j)
        push_pairs(j)

    while queue:
        _, kind, i, j, _ = heapq.heappop(queue)
        if kind == 0:
            big = _monomial_lcm(leads[i][0], leads[j][0])
            pairs = pending.get(big)
            if pairs is None or (i, j) not in pairs:
                continue
            pairs.remove((i, j))
            if not pairs:
                del pending[big]
        pair = _spair if kind == 0 else _gpair
        red = _reduce(pair(basis[i], leads[i], basis[j], leads[j]), table, hkey)
        if not red:
            continue
        add(red)
        drop_chained(len(basis) - 1)
        push_pairs(len(basis) - 1)

    reduced = reference_interreduce(basis, spec)
    return GroebnerBasis(spec, tuple(poly_canonical(g, key) for g in reduced))


@record
class BlockRingSpec(PolyRingSpec):
    """Block-wise grevlex: blocks is an ordered partition of the variable
    indices, and the order is an elimination order for the leading blocks."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        flat = [i for blk in self.blocks for i in blk]
        if sorted(flat) != list(range(len(self.names))):
            raise ValueError("blocks must partition the variables")

    def monomial_key(self):
        blocks = self.blocks

        def key(m):
            return tuple(
                (sum(m[i] for i in blk), tuple(-m[i] for i in reversed(blk)))
                for blk in blocks
            )
        return key

    def heap_key(self):
        blocks = self.blocks

        def key(m):
            return tuple(
                (-sum(m[i] for i in blk), tuple(m[i] for i in reversed(blk)))
                for blk in blocks
            )
        return key


def eliminate(gb: GroebnerBasis, block: Sequence[int]) -> GroebnerBasis:
    """Strong basis of the elimination ideal: intersect with the subring in
    the variables outside `block` (which must be the leading order block).
    gb comes from reference_strong_groebner, since the library's engine has
    grevlex only."""
    spec = gb.spec
    if not isinstance(spec, BlockRingSpec) or sorted(spec.blocks[0]) != sorted(block):
        raise ValueError("order is not an elimination order with the given block first")
    drop = set(block)
    keep = [i for i in range(spec.nvars) if i not in drop]
    keep_pos = {v: k for k, v in enumerate(keep)}
    names = tuple(spec.names[i] for i in keep)
    rest_blocks = tuple(tuple(keep_pos[i] for i in blk) for blk in spec.blocks[1:])
    new_spec = BlockRingSpec(names, rest_blocks) if len(rest_blocks) > 1 else PolyRingSpec(names)
    out = []
    for terms in gb.polys:
        if all(all(m[i] == 0 for i in drop) for m, _ in terms):
            out.append({tuple(m[i] for i in keep): c for m, c in terms})
    key = new_spec.monomial_key()
    out.sort(key=lambda g: (key(_leading(g, key)[0]), poly_canonical(g, key)))
    return GroebnerBasis(new_spec, tuple(poly_canonical(g, key) for g in out))


def verify_strong_groebner(gb: GroebnerBasis) -> bool:
    """Re-check the Buchberger criterion: every S- and G-polynomial reduces to 0."""
    basis = gb.as_dicts()
    leads = gb.leading_terms()
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = _spair(basis[i], leads[i], basis[j], leads[j])
            if normal_form(s, basis, gb.spec):
                return False
            g = _gpair(basis[i], leads[i], basis[j], leads[j])
            if g is not None and normal_form(g, basis, gb.spec):
                return False
    return True


def ideal_member(f: Poly, gb: GroebnerBasis) -> bool:
    return not normal_form_gb(f, gb)


def interreduce_per_element(basis: list[Poly], spec: PolyRingSpec) -> list[Poly]:
    """The interreduction with a fresh reducer table per element: drop the
    elements whose leading term another's strongly divides, then reduce each
    element by all the others through normal_form, until nothing changes."""
    key = spec.monomial_key()
    basis = [_normalize_sign(dict(g), key) for g in basis if g]
    changed = True
    while changed:
        changed = False
        basis.sort(key=lambda g: (key(_leading(g, key)[0]), _leading(g, key)[1]))
        leads = [_leading(g, key) for g in basis]
        kept: list[Poly] = []
        for i, (g, (lmg, lcg)) in enumerate(zip(basis, leads)):
            redundant = False
            for j, (lmh, lch) in enumerate(leads):
                if i == j:
                    continue
                if _monomial_divides(lmh, lmg) and lcg % lch == 0:
                    if (key(lmh), lch) < (key(lmg), lcg) or j < i:
                        redundant = True
                        break
            if not redundant:
                kept.append(g)
        if len(kept) != len(basis):
            changed = True
        basis = kept
        for i in range(len(basis)):
            others = basis[:i] + basis[i + 1:]
            red = _normalize_sign(normal_form(basis[i], others, spec), key)
            if red != basis[i]:
                basis[i] = red
                changed = True
        basis = [g for g in basis if g]
    basis.sort(key=lambda g: (key(_leading(g, key)[0]), _leading(g, key)[1],
                              poly_canonical(g, key)))
    return basis


def invariant_factors(divisors) -> tuple[int, ...]:
    """Invariant factor form of a direct sum of Z/d's (d > 1)."""
    primes: dict[int, list[int]] = {}
    for d in divisors:
        dd = d
        f = 2
        while f * f <= dd:
            e = 0
            while dd % f == 0:
                dd //= f
                e += 1
            if e:
                primes.setdefault(f, []).append(e)
            f += 1
        if dd > 1:
            primes.setdefault(dd, []).append(1)
    if not primes:
        return ()
    depth = max(len(v) for v in primes.values())
    factors = []
    for pos in range(depth):
        val = 1
        for p, exps in primes.items():
            exps_sorted = sorted(exps, reverse=True)
            if pos < len(exps_sorted):
                val *= p ** exps_sorted[pos]
        factors.append(val)
    return tuple(sorted(factors))


def mod_l_dimension(gb: GroebnerBasis, ell: int, limit: int) -> int:
    """dim over F_l of Z[x]/(I, l), from a strong basis of I + (l) over Z;
    limit + 1 when it exceeds `limit`.

    Modulo l the quotient is a vector space on the monomials outside the
    ideal of unit-coefficient leading monomials.  That set is closed under
    division, so the count stops at the first degree without such a monomial.
    """
    n = gb.spec.nvars
    gens = gb.as_dicts() + [{(0,) * n: ell}]
    unit_lms = [m for m, c in strong_groebner(gens, gb.spec).leading_terms() if abs(c) == 1]
    count = 0
    level = [(0,) * n]
    while level and count <= limit:
        count += len(level)
        level = sorted({
            m for m in (tuple(e + (i == v) for i, e in enumerate(c)) for c in level for v in range(n))
            if not any(_monomial_divides(u, m) for u in unit_lms)
        })
    return min(count, limit + 1)


def mod_l_count_agrees(gb: GroebnerBasis, rank: int, torsion, ell: int) -> bool:
    """dim_{F_l}(M / l M) = rank + #{invariant factors divisible by l}, for
    M = Z[x]/I: each free summand and each l-primary part contributes one."""
    want = rank + sum(1 for d in torsion if d % ell == 0)
    return mod_l_dimension(gb, ell, want) == want


def steinberg_weights_by_elements(rd: RootDatum) -> list[Vector]:
    """checks.steinberg_candidate_weights with its own descent test: for each
    v in rd.weyl.elements, the simple root alpha_i is a descent of v when
    v alpha_i has a negative coefficient over the simple roots, and lambda is
    v of the sum of the fundamental weights of those descents (Steinberg's
    lambda_w for w = v^{-1})."""
    etas = rd.weight_lift[1]
    out = []
    for v in rd.weyl.elements:
        total = (0,) * rd.rank
        for alpha, eta in zip(rd.simple_roots, etas):
            if min(root_coefficients(mat_vec(v, alpha), rd.simple_roots)) < 0:
                total = tuple(map(add, total, eta))
        out.append(mat_vec(v, total))
    return out


def steinberg_spanning_by_solves(rd, cands, weyl, spanning_radius):
    """Whether the e^lambda, lambda in cands, span the box of radius
    spanning_radius over R(G), by one Smith-form solve per target: for each
    e^mu in the box, build the matrix of the products (orbit sum over a
    dominant window) * e^lambda on their support plus mu, and solve
    M*x = e^mu over Z.  The box oracle of Steinberg's theorem, which the
    library's check takes on trust."""
    maxc = max((max(abs(x) for x in lam) for lam in cands if any(lam)), default=0)
    box_r = spanning_radius + maxc + 2
    dominant_window = [nu for nu in window_box(rd.rank, box_r)
                       if weights_dominant(nu, rd.simple_coroots)]
    basis_elems = [reference_orbit_sum(weyl, nu) * monomial(rd.rank, lam)
                   for lam in cands for nu in dominant_window]
    ok = True
    for mu in window_box(rd.rank, spanning_radius):
        target = monomial(rd.rank, mu)
        support = sorted({e for el in basis_elems for e in el.terms} | set(target.terms))
        idx = {e: i for i, e in enumerate(support)}
        cols = []
        for el in basis_elems:
            col = [0] * len(support)
            for e, c in el.terms.items():
                col[idx[e]] = c
            cols.append(col)
        b = [0] * len(support)
        for e, c in target.terms.items():
            b[idx[e]] = c
        if smith_solve(IntegerMatrix.from_columns(cols, nrows=len(support)), b) is None:
            ok = False
    return ok


def _extreme_rays(ineq: list[list[int]], dim: int) -> list[tuple[int, ...]]:
    """Extreme rays of {t in R^dim : ineq * t >= 0}, primitive integer vectors.

    The cone must be pointed.  Rays are found as one-dimensional kernels of
    (dim-1)-subsets of the constraint rows.
    """
    if dim == 0:
        return []
    rays: set[tuple[int, ...]] = set()
    rows = list(range(len(ineq)))
    for subset in itertools.combinations(rows, dim - 1):
        m = IntegerMatrix.from_rows([ineq[r] for r in subset] or [[0] * dim])
        ker = smith_kernel_basis(m)
        if len(ker) != 1:
            continue
        t = ker[0]
        g = math.gcd(*t)
        t = tuple(x // g for x in t) if g else t
        for cand in (t, tuple(-x for x in t)):
            if all(sum(row[i] * cand[i] for i in range(dim)) >= 0 for row in ineq):
                rays.add(cand)
    return sorted(rays)


def _round_div(num: int, den: int) -> int:
    """num / den rounded to the nearest integer, ties to even, for den > 0,
    in integer arithmetic."""
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    return q


def box_search_preimage(v: Vector, lineality: Sequence[Vector]) -> Vector:
    """A small representative of v modulo the lineality lattice by search,
    the reference for rootdata._canonical_preimage's one rounding pass: up to
    four rounding passes along each row (ties to even), then the least point
    of the box of 5^z points around the result, z the number of rows, under
    (max |x_i|, sum |x_i|, the lexicographically largest vector)."""
    if not lineality:
        return v
    cur = list(v)
    for _ in range(4):
        changed = False
        for z in lineality:
            q = _round_div(sum(a * b for a, b in zip(cur, z)), sum(x * x for x in z))
            if q:
                cur = [a - q * b for a, b in zip(cur, z)]
                changed = True
        if not changed:
            break

    def key(vec):
        return (max(abs(x) for x in vec) if vec else 0,
                sum(abs(x) for x in vec),
                tuple(-x for x in vec))

    best = tuple(cur)
    for combo in itertools.product(range(-2, 3), repeat=len(lineality)):
        cand = tuple(
            c + sum(t * z[i] for t, z in zip(combo, lineality))
            for i, c in enumerate(cur)
        )
        if key(cand) < key(best):
            best = cand
    return best


def general_dominant_hilbert_basis(rd):
    """Generators of the monoid of dominant weights, by a general search that
    does not assume a simply connected derived group.  For a Levi, pass its
    root datum (levi_from_cocharacter).

    Directions on which all simple coroots vanish are lattice lines; their
    basis vectors appear with both signs.  The pointed part is computed by
    enumerating lattice points in the box spanned by the extreme rays and
    filtering to indecomposables.
    """
    n = rd.rank
    a_rows = [list(c) for c in rd.simple_coroots]
    a = IntegerMatrix(len(a_rows), n, tuple(tuple(r) for r in a_rows))
    lin = hermite_row_basis(smith_kernel_basis(a), n)
    out = []
    for z in lin:
        out.append(z)
        out.append(tuple(-x for x in z))
    s = len(a_rows)
    if s == 0:
        return sorted(set(out))
    # Image lattice P = A * Z^n inside Z^s, with basis rows b_1..b_r.
    cols = [a.column(j) for j in range(n)]
    basis = hermite_row_basis(cols, s)
    r = len(basis)
    if r > 0:
        # Inequalities in P-coordinates: N[k][i] = basis_i[k].
        ineq = [[basis[i][k] for i in range(r)] for k in range(s)]
        rays = _extreme_rays(ineq, r)
        lo = [sum(min(0, t[j]) for t in rays) for j in range(r)]
        hi = [sum(max(0, t[j]) for t in rays) for j in range(r)]
        cands = []
        for point in itertools.product(*[range(lo[j], hi[j] + 1) for j in range(r)]):
            if all(x == 0 for x in point):
                continue
            if all(sum(row[i] * point[i] for i in range(r)) >= 0 for row in ineq):
                cands.append(point)

        def in_monoid(t):
            return all(sum(row[i] * t[i] for i in range(r)) >= 0 for row in ineq)

        hilbert = []
        for c in cands:
            decomposable = any(
                other != c and in_monoid(tuple(x - y for x, y in zip(c, other)))
                for other in cands
            )
            if not decomposable:
                hilbert.append(c)
        # Pull each generator back to the weight lattice along a fixed section.
        bmat = IntegerMatrix.from_rows(a_rows)
        for t in sorted(hilbert):
            y = [sum(basis[i][k] * t[i] for i in range(r)) for k in range(s)]
            sol = smith_solve(bmat, y)
            if sol is None:
                raise RuntimeError("image point must lift to the weight lattice")
            out.append(box_search_preimage(sol[0], lin))
    return sorted(set(out))


def root_coefficients(root: Vector, simple_roots: Sequence[Vector]) -> Optional[Vector]:
    """Integer coefficients of `root` over the simple system, or None if there are none."""
    if not simple_roots:
        return None
    return solve_linear_diophantine(list(zip(*simple_roots)), root, len(simple_roots))


def reference_positive_root_indices(rd: RootDatum) -> tuple[int, ...]:
    """rootdata.positive_root_indices by one Diophantine solve per root:
    indices of roots that are nonnegative combinations of the simple system."""
    out = []
    for i, r in enumerate(rd.roots):
        coeffs = root_coefficients(r, rd.simple_roots)
        if coeffs is not None and all(c >= 0 for c in coeffs):
            out.append(i)
    return tuple(out)


def simple_orbit_is_the_roots(rd: RootDatum) -> bool:
    """The base test that rootdata.validate replaces by a count of positive
    roots: the orbit of the simple roots under the simple reflections, walked
    breadth-first, is the set of roots."""
    orbit = set(rd.simple_roots)
    frontier = list(rd.simple_roots)
    gens = [reflection_matrix(rd.roots[i], rd.coroots[i]) for i in rd.simple_indices]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = mat_vec(g, v)
                if w not in orbit:
                    orbit.add(w)
                    nxt.append(w)
        frontier = nxt
    return orbit == set(rd.roots)


def principal_minors_positive(c: Sequence[Sequence[int]]) -> bool:
    """The textbook finite-type test of a Cartan matrix that rootdata.validate
    replaces by one determinant: each of its 2^s - 1 principal minors is
    positive."""
    n = len(c)
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            if determinant([[c[i][j] for j in subset] for i in subset]) <= 0:
                return False
    return True


def reference_nonneg_combinations(rd: RootDatum):
    """RootDatum.coordinates by a Diophantine solve per target: the
    function that writes a dominant weight as an N-combination of the
    generator weights, with the generators' pairings computed once.

    Each pointed generator is a fundamental weight, whose image under the
    dominance pairings is a unit vector e_j, so it is taken
    <target, alpha_j^vee> times; what remains lies in the lineality lattice
    and is expressed through the +/- generator pairs.
    """
    cosimples = rd.simple_coroots
    weights = rd.generator_weights
    imgs = [tuple(pairing(w, cv) for cv in cosimples) for w in weights]
    pointed = [(i, cosimples[im.index(1)]) for i, im in enumerate(imgs) if any(im)]
    lineal = [i for i, im in enumerate(imgs) if not any(im)]
    lin_rows = [[weights[i][j] for i in lineal] for j in range(rd.rank)]
    # The opposite generator of each lineality generator.
    neg_index = {}
    for a in lineal:
        for b in lineal:
            if tuple(-x for x in weights[a]) == weights[b]:
                neg_index[a] = b

    def combination(target: Vector) -> tuple[int, ...]:
        counts = [0] * len(weights)
        for i, cv in pointed:
            counts[i] = pairing(target, cv)
            if counts[i] < 0:
                raise RuntimeError(f"dominant weight {target} not in the generator monoid")
        remainder = tuple(
            t - sum(counts[i] * weights[i][j] for i in range(len(weights)))
            for j, t in enumerate(target)
        )
        if any(remainder):
            # Express the lineality remainder over the +/- generator pairs.
            coeffs = solve_linear_diophantine(lin_rows, remainder, len(lineal))
            if coeffs is None:
                raise RuntimeError(f"remainder {remainder} outside the lineality lattice")
            # Zero out negative coefficients using the opposite generator.
            for pos_k, i in enumerate(lineal):
                c = coeffs[pos_k]
                if c >= 0:
                    counts[i] += c
                else:
                    counts[neg_index[i]] += -c
        return tuple(counts)

    return combination


# ---------------------------------------------------------------------------
# Group algebra, Weyl groups and Levis


class GroupAlgebraElement:
    """Element of Z[X*(T)]; immutable, hashable, exact: the reference
    arithmetic that the library's plain {character: int} dicts are tested
    against.  `.terms` is such a dict, and the constructor takes one."""

    __slots__ = ("rank", "terms", "_hash")

    def __init__(self, rank: int, terms: Mapping[Vector, int]):
        self.rank = rank
        cleaned = {}
        for e, c in terms.items():
            if c:
                e = tuple(int(x) for x in e)
                if len(e) != rank:
                    raise ValueError(f"exponent {e} does not have rank {rank}")
                cleaned[e] = cleaned.get(e, 0) + int(c)
        self.terms = {e: c for e, c in cleaned.items() if c}
        self._hash = None

    @classmethod
    def _trusted(cls, rank: int, terms: Mapping[Vector, int]) -> "GroupAlgebraElement":
        """An element from terms this module built: distinct exponent tuples of
        length `rank`, so only the zero coefficients need dropping."""
        self = object.__new__(cls)
        self.rank = rank
        self.terms = {e: c for e, c in terms.items() if c}
        self._hash = None
        return self

    # -- basic ring structure ------------------------------------------------

    def _check(self, other: "GroupAlgebraElement") -> None:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return GroupAlgebraElement._trusted(self.rank, out)

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return GroupAlgebraElement._trusted(self.rank, out)

    def __neg__(self) -> "GroupAlgebraElement":
        return GroupAlgebraElement._trusted(self.rank, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupAlgebraElement._trusted(self.rank, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        out: dict[Vector, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return GroupAlgebraElement._trusted(self.rank, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupAlgebraElement)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.rank, tuple(sorted(self.terms.items()))))
        return self._hash

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exponent: Sequence[int]) -> int:
        return self.terms.get(tuple(exponent), 0)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"e{i}^{k}" if k != 1 else f"e{i}"
                for i, k in enumerate(e)
                if k
            )
            if not mono:
                bits.append(f"{c:+d}")
            elif c == 1:
                bits.append(f"+{mono}")
            elif c == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{c:+d}*{mono}")
        return "".join(bits)


def one(rank: int) -> GroupAlgebraElement:
    return GroupAlgebraElement._trusted(rank, {(0,) * rank: 1})


def monomial(rank: int, exponent: Sequence[int]) -> GroupAlgebraElement:
    return GroupAlgebraElement(rank, {tuple(int(x) for x in exponent): 1})



def reference_weyl_act(w: Matrix, f: GroupAlgebraElement) -> GroupAlgebraElement:
    """e^chi -> e^{w chi}, as a sum of scaled monomials."""
    total = GroupAlgebraElement(f.rank, {})
    for e, c in f.terms.items():
        total = total + monomial(f.rank, mat_vec(w, e)) * c
    return total


def reference_orbit_sum(weyl: WeylGroup, weight: Sequence[int]) -> GroupAlgebraElement:
    """m_lambda: one monomial per distinct image of lambda under the group."""
    total = GroupAlgebraElement(len(weight), {})
    for nu in {mat_vec(w, weight) for w in weyl.elements}:
        total = total + monomial(len(weight), nu)
    return total


def reference_frobenius(
    f: GroupAlgebraElement, p: int, twist: Optional[Matrix]
) -> GroupAlgebraElement:
    """e^chi -> e^{p tau(chi)}, as a sum of scaled monomials."""
    total = GroupAlgebraElement(f.rank, {})
    for e, c in f.terms.items():
        image = mat_vec(twist, e) if twist is not None else e
        total = total + monomial(f.rank, tuple(p * x for x in image)) * c
    return total


def from_terms(rank: int, items: Iterable[tuple[Sequence[int], int]]) -> GroupAlgebraElement:
    return GroupAlgebraElement(rank, {tuple(e): c for e, c in items})


def _word_is_reduced(rd: RootDatum, word: Sequence[int]) -> bool:
    m = identity_matrix(rd.rank)
    for i in word:
        idx = rd.simple_indices[i]
        m = mat_mul(m, reflection_matrix(rd.roots[idx], rd.coroots[idx]))
    pos = [rd.roots[i] for i in positive_root_indices(rd)]
    return inversion_length(m, pos, frozenset(pos)) == len(word)


def demazure_by_division(
    rd: RootDatum, simple_index: int, f: GroupAlgebraElement
) -> GroupAlgebraElement:
    """delta_alpha(f) = (f - e^{-alpha} s_alpha(f)) / (1 - e^{-alpha}), with the
    quotient found by pseudo-division: repeatedly peel the term maximal for
    the (alpha-height, lex) order, a translation-invariant total order in
    which the divisor's leading term is 1.  Failure to terminate means the
    division was not exact."""
    root_idx = rd.simple_indices[simple_index]
    alpha = rd.roots[root_idx]
    coroot = rd.coroots[root_idx]
    s = reflection_matrix(alpha, coroot)
    numerator = f - monomial(f.rank, tuple(-x for x in alpha)) * reference_weyl_act(s, f)
    if numerator.is_zero():
        return numerator

    def key(exponent: Vector):
        return (pairing(exponent, coroot), exponent)

    heights = [pairing(e, coroot) for e in numerator.terms]
    cap = len(numerator.terms) * ((max(heights) - min(heights)) // 2 + 2) + 16
    quotient: dict[Vector, int] = {}
    work = dict(numerator.terms)
    for _ in range(cap):
        if not work:
            break
        top = max(work, key=key)
        c = work.pop(top)
        quotient[top] = quotient.get(top, 0) + c
        lower = tuple(a - b for a, b in zip(top, alpha))
        val = work.get(lower, 0) + c
        if val:
            work[lower] = val
        else:
            work.pop(lower, None)
    if work:
        raise RuntimeError("Demazure numerator was not divisible")
    return GroupAlgebraElement(numerator.rank, quotient)


def demazure(rd: RootDatum, simple_index: int, f: GroupAlgebraElement) -> GroupAlgebraElement:
    """delta_alpha(f), the closed form of checks._demazure_series extended
    Z-linearly."""
    if simple_index not in range(len(rd.simple_indices)):
        raise ValueError(f"no simple root with index {simple_index}")
    root_idx = rd.simple_indices[simple_index]
    alpha = rd.roots[root_idx]
    coroot = rd.coroots[root_idx]
    out: dict[Vector, int] = {}
    for e, c in f.terms.items():
        terms, sign = _demazure_series(e, alpha, pairing(e, coroot))
        for term in terms:
            out[term] = out.get(term, 0) + sign * c
    return GroupAlgebraElement(f.rank, out)


def demazure_word(
    rd: RootDatum, word: Sequence[int], f: GroupAlgebraElement
) -> GroupAlgebraElement:
    """Composition along a reduced word (rightmost letter applied first)."""
    if not _word_is_reduced(rd, word):
        raise ValueError(f"word {tuple(word)} is not reduced")
    out = f
    for i in reversed(word):
        out = demazure(rd, i, out)
    return out


def demazure_character(
    rd: RootDatum, weight: Sequence[int], weyl: Optional[WeylGroup] = None
) -> GroupAlgebraElement:
    """delta_{w0}(e^lambda) for dominant lambda: the character of the irreducible
    (in good cases) module of highest weight lambda."""
    if not weights_dominant(weight, rd.simple_coroots):
        raise ValueError(f"weight {tuple(weight)} is not dominant")
    if weyl is None:
        weyl = weyl_enumerate(rd)
    lengths = weyl_lengths(rd, weyl)
    word = all_reduced_words(weyl, lengths.index(max(lengths)), lengths)[0]  # w0's
    return demazure_word(rd, word, monomial(rd.rank, weight))


def expand_generator_polynomial(
    poly: dict[tuple[int, ...], int], rd: RootDatum
) -> GroupAlgebraElement:
    """Substitute the orbit-sum generators of rd into a polynomial in them."""
    total = GroupAlgebraElement(rd.rank, {})
    for expt, c in poly.items():
        term = one(rd.rank) * c
        for g, e in zip(rd.generator_elements, expt):
            for _ in range(e):
                term = term * GroupAlgebraElement(rd.rank, g)
        total = total + term
    return total


def all_presets() -> list[RootDatum]:
    """Every named preset, and A1xA1 with its factors swapped by the twist."""
    out = [preset(name) for name in PRESET_NAMES]
    rd = preset("A1xA1")
    out.append(RootDatum(rd.rank, rd.roots, rd.coroots, rd.simple_indices, ((0, 1), (1, 0)),
                         name="A1xA1.swap"))
    return out


def hecke_invariants_window(
    rd: RootDatum, box: Sequence[Vector]
) -> list[GroupAlgebraElement]:
    """Z-basis of {f supported on the box monomials: delta_alpha f = f and
    s_alpha f = f}; box is a window_box.

    The conditions generate the annihilator of the augmentation left ideal in
    its finite presentation {delta_alpha - 1} plus Weyl invariance; equality
    with genuine invariants is property-tested elsewhere.
    """
    return [
        GroupAlgebraElement._trusted(rd.rank, {box[i]: c for i, c in enumerate(v)})
        for v in kernel_basis(_hecke_rows(rd, box), len(box))
    ]


# The check rows built from GroupAlgebraElement arithmetic, as the library
# built them before it worked on exponent tuples: dense rows, one per
# exponent of the images' support, in sorted order.


def _element_condition_rows(images: Sequence[GroupAlgebraElement]) -> list[list[int]]:
    rows = []
    support = sorted({e for img in images for e in img.terms})
    for e in support:
        row = [img.terms.get(e, 0) for img in images]
        if any(row):
            rows.append(row)
    return rows


def hecke_rows_by_elements(rd: RootDatum, box: Sequence[Vector]) -> list[list[int]]:
    """The rows of checks._hecke_rows: (delta_alpha - 1) e^x for each simple
    root alpha."""
    mono = [monomial(rd.rank, e) for e in box]
    rows: list[list[int]] = []
    for i in range(len(rd.simple_indices)):
        rows += _element_condition_rows([demazure(rd, i, m) - m for m in mono])
    return rows


def reflection_rows_by_elements(rd: RootDatum, box: Sequence[Vector]) -> list[list[int]]:
    """The rows of (s_alpha - 1) e^x for each simple root alpha."""
    mono = [monomial(rd.rank, e) for e in box]
    rows: list[list[int]] = []
    for idx in rd.simple_indices:
        s = reflection_matrix(rd.roots[idx], rd.coroots[idx])
        rows += _element_condition_rows([reference_weyl_act(s, m) - m for m in mono])
    return rows


def weyl_rows_by_elements(weyl: WeylGroup, rank: int, box: Sequence[Vector]) -> list[list[int]]:
    """The rows of checks._weyl_rows: (w - 1) e^x for every Weyl element w."""
    rows: list[list[int]] = []
    for w in weyl.elements:
        images = []
        for e in box:
            m = monomial(rank, e)
            images.append(reference_weyl_act(w, m) - m)
        rows += _element_condition_rows(images)
    return rows


def inversion_length(w: Matrix, positive_roots: Sequence[Vector], positive_set: frozenset) -> int:
    return sum(1 for a in positive_roots if mat_vec(w, a) not in positive_set)


def weyl_lengths(rd: RootDatum, weyl: WeylGroup) -> tuple[int, ...]:
    """l(w) = #{alpha > 0 : w alpha < 0}, the inversion count, for each
    element of the Weyl group in its order."""
    pos = [rd.roots[i] for i in positive_root_indices(rd)]
    pos_set = frozenset(pos)
    return tuple(inversion_length(w, pos, pos_set) for w in weyl.elements)


def word_lengths(weyl: WeylGroup) -> tuple[int, ...]:
    """The length of a shortest word in the simple reflections for each
    element of the Weyl group in its order: the distance from the identity
    in its Cayley graph, walked breadth-first."""
    index = {m: k for k, m in enumerate(weyl.elements)}
    lengths: list[Optional[int]] = [None] * len(weyl)
    frontier = [index[identity_matrix(weyl.rank)]]
    lengths[frontier[0]] = 0
    while frontier:
        nxt = []
        for k in frontier:
            for g in weyl.generators:
                j = index[mat_mul(weyl.elements[k], g)]
                if lengths[j] is None:
                    lengths[j] = lengths[k] + 1
                    nxt.append(j)
        frontier = nxt
    return tuple(lengths)


def all_reduced_words(weyl: WeylGroup, index: int, lengths: Sequence[int]) -> list[tuple[int, ...]]:
    """Every reduced word of the element, by left-descent recursion."""
    elem_index = {m: k for k, m in enumerate(weyl.elements)}
    out: list[tuple[int, ...]] = []

    def rec(idx: int, prefix: tuple[int, ...]):
        if lengths[idx] == 0:
            out.append(prefix)
            return
        for i, g in enumerate(weyl.generators):
            nidx = elem_index[mat_mul(g, weyl.elements[idx])]
            if lengths[nidx] == lengths[idx] - 1:
                rec(nidx, prefix + (i,))

    rec(index, ())
    return out


def restrict_to_levi(
    rd: RootDatum, weight: Sequence[int], levi: RootDatum, weyl: Optional[WeylGroup] = None
) -> tuple[GroupAlgebraElement, list[tuple[Vector, int]]]:
    """Decompose the full orbit sum m_lambda into Levi orbit sums; levi is the
    root datum from levi_from_cocharacter.

    Returns the element of Z[X*(T)] together with the list of
    (Levi-dominant representative, orbit size) pieces.
    """
    weyl = weyl or weyl_enumerate(rd)
    levi_weyl = weyl_enumerate(levi)
    full_orbit = set(weyl_orbit(weyl, weight))
    element = GroupAlgebraElement(rd.rank, {nu: 1 for nu in full_orbit})
    pieces: list[tuple[Vector, int]] = []
    remaining = set(full_orbit)
    while remaining:
        seed = min(remaining)
        orb = set(weyl_orbit(levi_weyl, seed))
        if not orb <= remaining:
            raise RuntimeError("Levi orbit leaves the Weyl orbit: internal error")
        dominants = [nu for nu in orb if weights_dominant(nu, levi.simple_coroots)]
        if not dominants:
            raise RuntimeError("Levi orbit without dominant representative")
        rep = min(dominants)
        pieces.append((rep, len(orb)))
        remaining -= orb
    pieces.sort()
    return element, pieces


# ---------------------------------------------------------------------------
# The reference torus ring: R(T) as Z[x1b, x1, ..., xnb, xn], each character
# coordinate split into an inverse and a plain variable side by side, modulo
# x_ib*x_i - 1.  The library builds R(T)/IR(T) as compute_k0 at a regular
# cocharacter instead, on one variable per generator weight +-e_i.


def torus_ring_spec(rank: int) -> tuple[PolyRingSpec, list[Poly]]:
    """Z[x1..xn, inverses] and its relations x_ib*x_i - 1: inverse variables
    sort first so they reduce away."""
    names = []
    for i in range(rank):
        names.append(f"x{i + 1}b")
        names.append(f"x{i + 1}")
    pairs = [(2 * i, 2 * i + 1) for i in range(rank)]
    return PolyRingSpec(tuple(names)), unit_relations(pairs, 2 * rank)


def exponent_to_monomial(chi: Sequence[int]) -> tuple[int, ...]:
    out = []
    for c in chi:
        out.append(-c if c < 0 else 0)
        out.append(c if c > 0 else 0)
    return tuple(out)


def to_poly(f: dict[Vector, int]) -> Poly:
    """Character sum -> polynomial in the split positive/negative variables."""
    return {exponent_to_monomial(chi): c for chi, c in f.items()}


def reference_k0_torus(
    datum: CocharacterDatum, max_degree: int = DEFAULT_MAX_DEGREE
) -> tuple[GroebnerBasis, QuotientReport]:
    """Strong basis and Z-module report of R(T) modulo the Frobenius
    differences, in the reference torus ring."""
    spec, units = torus_ring_spec(datum.rd.rank)
    polys = units + [to_poly(g) for g in datum.frobenius_gens]
    gb = strong_groebner(polys, spec, max_degree=max_degree)
    return gb, quotient_z_module(gb)


def torus_k0(datum: CocharacterDatum) -> KZeroPresentation:
    """R(T)/IR(T) for datum's group and prime: compute_k0 at the coroot sum
    2 rho^vee, a regular cocharacter, whose Levi is T."""
    return compute_k0(CocharacterDatum(datum.rd, datum.rd.coroot_sum, datum.p))


def torus_variable_renaming(torus: KZeroPresentation) -> tuple[int, ...]:
    """For each variable y_j of a torus_k0 quotient, the index of its
    reference variable: y(-e_i) is x_ib, y(e_i) is x_i.  Raises ValueError
    when the generator weights are not exactly the +-e_i."""
    rank = torus.levi.rank
    index = {}
    for i in range(rank):
        unit = tuple(1 if j == i else 0 for j in range(rank))
        index[tuple(-x for x in unit)] = 2 * i
        index[unit] = 2 * i + 1
    weights = torus.levi.generator_weights
    if sorted(weights) != sorted(index):
        raise ValueError(f"torus generator weights {weights} are not the +-e_i")
    return tuple(index[w] for w in weights)


def rename_variables(f: Poly, target: Sequence[int]) -> Poly:
    """f with variable j renamed to variable target[j] (a permutation)."""
    out = {}
    for m, c in f.items():
        renamed = [0] * len(target)
        for j, e in enumerate(m):
            renamed[target[j]] = e
        out[tuple(renamed)] = c
    return out


# ---------------------------------------------------------------------------
# Pipeline


def substitution_soundness(datum: CocharacterDatum, kz: KZeroPresentation,
                           torus_gb: GroebnerBasis) -> bool:
    """Every relation, expanded back into Z[X*(T)], lies in the torus-side ideal
    (torus_gb is the strong basis from reference_k0_torus of the same datum)."""
    for rel in kz.syzygy_relations + kz.frobenius_relations:
        expanded = expand_generator_polynomial(rel, kz.levi)
        if normal_form_gb(to_poly(expanded.terms), torus_gb):
            return False
    return True


def counterexample_brute_force(m: int) -> tuple[int, int]:
    """(order of the Weyl invariants of M + Mx, order of the image M) for
    M = Z/m, by enumerating M + Mx and counting the fixed points of the
    reflection.  It acts by s(a + b x) = (a + 2b) - b x, since s(x) = x^{-1} =
    (x + x^{-1}) - x and x + x^{-1} acts on M through its augmentation 2."""
    fixed = 0
    for a in range(m):
        for b in range(m):
            sa = ((a + 2 * b) % m, (-b) % m)
            if sa == (a, b):
                fixed += 1
    return fixed, m


def twisted_point_count(rd: RootDatum, p: int, levi_weyl_order: int) -> int:
    """The rank of R(L)/I R(L) counted from the Weyl group: the sum over w in W
    of |det(p tau - w)| on X*(T), divided by |W_L|, with tau the twist of rd
    (the identity if split).  It counts the pairs (t, w) in T(C) x W with
    F(t) = w t, F = p tau."""
    tau = rd.twist if rd.twist is not None else identity_matrix(rd.rank)
    total = sum(
        abs(determinant([[p * a - b for a, b in zip(row_tau, row_w)]
                         for row_tau, row_w in zip(tau, w)]))
        for w in rd.weyl.elements
    )
    count, rest = divmod(total, levi_weyl_order)
    if rest:
        raise ValueError(f"|W_L| = {levi_weyl_order} does not divide the count {total}")
    return count


def standard_monomial_count(leading_monomials: Sequence[Monomial], nvars: int) -> int:
    """The monomials in nvars variables that no leading monomial divides,
    counted by walking up from 1; the ideal must be zero-dimensional."""
    for i in range(nvars):
        if not any(m[i] and sum(m) == m[i] for m in leading_monomials):
            raise ValueError(f"variable {i} has no pure power among the leading monomials")
    count, level = 0, {(0,) * nvars}
    while level:
        count += len(level)
        level = {
            m[:i] + (m[i] + 1,) + m[i + 1:] for m in level for i in range(nvars)
        }
        level = {m for m in level if not any(all(map(le, lm, m)) for lm in leading_monomials)}
    return count


def sympy_quotient_dimension(polys: Sequence[Poly], nvars: int, modulus: Optional[int] = None) -> int:
    """dim of Q[y]/(polys), or of GF(modulus)[y]/(polys), from sympy's reduced
    grevlex Groebner basis: an oracle independent of the library's engine."""
    import sympy

    gens = sympy.symbols(f"y1:{nvars + 1}")
    exprs = [sympy.Poly.from_dict(f, gens).as_expr() for f in polys]
    options = {"modulus": modulus} if modulus is not None else {}
    gb = sympy.groebner(exprs, *gens, order="grevlex", **options)
    return standard_monomial_count([g.monoms(order="grevlex")[0] for g in gb.polys], nvars)
