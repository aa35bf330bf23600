"""Strong Groebner bases over the integers.

Polynomials are dicts {exponent tuple: nonzero int} in N^m, ordered by
grevlex.  Laurent behaviour comes from explicit inverse variables, whose
unit relations v*vbar - 1 the caller passes among the generators.
Reduction is Euclidean on coefficients (canonical residues in [0, lc)), and
the basis is completed with both S-polynomials (coefficient lcm) and
G-polynomials (coefficient gcd), so every ideal element has a leading term
divisible -- monomial and coefficient -- by a basis leading term.  This
strong property is what makes normal forms unique and lets the quotient's
Z-module structure be read from the staircase: its cells and one relation
for each cell under a non-unit leading term (quotient_z_module).
An S-pair is not reduced when the product criterion or the chain criterion
proves it redundant; G-pairs are never pruned.

Reduction takes the terms of the remainder from a heap, largest monomial
first, and reduces each one by the first entry of a reducer table: the basis
elements sorted by (leading coefficient, leading monomial, position).  That
first dividing entry is the smallest applicable leading coefficient, ties
broken by the smaller leading monomial and then the earlier basis position,
so every term meets the same reducer in the same order as a rescan of the
remainder and of the whole basis would give, and the remainder is the same
term for term.  strong_groebner keeps one table and inserts each new basis
element into it; a finished GroebnerBasis builds its table once.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from functools import cached_property
from operator import add, le, sub
from typing import Callable, Iterable, Optional, Sequence

from ._record import record
from .lattice import cokernel_torsion

Monomial = tuple[int, ...]
Poly = dict[Monomial, int]


class ResourceCapError(RuntimeError):
    """A configured degree or basis-size cap was exceeded (never silent)."""


DEFAULT_MAX_DEGREE = 60
DEFAULT_MAX_BASIS = 20000
TRUNCATION_BOUND = 12  # degree cap of a quotient report that is not module-finite


@record
class PolyRingSpec:
    """Variable names of Z[x_1..x_n], ordered by graded reverse lexicographic
    order."""

    names: tuple[str, ...]

    @property
    def nvars(self) -> int:
        return len(self.names)

    def monomial_key(self) -> Callable[[Monomial], tuple]:
        def key(m: Monomial):
            return (sum(m), tuple(-e for e in reversed(m)))
        return key

    def heap_key(self) -> Callable[[Monomial], tuple]:
        """Key that sorts monomials in descending monomial order, so that a
        min-heap of (heap_key(m), m) pops the largest monomial first."""
        def key(m: Monomial):
            return (-sum(m), m[::-1])
        return key


def poly_canonical(f: Poly, key) -> tuple[tuple[Monomial, int], ...]:
    return tuple(sorted(f.items(), key=lambda t: key(t[0]), reverse=True))


def poly_to_string(f: Poly, spec: PolyRingSpec) -> str:
    if not f:
        return "0"
    key = spec.monomial_key()
    bits = []
    for m, c in poly_canonical(f, key):
        factors = [
            spec.names[i] if e == 1 else f"{spec.names[i]}^{e}"
            for i, e in enumerate(m)
            if e
        ]
        mono = "*".join(factors)
        if not mono:
            term = str(abs(c))
        elif abs(c) == 1:
            term = mono
        else:
            term = f"{abs(c)}*{mono}"
        sign = "-" if c < 0 else "+"
        bits.append((sign, term))
    head_sign, head = bits[0]
    out = ("-" if head_sign == "-" else "") + head
    for sign, term in bits[1:]:
        out += f" {sign} {term}"
    return out


def _monomial_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def _monomial_sub(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(sub, a, b))


def _monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _sub_scaled_shifted(f: Poly, g: Poly, c: int, shift: Monomial) -> None:
    """f -= c * X^shift * g, in place."""
    for m, cc in g.items():
        key = tuple(a + b for a, b in zip(m, shift))
        val = f.get(key, 0) - c * cc
        if val:
            f[key] = val
        else:
            f.pop(key, None)


# A reducer table entry is (lc, monomial_key(lm), position, lm, g) for a
# nonzero basis element g with leading term lc*X^lm at `position` among the
# nonzero elements.  Positions are distinct, so sorting never compares lm or g.
ReducerEntry = tuple[int, tuple, int, Monomial, Poly]


def _reducer_table(basis: Iterable[Poly], key) -> list[ReducerEntry]:
    table = []
    for position, g in enumerate(g for g in basis if g):
        lm, lc = _leading(g, key)
        table.append((lc, key(lm), position, lm, g))
    table.sort()
    return table


@record
class GroebnerBasis:
    spec: PolyRingSpec
    polys: tuple[tuple[tuple[Monomial, int], ...], ...]  # canonical term lists

    def as_dicts(self) -> list[Poly]:
        return [dict(terms) for terms in self.polys]

    def leading_terms(self) -> list[tuple[Monomial, int]]:
        return [terms[0] for terms in self.polys]

    def to_strings(self) -> list[str]:
        return [poly_to_string(dict(t), self.spec) for t in self.polys]

    @cached_property
    def _reducers(self) -> list[ReducerEntry]:
        return _reducer_table(self.as_dicts(), self.spec.monomial_key())


def _leading(f: Poly, key) -> tuple[Monomial, int]:
    m = max(f, key=key)
    return m, f[m]


def _normalize_sign(f: Poly, key) -> Poly:
    if not f:
        return f
    _, c = _leading(f, key)
    if c < 0:
        return {m: -cc for m, cc in f.items()}
    return f


def _reduce(f: Poly, table: Sequence[ReducerEntry], heap_key) -> Poly:
    """Unique remainder of f under strong (Euclidean) reduction by the basis
    whose sorted reducer table (_reducer_table) is given.

    Zero coefficients of f are dropped, so the remainder holds none.  Terms
    are reduced largest monomial first.  Each term c*X^m is reduced
    modulo the smallest leading coefficient among the basis elements whose
    leading monomial divides m; ties go to the smaller leading monomial, then
    to the earlier element.  The heap and the sorted reducer table pick the
    same term and the same reducer at each step as rescanning the remainder
    and the basis would, so the remainder is the same term for term.  With a
    reduced strong basis the result is canonical and membership is a zero
    remainder.
    """
    work = {m: c for m, c in f.items() if c}
    heap = [(heap_key(m), m) for m in work]
    heapq.heapify(heap)
    out: Poly = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue  # stale entry: the term cancelled or was taken already
        for lc, _, _, lm, g in table:
            if all(map(le, lm, m)):
                break
        else:
            out[m] = c
            continue
        q, r = divmod(c, lc)
        if q:
            # The other terms of the shifted reducer lie below m, so none has
            # been taken from the heap yet.  Its leading term only turns c
            # into r, so it is skipped.
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


def normal_form_gb(f: Poly, gb: GroebnerBasis) -> Poly:
    """Strong reduction of f by a finished basis, reusing its reducer table."""
    return _reduce(f, gb._reducers, gb.spec.heap_key())


def _spair(
    f: Poly, lt_f: tuple[Monomial, int], g: Poly, lt_g: tuple[Monomial, int]
) -> Poly:
    (lmf, lcf), (lmg, lcg) = lt_f, lt_g
    big = _monomial_lcm(lmf, lmg)
    l = lcf * lcg // math.gcd(lcf, lcg)
    out: Poly = {}
    _sub_scaled_shifted(out, f, -(l // lcf), _monomial_sub(big, lmf))
    _sub_scaled_shifted(out, g, l // lcg, _monomial_sub(big, lmg))
    return out


def _gpair(
    f: Poly, lt_f: tuple[Monomial, int], g: Poly, lt_g: tuple[Monomial, int]
) -> Optional[Poly]:
    (lmf, lcf), (lmg, lcg) = lt_f, lt_g
    if lcg % lcf == 0 or lcf % lcg == 0:
        return None
    d, u, v = _xgcd(lcf, lcg)
    big = _monomial_lcm(lmf, lmg)
    out: Poly = {}
    _sub_scaled_shifted(out, f, -u, _monomial_sub(big, lmf))
    _sub_scaled_shifted(out, g, -v, _monomial_sub(big, lmg))
    return out


def _interreduce(basis: list[Poly], spec: PolyRingSpec) -> list[Poly]:
    key = spec.monomial_key()
    heap_key = spec.heap_key()
    basis = [_normalize_sign(dict(g), key) for g in basis if g]
    changed = True
    while changed:
        changed = False
        # Minimality: drop g whose leading term is strongly reducible by another's.
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
        # Full tail reduction of each element by the others, in order, with
        # one reducer table for the pass: element i leaves the table while it
        # is reduced and returns in its reduced form.  Positions are the
        # indices in `basis`, so the others keep the order they would have
        # in a table built from basis[:i] + basis[i + 1:].
        table = [(lc, key(lm), i, lm, g)
                 for i, (g, (lm, lc)) in enumerate(zip(basis, kept_leads))]
        table.sort()
        for i, (g, (lm, lc)) in enumerate(zip(basis, kept_leads)):
            del table[bisect.bisect_left(table, (lc, key(lm), i))]
            red = _normalize_sign(_reduce(g, table, heap_key), key)
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


def _product_criterion(lt_f: tuple[Monomial, int], lt_g: tuple[Monomial, int]) -> bool:
    """Buchberger's product criterion over Z: the S-polynomial of f and g
    needs no reduction when their leading monomials are coprime and so are
    their leading coefficients.

    Then lcm(lc_f, lc_g) = lc_f*lc_g and the S-polynomial is
    lt_g*f - lt_f*g = tail_f*g - tail_g*f.  The two products have different
    leading monomials (lm_f | lm(tail_f)*lm_g would force lm_f | lm(tail_f)),
    so this is a standard representation strictly below lm_f*lm_g: the
    S-syzygy of the pair lifts.  Over a PID the S-syzygies generate the
    syzygies of the leading terms, and a basis whose S-syzygies all lift is a
    Groebner basis (the lifting theorem: Adams & Loustaunau, "An Introduction
    to Groebner Bases", AMS 1994, Thm 4.2.3, and Section 4.5 for PIDs); the
    G-polynomials, which are never pruned, then make it strong.  The criterion
    for strong bases over principal ideal rings is in Eder & Hofmann,
    "Efficient Groebner bases computation over principal ideal rings", JSC
    2021.  Both conditions are needed: with a common factor of the
    coefficients the S-polynomial of (2x + 1, 2y) is y, a new leading term.
    """
    (lmf, lcf), (lmg, lcg) = lt_f, lt_g
    return math.gcd(lcf, lcg) == 1 and not any(map(min, lmf, lmg))


def _chain_criterion(
    lt_k: tuple[Monomial, int],
    lt_i: tuple[Monomial, int],
    lt_j: tuple[Monomial, int],
    big: Monomial,
) -> bool:
    """Gebauer-Moeller chain criterion over Z: the S-pair (i, j), with
    big = lcm(lm_i, lm_j), is redundant once element k is in the basis when
    lm_k | big and lc_k | lcm(lc_i, lc_j).

    With l = lcm(lc_i, lc_j), the two conditions make lt_k divide l*X^big,
    and the S-syzygy of (i, j) is then a sum of term multiples of the
    S-syzygies of (i, k) and (k, j):
    S_ij = (l/l_ik) X^(big - lcm(lm_i, lm_k)) S_ik
         + (l/l_kj) X^(big - lcm(lm_k, lm_j)) S_kj.
    So S_ij lifts whenever S_ik and S_kj do (the lifting theorem cited at
    _product_criterion; Gebauer & Moeller, "On an installation of
    Buchberger's algorithm", JSC 1988, for fields; Eder & Hofmann, JSC 2021,
    for strong bases over principal ideal rings).  strong_groebner tries k
    only when k is the newest element, before the pairs of k are queued, so
    a pair is dropped only on the strength of pairs (i, k) and (j, k) with a
    newer element, which in turn only a still newer element can drop.
    Induction from the newest element down closes every chain, with no
    condition on the lcms: no pair is ever dropped on the strength of a pair
    that was dropped on its strength.
    """
    lmk, lck = lt_k
    (_, lci), (_, lcj) = lt_i, lt_j
    return all(map(le, lmk, big)) and (lci * lcj // math.gcd(lci, lcj)) % lck == 0


def strong_groebner(
    gens: Iterable[Poly],
    spec: PolyRingSpec,
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> GroebnerBasis:
    """Buchberger completion with S- and G-polynomials over Z.

    Deterministic: fixed input normalization, normal (smallest-lcm-first)
    selection, canonical interreduction at the end.  S-pairs that the
    product criterion or the chain criterion proves redundant are never
    reduced; G-pairs are never pruned.  The generators are taken in the
    order of (leading monomial, terms), so the basis does not depend on the
    order they come in.  Raises ResourceCapError when a leading monomial
    exceeds max_degree or the basis exceeds DEFAULT_MAX_BASIS elements.
    """
    key = spec.monomial_key()
    heap_key = spec.heap_key()
    start = [_normalize_sign(dict(g), key) for g in gens if g]
    start.sort(key=lambda g: (key(_leading(g, key)[0]), poly_canonical(g, key)))
    basis: list[Poly] = []
    leads: list[tuple[Monomial, int]] = []  # leading term of each basis element
    table: list[ReducerEntry] = []

    def add(g: Poly) -> Monomial:
        g = _normalize_sign(g, key)
        lm, lc = _leading(g, key)
        bisect.insort(table, (lc, key(lm), len(basis), lm, g))
        basis.append(g)
        leads.append((lm, lc))
        return lm

    for g in start:
        red = _reduce(g, table, heap_key)
        if red:
            add(red)

    queue: list[tuple] = []  # (lcm key, kind, i, j, counter)
    counter = itertools.count()
    # Queued S-pairs by their lcm; a pair the chain criterion drops leaves
    # its set and is skipped when it is popped.
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
            if lcj % lci and lci % lcj:  # otherwise _gpair has nothing to add
                heapq.heappush(queue, (big_key, 1, i, j, next(counter)))

    def drop_chained(k: int):
        lt_k = leads[k]
        lmk = lt_k[0]
        emptied = []
        for big, pairs in pending.items():
            if all(map(le, lmk, big)):
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
                continue  # dropped by the chain criterion
            pairs.remove((i, j))
            if not pairs:
                del pending[big]
        pair = _spair if kind == 0 else _gpair
        red = _reduce(pair(basis[i], leads[i], basis[j], leads[j]), table, heap_key)
        if not red:
            continue
        lm = add(red)
        if sum(lm) > max_degree:
            raise ResourceCapError(
                f"leading monomial degree {sum(lm)} exceeds cap {max_degree}"
            )
        if len(basis) > DEFAULT_MAX_BASIS:
            raise ResourceCapError(f"basis size exceeds cap {DEFAULT_MAX_BASIS}")
        drop_chained(len(basis) - 1)
        push_pairs(len(basis) - 1)

    reduced = _interreduce(basis, spec)
    return GroebnerBasis(spec, tuple(poly_canonical(g, key) for g in reduced))


# ---------------------------------------------------------------------------
# Z-module structure of the quotient


@record
class QuotientReport:
    """Z-module shape of Z[x]/I read from a strong Groebner basis."""

    finite: bool
    rank: int
    torsion: tuple[int, ...]            # invariant factors > 1, divisibility chain
    standard_monomials: tuple[Monomial, ...]
    bound: int
    note: str = ""


def quotient_z_module(gb: GroebnerBasis) -> QuotientReport:
    """Rank and torsion of the quotient as a Z-module, exactly.

    The cells are the monomials that no unit-coefficient leading monomial
    divides.  Reduction by the unit-leading elements U alone divides by
    leading coefficient 1 and picks each reducer by the monomial only, so it
    is Z-linear; it sends every polynomial to a combination of cells
    congruent to it modulo (U), and the quotient is Z^cells modulo the image
    of the ideal.  That image is spanned by one column per cell m that some
    non-unit leading monomial divides: the U-reduction of X^(m - lm g)*g for
    the element g that reduction would use at m (least leading coefficient
    d_m).  Its leading term d_m*X^m survives, since m is a cell, and since
    the basis is strong d_m divides the leading coefficient at m of every
    image, so subtracting multiples of these echelon columns takes any image
    to zero.  The columns are independent, so the rank is the number of
    cells without a column: the standard monomials, which no leading
    monomial divides.  The torsion is that of the cokernel of the cells x
    columns matrix (lattice.cokernel_torsion), whose square block on the
    pivot cells is triangular with determinant the product of the d_m.  A
    carry such as 2x = 3y merges a cell into the free part, which reading
    off Z/d_m per cell would miss.

    The quotient is module-finite iff every variable has a pure power among
    the unit leading monomials; then the cells are finite.  Otherwise the
    cells and columns are those of total degree <= TRUNCATION_BOUND.  The
    order is graded, so every column then lies on those cells, and the report
    is exactly the rank and torsion of the submodule spanned by the monomials
    of degree <= TRUNCATION_BOUND, as its note says.
    """
    spec = gb.spec
    heap_key = spec.heap_key()
    n = spec.nvars
    unit = [e for e in gb._reducers if abs(e[0]) == 1]
    nonunit = [e for e in gb._reducers if abs(e[0]) != 1]
    unit_lms = [e[3] for e in unit]
    if (0,) * n in unit_lms:
        return QuotientReport(True, 0, (), (), 0, "unit ideal")
    finite = all(
        any(m[i] and sum(m) == m[i] for m in unit_lms) for i in range(n)
    )

    # The cells are closed under division, so each one is a cell of the
    # previous degree times a variable.
    cells: list[Monomial] = []
    level = [(0,) * n]
    bound = TRUNCATION_BOUND
    while level and (finite or sum(level[0]) <= bound):
        cells.extend(level)
        step = {
            tuple(e + (i == v) for i, e in enumerate(m))
            for m in level for v in range(n)
        }
        level = sorted(m for m in step if not any(all(map(le, u, m)) for u in unit_lms))
    index = {m: r for r, m in enumerate(cells)}

    standard = []
    columns = []
    pivots = []
    for m in cells:
        under = [(lc, lm, g) for lc, _, _, lm, g in nonunit if all(map(le, lm, m))]
        if not under:
            standard.append(m)
            continue
        lc, lm, g = under[0]  # least leading coefficient: the reducer at m
        if any(other % lc for other, _, _ in under):
            raise RuntimeError("strong basis violated: minimal lc does not divide the rest")
        shift = _monomial_sub(m, lm)
        shifted = {tuple(map(add, gm, shift)): gc for gm, gc in g.items()}
        col = [0] * len(cells)
        for t, c in _reduce(shifted, unit, heap_key).items():
            col[index[t]] = c
        columns.append(col)
        pivots.append(lc)
    torsion = cokernel_torsion(columns, pivots)
    if finite:
        used_bound = max(sum(m) for m in cells)
        note = ""
    else:
        used_bound = bound
        note = (f"not module-finite; truncated to the submodule spanned by the "
                f"monomials of degree <= {bound}")
    return QuotientReport(finite, len(standard), torsion, tuple(sorted(standard)),
                          used_bound, note)
