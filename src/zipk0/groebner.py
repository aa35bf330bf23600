"""Strong Groebner bases over the integers.

Polynomials are dicts {exponent tuple: nonzero int} in N^m.  Laurent
behaviour comes from explicit inverse variables with unit relations
v*vbar - 1.  Reduction is Euclidean on coefficients (canonical residues in
[0, lc)), and the basis is completed with both S-polynomials (coefficient
lcm) and G-polynomials (coefficient gcd), so every ideal element has a
leading term divisible -- monomial and coefficient -- by a basis leading
term.  This strong property is what makes normal forms unique and lets the
quotient's Z-module structure be read off the staircase.

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
from dataclasses import dataclass
from functools import cached_property
from operator import add, le, sub
from typing import Callable, Iterable, Optional, Sequence

Monomial = tuple[int, ...]
Poly = dict[Monomial, int]


class ResourceCapError(RuntimeError):
    """A configured degree or basis-size cap was exceeded (never silent)."""


DEFAULT_MAX_DEGREE = 60
DEFAULT_MAX_BASIS = 20000


@dataclass(frozen=True)
class PolyRingSpec:
    """Variable names, optional inverse pairs, and the monomial order.

    blocks = None gives graded reverse lexicographic order on all variables;
    otherwise blocks is an ordered partition of the variable indices and the
    order is block-wise grevlex (an elimination order for the leading blocks).
    """

    names: tuple[str, ...]
    inverse_pairs: tuple[tuple[int, int], ...] = ()
    blocks: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self):
        seen = set()
        for a, b in self.inverse_pairs:
            if a in seen or b in seen or a == b:
                raise ValueError("inverse pairs must be disjoint")
            seen.add(a)
            seen.add(b)
        if self.blocks is not None:
            flat = [i for blk in self.blocks for i in blk]
            if sorted(flat) != list(range(len(self.names))):
                raise ValueError("blocks must partition the variables")

    @property
    def nvars(self) -> int:
        return len(self.names)

    def monomial_key(self) -> Callable[[Monomial], tuple]:
        if self.blocks is None:
            def key(m: Monomial):
                return (sum(m), tuple(-e for e in reversed(m)))
            return key
        blocks = self.blocks

        def key(m: Monomial):
            return tuple(
                (sum(m[i] for i in blk), tuple(-m[i] for i in reversed(blk)))
                for blk in blocks
            )
        return key

    def heap_key(self) -> Callable[[Monomial], tuple]:
        """Key that sorts monomials in descending monomial order, so that a
        min-heap of (heap_key(m), m) pops the largest monomial first."""
        if self.blocks is None:
            def key(m: Monomial):
                return (-sum(m), m[::-1])
            return key
        blocks = self.blocks

        def key(m: Monomial):
            return tuple(
                (-sum(m[i] for i in blk), tuple(m[i] for i in reversed(blk)))
                for blk in blocks
            )
        return key

    def unit_relations(self) -> list[Poly]:
        rels = []
        n = self.nvars
        for a, b in self.inverse_pairs:
            e = [0] * n
            e[a] = 1
            e[b] = 1
            rels.append({tuple(e): 1, (0,) * n: -1})
        return rels


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


@dataclass(frozen=True)
class GroebnerBasis:
    spec: PolyRingSpec
    polys: tuple[tuple[tuple[Monomial, int], ...], ...]  # canonical term lists
    reduced: bool = True

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
    """Strong reduction of f by a sorted reducer table (see normal_form)."""
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


def normal_form(f: Poly, basis: Sequence[Poly], spec: PolyRingSpec) -> Poly:
    """Unique remainder of f under strong (Euclidean) reduction by the basis.

    Zero coefficients of f are dropped, so the remainder holds none.  Terms
    are reduced largest monomial first.  Each term c*X^m is reduced
    modulo the smallest leading coefficient among the basis elements whose
    leading monomial divides m; ties go to the smaller leading monomial, then
    to the earlier element.  The heap and the sorted reducer table pick the
    same term and the same reducer at each step as rescanning the remainder
    and the basis would, so the remainder is the same term for term.  With a
    reduced strong basis the result is canonical and membership is
    `normal_form(f) == {}`.
    """
    table = _reducer_table(basis, spec.monomial_key())
    return _reduce(f, table, spec.heap_key())


def normal_form_gb(f: Poly, gb: GroebnerBasis) -> Poly:
    """normal_form by a finished basis, reusing the basis's reducer table."""
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
    basis = [_normalize_sign(dict(g), key) for g in basis if g]
    changed = True
    while changed:
        changed = False
        # Minimality: drop g whose leading term is strongly reducible by another's.
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
        # Full tail reduction of each element by the others.
        for i in range(len(basis)):
            others = basis[:i] + basis[i + 1:]
            red = normal_form(basis[i], others, spec)
            red = _normalize_sign(red, key)
            if red != basis[i]:
                basis[i] = red
                changed = True
        basis = [g for g in basis if g]
    basis.sort(key=lambda g: (key(_leading(g, key)[0]), _leading(g, key)[1],
                              poly_canonical(g, key)))
    return basis


def strong_groebner(
    gens: Iterable[Poly],
    spec: PolyRingSpec,
    max_degree: int = DEFAULT_MAX_DEGREE,
    max_basis: int = DEFAULT_MAX_BASIS,
) -> GroebnerBasis:
    """Buchberger completion with S- and G-polynomials over Z.

    Deterministic: fixed input normalization, normal (smallest-lcm-first)
    selection, canonical interreduction at the end.  Raises ResourceCapError
    when the configured degree or size caps are hit.
    """
    key = spec.monomial_key()
    heap_key = spec.heap_key()
    start: list[Poly] = [dict(g) for g in gens if g]
    start.extend(spec.unit_relations())
    start = [_normalize_sign(g, key) for g in start]
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

    queue: list[tuple] = []  # (lcm key, kind, i, j)
    counter = itertools.count()

    def push_pairs(j: int):
        lmj = leads[j][0]
        for i in range(j):
            big = _monomial_lcm(leads[i][0], lmj)
            heapq.heappush(queue, (key(big), 0, i, j, next(counter)))
            heapq.heappush(queue, (key(big), 1, i, j, next(counter)))

    for j in range(len(basis)):
        push_pairs(j)

    while queue:
        _, kind, i, j, _ = heapq.heappop(queue)
        pair = _spair if kind == 0 else _gpair
        cand = pair(basis[i], leads[i], basis[j], leads[j])
        if cand is None:
            continue
        red = _reduce(cand, table, heap_key)
        if not red:
            continue
        lm = add(red)
        if sum(lm) > max_degree:
            raise ResourceCapError(
                f"leading monomial degree {sum(lm)} exceeds cap {max_degree}"
            )
        if len(basis) > max_basis:
            raise ResourceCapError(f"basis size exceeds cap {max_basis}")
        push_pairs(len(basis) - 1)

    reduced = _interreduce(basis, spec)
    return GroebnerBasis(spec, tuple(poly_canonical(g, key) for g in reduced), True)


# ---------------------------------------------------------------------------
# Elimination


def eliminate(gb: GroebnerBasis, block: Sequence[int]) -> GroebnerBasis:
    """Strong basis of the elimination ideal: intersect with the subring in
    the variables outside `block` (which must be the leading order block)."""
    spec = gb.spec
    if spec.blocks is None or tuple(sorted(spec.blocks[0])) != tuple(sorted(block)):
        raise ValueError("order is not an elimination order with the given block first")
    drop = set(block)
    keep = [i for i in range(spec.nvars) if i not in drop]
    keep_pos = {v: k for k, v in enumerate(keep)}
    new_pairs = tuple(
        (keep_pos[a], keep_pos[b])
        for a, b in spec.inverse_pairs
        if a in keep_pos and b in keep_pos
    )
    rest_blocks = tuple(tuple(keep_pos[i] for i in blk) for blk in spec.blocks[1:])
    new_spec = PolyRingSpec(
        tuple(spec.names[i] for i in keep),
        new_pairs,
        rest_blocks if len(rest_blocks) > 1 else None,
    )
    out = []
    for terms in gb.polys:
        if all(all(m[i] == 0 for i in drop) for m, _ in terms):
            out.append({tuple(m[i] for i in keep): c for m, c in terms})
    key = new_spec.monomial_key()
    out.sort(key=lambda g: (key(_leading(g, key)[0]), poly_canonical(g, key)))
    return GroebnerBasis(new_spec, tuple(poly_canonical(g, key) for g in out), True)


# ---------------------------------------------------------------------------
# Z-module structure of the quotient


@dataclass(frozen=True)
class QuotientReport:
    """Z-module shape of Z[x]/I read from a strong Groebner basis."""

    finite: bool
    rank: int
    torsion: tuple[int, ...]            # invariant factors > 1, divisibility chain
    standard_monomials: tuple[Monomial, ...]
    bound: int
    note: str = ""


def invariant_factors(divisors: Iterable[int]) -> tuple[int, ...]:
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


def quotient_z_module(
    gb: GroebnerBasis, spec: Optional[PolyRingSpec] = None, bound: int = 12
) -> QuotientReport:
    """Rank and torsion of the quotient as a Z-module.

    The quotient is module-finite iff every variable has a pure power among
    the unit-coefficient leading monomials.  In the finite case the module is
    the direct sum over staircase-complement monomials m of Z/d_m, where d_m
    is the least leading coefficient among basis elements whose leading
    monomial divides m (d_m = 0 when there is none: a free summand).
    """
    spec = spec or gb.spec
    n = spec.nvars
    lts = gb.leading_terms()
    unit_lms = [m for m, c in lts if abs(c) == 1]
    nonunit = [(m, abs(c)) for m, c in lts if abs(c) != 1]

    pure_bounds: list[Optional[int]] = [None] * n
    for m in unit_lms:
        supp = [i for i, e in enumerate(m) if e]
        if len(supp) == 1:
            i = supp[0]
            if pure_bounds[i] is None or m[i] < pure_bounds[i]:
                pure_bounds[i] = m[i]
        elif len(supp) == 0:
            # 1 is in the ideal: zero ring.
            return QuotientReport(True, 0, (), (), 0, "unit ideal")
    finite = all(b is not None for b in pure_bounds)

    def not_divisible(m: Monomial) -> bool:
        return not any(_monomial_divides(u, m) for u in unit_lms)

    if finite:
        ranges = [range(b) for b in pure_bounds]  # type: ignore[arg-type]
        cells = [m for m in itertools.product(*ranges) if not_divisible(m)]
        used_bound = max((sum(m) for m in cells), default=0)
        note = ""
    else:
        cells = []
        # Enumerate the staircase complement by total degree, up to the bound.
        for total in range(bound + 1):
            for m in _monomials_of_degree(n, total):
                if not_divisible(m):
                    cells.append(m)
        used_bound = bound
        note = f"not module-finite up to degree {bound}; truncated data"

    free = []
    torsion_divs = []
    for m in cells:
        ds = [c for lm, c in nonunit if _monomial_divides(lm, m)]
        if not ds:
            free.append(m)
        else:
            d = min(ds)
            g = math.gcd(*ds)
            if d != g:
                raise RuntimeError("strong basis violated: minimal lc does not divide the rest")
            if d > 1:
                torsion_divs.append(d)
    return QuotientReport(
        finite,
        len(free),
        invariant_factors(torsion_divs),
        tuple(sorted(free)),
        used_bound,
        note,
    )


def _monomials_of_degree(n: int, total: int) -> Iterable[Monomial]:
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _monomials_of_degree(n - 1, total - first):
            yield (first,) + rest
