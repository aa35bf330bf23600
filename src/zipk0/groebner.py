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
An S-pair is not reduced when the product criterion or the Gebauer-Moeller
update (_update) proves it redundant; G-pairs are never pruned.

Inside the engine a monomial is one int (_Packing): exponent i in the field
at bit i*width, the total degree in the top field, each field topped by a
guard bit.  A shift X^(m - lm)*g is one addition per term, lm | m one
addition and a mask test, and the grevlex key one int, so heap entries and
reducer-table keys are ints.  strong_groebner, normal_form_gb and
quotient_z_module take and return tuple-keyed polynomials.

The width holds every degree formed, so no field carries into the next.
The order is graded, so a reduction step adds X^(m - lm)*(tail of g) below
m and never raises the degree; only pair lcms do.  In strong_groebner every
element that enters a pair has leading degree at most D = max(max_degree,
highest input degree), since an element above max_degree raises
ResourceCapError before it joins, so no monomial exceeds 2*D.
normal_form_gb forms none above the input's or the basis's degree, and
quotient_z_module none above its last cell level plus one.  Packing a
monomial beyond the bound raises OverflowError.
"""

from __future__ import annotations

import bisect
from heapq import heapify, heappop, heappush
import math
from typing import Callable, Iterable, Optional, Sequence

from ._record import record
from .caps import DEFAULT_MAX_DEGREE, ResourceCapError
from .lattice import cokernel_torsion

Monomial = tuple[int, ...]
Poly = dict[Monomial, int]
Packed = dict[int, int]  # {packed monomial: nonzero int}
Term = tuple[int, int]  # (packed monomial, coefficient): a leading or an lcm term


DEFAULT_MAX_BASIS = 20000
MIN_FIELD_BITS = 8  # so that every degree up to 127 shares one width and one table


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


class _Packing:
    """Monomials of degree <= bound in nvars variables as ints: a field holds
    0..self.bound in its low width - 1 bits, and its top bit is the guard."""

    def __init__(self, nvars: int, bound: int):
        self.width = width = max(MIN_FIELD_BITS, bound.bit_length() + 1)
        self.bound = (1 << (width - 1)) - 1
        self.shifts = range(0, nvars * width, width)
        self.top = nvars * width  # bit of the degree field
        self.field = (1 << width) - 1
        self.guard = sum(1 << (s + width - 1) for s in range(0, self.top + 1, width))
        self.ones = sum(1 << (s + width) for s in self.shifts)
        self.low_mask = (1 << self.top) - 1
        self.degree_mask = self.field << self.top

    def pack(self, m: Monomial) -> int:
        degree = sum(m)
        if degree > self.bound or min(m, default=0) < 0:
            raise OverflowError(f"monomial {m} does not fit fields bounded by {self.bound}")
        return sum(e << s for e, s in zip(m, self.shifts)) + (degree << self.top)

    def unpack(self, p: int) -> Monomial:
        return tuple((p >> s) & self.field for s in self.shifts)

    def pack_poly(self, f: Poly) -> Packed:
        return {self.pack(m): c for m, c in f.items()}

    def unpack_poly(self, f: Packed) -> Poly:
        return {self.unpack(m): c for m, c in f.items()}

    def key(self, p: int) -> int:
        """Grevlex as an int: the degree, then minus the fields read from the
        last variable down, which is the reverse lexicographic tie-break."""
        return ((p >> self.top) << (self.top + 1)) - p

    def divides(self, a: int, b: int) -> bool:
        return (b + self.guard - a) & self.guard == self.guard

    def lcm(self, a: int, b: int) -> int:
        # The guard bits of a + guard - b mark the fields where a >= b, and
        # one product sums the exponent fields into the degree field.
        wins = (((a + self.guard - b) & self.guard) >> (self.width - 1)) * self.field
        low = ((a & wins) | (b & ~wins)) & self.low_mask
        return low + ((low * self.ones) & self.degree_mask)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


# A reducer table entry is (lc, key(lm), position, guard - lm, tail) for a
# nonzero packed basis element with leading term lc*X^lm at `position` among
# the nonzero elements, and tail its other terms as (monomial, coefficient)
# pairs.  Positions are distinct, so sorting never compares the last two.
ReducerEntry = tuple[int, int, int, int, tuple]


def _entry(g: Packed, position: int, pk: _Packing) -> ReducerEntry:
    lm, lc = _leading(g, pk.key)
    return (lc, pk.key(lm), position, pk.guard - lm, tuple(t for t in g.items() if t[0] != lm))


def _reducer_table(basis: Iterable[Packed], pk: _Packing) -> list[ReducerEntry]:
    return sorted(_entry(g, position, pk) for position, g in enumerate(g for g in basis if g))


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

    def _table(self, pk: _Packing) -> list[ReducerEntry]:
        """The reducer table of the basis packed by pk, built once per width."""
        tables = vars(self).setdefault("_tables", {})
        if pk.width not in tables:
            tables[pk.width] = _reducer_table(map(pk.pack_poly, self.as_dicts()), pk)
        return tables[pk.width]


def _leading(f: dict, key) -> tuple:
    m = max(f, key=key)
    return m, f[m]


def _normalize_sign(f: dict, key) -> dict:
    if f and _leading(f, key)[1] < 0:
        return {m: -c for m, c in f.items()}
    return f


def _reduce(f: Packed, table: Sequence[ReducerEntry], pk: _Packing) -> Packed:
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
    # The heap holds -key(m) = m - (deg(m) << (top + 1)); the same map sends
    # it back to m.
    top, top1, guard = pk.top, pk.top + 1, pk.guard
    work = {m: c for m, c in f.items() if c}
    heap = [m - ((m >> top) << top1) for m in work]
    heapify(heap)
    out: Packed = {}
    while heap:
        h = heappop(heap)
        m = h - ((h >> top) << top1)
        c = work.pop(m, None)
        if c is None:
            continue  # stale entry: the term cancelled or was taken already
        for lc, _, _, neg, tail in table:
            shift = m + neg
            if shift & guard == guard:
                break
        else:
            out[m] = c
            continue
        q, r = divmod(c, lc)
        if q:
            # The tail of the shifted reducer lies below m, so none of it has
            # been taken from the heap yet; its leading term turns c into r.
            shift -= guard
            for gm, gc in tail:
                t = gm + shift
                old = work.get(t)
                if old is None:
                    work[t] = -q * gc
                    heappush(heap, t - ((t >> top) << top1))
                elif old == q * gc:
                    del work[t]
                else:
                    work[t] = old - q * gc
        if r:
            out[m] = r
    return out


def normal_form_gb(f: Poly, gb: GroebnerBasis) -> Poly:
    """Strong reduction of f by a finished basis, reusing its reducer table."""
    degrees = [sum(m) for m in f] + [sum(m) for m, _ in gb.leading_terms()]
    pk = _Packing(gb.spec.nvars, max(degrees, default=0))
    return pk.unpack_poly(_reduce(pk.pack_poly(f), gb._table(pk), pk))


def _pair(kind: int, f: Packed, lt_f: Term, g: Packed, lt_g: Term, big: int) -> Packed:
    """a*X^(big - lm_f)*f + b*X^(big - lm_g)*g: the S-polynomial (kind 0,
    the leading terms cancel) or the G-polynomial (kind 1, leading
    coefficient gcd(lc_f, lc_g) = a*lc_f + b*lc_g)."""
    (lmf, lcf), (lmg, lcg) = lt_f, lt_g
    if kind == 0:
        l = lcf * lcg // math.gcd(lcf, lcg)
        a, b = l // lcf, -(l // lcg)
    else:
        _, a, b = _xgcd(lcf, lcg)
    out: Packed = {}
    for h, c, shift in ((f, a, big - lmf), (g, b, big - lmg)):
        for m, hc in h.items():
            val = out.get(m + shift, 0) + c * hc
            if val:
                out[m + shift] = val
            else:
                out.pop(m + shift, None)
    return out


def _interreduce(
    basis: list[Packed], pk: _Packing
) -> tuple[list[Packed], list[ReducerEntry]]:
    """The reduced strong basis of the ideal of the strong basis `basis`, in
    (grevlex key of lm, lc) order, from one pass in that order, and its
    reducer table, which the pass builds as it goes.

    An element g whose leading term a kept one's strongly divides
    (_term_divides) is dropped; the rest are reduced by the table of the
    kept, finished elements, which they then join.  Only a smaller leading
    monomial divides a term below lm(g), so no later element reduces g's
    tail.  Nor does any element reduce lt(g): the leading coefficients of
    the ideal's elements with leading monomial m form an ideal d_m Z, with
    d_m | d_m' when m' | m, and the basis is strong, so some h in it has
    lm(h) | lm(g) and lc(h) = d_lm(g).  Unless lt(h) = lt(g), h comes first,
    and h or the kept element that strongly divides lt(h) drops g.  So a
    kept g has lc(g) = d_lm(g), which properly divides lc(s) for each kept s
    with lm(s) | lm(g).  The result is the unique reduced strong basis
    (Adams & Loustaunau, "An Introduction to Groebner Bases", Section 4.5),
    and a leading term that moves or vanishes proves the input not strong.
    """
    key = pk.key
    signed = [_normalize_sign(g, key) for g in basis if g]
    lts = [_leading(g, key) for g in signed]
    table: list[ReducerEntry] = []
    kept: list[Packed] = []
    leads: list[Term] = []
    for i in sorted(range(len(signed)), key=lambda i: (key(lts[i][0]), lts[i][1])):
        if any(_term_divides(t, lts[i], pk) for t in leads):
            continue
        red = _reduce(signed[i], table, pk)
        if red.get(lts[i][0]) != lts[i][1]:
            raise RuntimeError("interreduction moved a leading term: not a strong basis")
        bisect.insort(table, _entry(red, len(kept), pk))
        kept.append(red)
        leads.append(lts[i])
    return kept, table


def _product_criterion(lt_f: Term, lt_g: Term, big: int) -> bool:
    """Buchberger's product criterion over Z: the S-polynomial of f and g
    needs no reduction when their leading monomials are coprime (their lcm
    `big` is their product) and so are their leading coefficients.

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
    return math.gcd(lcf, lcg) == 1 and big == lmf + lmg


def _term_divides(s: Term, t: Term, pk: _Packing) -> bool:
    """The term s = (monomial, coefficient) divides t: monomial and coefficient."""
    return pk.divides(s[0], t[0]) and t[1] % s[1] == 0


def _update(live: dict[tuple[int, int], Term], leads: Sequence[Term], lt_k: Term,
            pk: _Packing) -> list[tuple[int, Term]]:
    """Gebauer-Moeller update as element k = len(leads), with leading term
    lt_k, joins: drop from `live` ({(i, j): L_ij}) the queued S-pairs that k
    makes redundant, and return the pairs (i, L_ik) of k to queue.

    L_ij = (lcm(lm_i, lm_j), lcm(lc_i, lc_j)) is the pair's lcm term.  The
    criteria are Gebauer & Moeller's ("On an installation of Buchberger's
    algorithm", JSC 1988; Becker & Weispfenning, "Groebner Bases", GTM 141,
    Section 5.5, UPDATE) on lcm terms, as for strong bases over a principal
    ideal ring (Eder & Hofmann, cited at _product_criterion):
    - B_k drops a live (i, j) when lt_k | L_ij and L_ij is neither L_ik nor L_jk;
    - M queues no (i, k) when some L_jk properly divides L_ik;
    - F queues one pair of k per equal L, the least i, and none when one of
      them passes _product_criterion.
    When lt_k | L_ij, then S_ij = (L_ij/L_ik) S_ik + (L_ij/L_kj) S_kj for the
    S-syzygies, so S_ij lifts when S_ik and S_kj do (the lifting theorem
    cited at _product_criterion).  Order the pairs by (L, larger index,
    smaller index), L by (grevlex key, coefficient), which refines term
    divisibility.  Each drop rests on two pairs below it: B_k's on (i, k) and
    (j, k), whose L strictly divide L_ij; M's on (j, k), strictly smaller,
    and the pair of i and j, whose L divides L_ik and whose larger index is
    below k; F's on the pair of k that stays or passes the product criterion
    (which lifts by itself) and a pair of two older elements.  By induction up
    this order every S-syzygy lifts once the queue is empty, whatever became
    of the pairs a drop rests on.  Without B_k's lcm condition, M could drop
    (i, k) on a pair (i, j) that B_k dropped on (i, k).
    """
    lmk, lck = lt_k
    terms = [(pk.lcm(lm, lmk), math.lcm(lc, lck)) for lm, lc in leads]
    for (i, j), big in list(live.items()):
        if _term_divides(lt_k, big, pk) and big != terms[i] and big != terms[j]:
            del live[i, j]  # B_k
    classes: dict[Term, list[int]] = {}
    for i, big in enumerate(terms):
        classes.setdefault(big, []).append(i)
    minimal, new = [], []  # L kept by M so far (a dropped L has a kept divisor); pairs to queue
    for big in sorted(classes, key=lambda t: (pk.key(t[0]), t[1])):
        if not any(_term_divides(t, big, pk) for t in minimal):  # M
            minimal.append(big)
            if not any(_product_criterion(leads[i], lt_k, big[0]) for i in classes[big]):
                new.append((classes[big][0], big))  # F
    return new


def strong_groebner(
    gens: Iterable[Poly],
    spec: PolyRingSpec,
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> GroebnerBasis:
    """Buchberger completion with S- and G-polynomials over Z.

    Deterministic: fixed input normalization, normal (smallest-lcm-first)
    selection, and at the end one ordered pass (_interreduce) that turns the
    strong basis into the unique reduced one.  As each element joins,
    one Gebauer-Moeller update on lcm terms (_update) drops the queued
    S-pairs it makes redundant and queues the pairs of the new element that
    no criterion prunes; G-pairs are never pruned.  The generators are taken
    in the order of (leading monomial, terms), so the basis does not depend
    on the order they come in.  Raises ResourceCapError when an element
    joining the basis, a reduced generator included, has a leading monomial
    above max_degree or the basis exceeds DEFAULT_MAX_BASIS elements, and
    TypeError for a spec of another order than PolyRingSpec's grevlex.
    """
    if type(spec) is not PolyRingSpec:
        raise TypeError(f"the engine has grevlex only, not the order of a {type(spec).__name__}")
    key = spec.monomial_key()
    start = [_normalize_sign(dict(g), key) for g in gens if g]
    start.sort(key=lambda g: (key(_leading(g, key)[0]), poly_canonical(g, key)))
    pk = _Packing(spec.nvars, 2 * max([max_degree, *(sum(m) for g in start for m in g)]))
    basis: list[Packed] = []
    leads: list[Term] = []  # leading term of each basis element
    table: list[ReducerEntry] = []
    queue: list[tuple[int, int, int, int]] = []  # (lcm key, kind, i, j), each once
    live: dict[tuple[int, int], Term] = {}  # queued S-pair: its lcm term

    def add(g: Packed) -> None:
        """Append g as element k, update the S-pairs (B_k, then M and F
        among the pairs of k) and queue the G-pairs of k.  The caps apply
        here, to every element that joins, reduced generators included."""
        degree = max(g) >> pk.top  # the degree field is the top one
        if degree > max_degree:
            raise ResourceCapError(f"leading monomial degree {degree} exceeds cap {max_degree}")
        if len(basis) >= DEFAULT_MAX_BASIS:
            raise ResourceCapError(f"basis size exceeds cap {DEFAULT_MAX_BASIS}")
        g, k = _normalize_sign(g, pk.key), len(basis)
        entry = _entry(g, k, pk)
        bisect.insort(table, entry)
        lt_k = (lmk, lck) = (pk.guard - entry[3], entry[0])
        for i, big in _update(live, leads, lt_k, pk):
            live[i, k] = big
            heappush(queue, (pk.key(big[0]), 0, i, k))
        for i, (lmi, lci) in enumerate(leads):
            if lck % lci and lci % lck:  # otherwise the G-polynomial adds nothing
                heappush(queue, (pk.key(pk.lcm(lmi, lmk)), 1, i, k))
        basis.append(g)
        leads.append(lt_k)

    for g in start:
        red = _reduce(pk.pack_poly(g), table, pk)
        if red:
            add(red)

    while queue:
        _, kind, i, j = heappop(queue)
        if kind == 0 and live.pop((i, j), None) is None:
            continue  # dropped by B_k after it was queued
        big = pk.lcm(leads[i][0], leads[j][0])
        red = _reduce(_pair(kind, basis[i], leads[i], basis[j], leads[j], big), table, pk)
        if red:
            add(red)

    reduced, reduced_table = _interreduce(basis, pk)
    gb = GroebnerBasis(spec, tuple(
        tuple((pk.unpack(m), g[m]) for m in sorted(g, key=pk.key, reverse=True)) for g in reduced
    ))
    vars(gb)["_tables"] = {pk.width: reduced_table}
    return gb


# ---------------------------------------------------------------------------
# Z-module structure of the quotient


@record
class QuotientReport:
    """Z-module shape of Z[x]/I read from a strong Groebner basis."""

    rank: int
    torsion: tuple[int, ...]            # invariant factors > 1, divisibility chain
    standard_monomials: tuple[Monomial, ...]
    bound: int                          # highest degree of a cell


def quotient_z_module(gb: GroebnerBasis) -> QuotientReport:
    """Rank and torsion of the quotient as a Z-module, exactly.

    The quotient must be module-finite: every variable has a pure power
    among the unit-coefficient leading monomials, 1 counting as the zeroth
    power of each; a basis without them raises RuntimeError.  Every basis
    that zipk.compute_k0 completes has them: K0 is a free Z-module of finite
    rank N (README, "Why K0 is free"), so each y_i satisfies the monic
    characteristic polynomial of multiplication by y_i, and a strong basis
    divides its leading term y_i^N.

    The cells are the monomials that no unit-coefficient leading monomial
    divides, finitely many.  Reduction by the unit-leading elements U alone
    divides by leading coefficient 1 and picks each reducer by the monomial
    only, so it is Z-linear; it sends every polynomial to a combination of
    cells congruent to it modulo (U), and the quotient is Z^cells modulo the
    image of the ideal.  That image is spanned by one column per cell m that
    some non-unit leading monomial divides: the U-reduction of
    X^(m - lm g)*g for the element g that reduction would use at m (least
    leading coefficient d_m).  Its leading term d_m*X^m survives, since m is
    a cell, and since the basis is strong d_m divides the leading coefficient
    at m of every image, so subtracting multiples of these echelon columns
    takes any image to zero.  The columns are independent, so the rank is the
    number of cells without a column: the standard monomials, which no
    leading monomial divides.  The torsion is that of the cokernel of the
    cells x columns matrix (lattice.cokernel_torsion), whose square block on
    the pivot cells is triangular with determinant the product of the d_m.
    A carry such as 2x = 3y merges a cell into the free part, which reading
    off Z/d_m per cell would miss.  With 1 among the leading monomials
    there is no cell, and the quotient is zero.
    """
    n = gb.spec.nvars
    unit_lms = [m for m, c in gb.leading_terms() if abs(c) == 1]
    powers = [[m[i] for m in unit_lms if sum(m) == m[i]] for i in range(n)]
    missing = [name for name, pw in zip(gb.spec.names, powers) if not pw]
    if missing:
        raise RuntimeError(f"no unit-coefficient pure power of {', '.join(missing)}: the "
                           f"quotient has infinitely many cells (README, \"Why K0 is free\")")
    # A cell has exponent i below the least pure power of variable i, so the
    # walk's last level, all of it outside the cells, has degree at most:
    reach = sum(min(pw) - 1 for pw in powers) + 1
    pk = _Packing(n, max([reach] + [sum(m) for m, _ in gb.leading_terms()]))
    top, guard = pk.top, pk.guard
    unit = [e for e in gb._table(pk) if abs(e[0]) == 1]
    nonunit = [e for e in gb._table(pk) if abs(e[0]) != 1]
    variables = [(1 << s) + (1 << top) for s in pk.shifts]

    # The cells are closed under division, so each one is a cell of the
    # previous degree times a variable.
    cells: list[int] = []
    level = {0}
    while level:
        level = sorted(m for m in level if not any((m + e[3]) & guard == guard for e in unit))
        cells.extend(level)
        level = {m + x for m in level for x in variables}
    index = {m: r for r, m in enumerate(cells)}

    standard, columns, pivots = [], [], []
    for m in cells:
        under = [e for e in nonunit if (m + e[3]) & guard == guard]
        if not under:
            standard.append(pk.unpack(m))
            continue
        lc, _, _, neg, tail = under[0]  # least leading coefficient: the reducer at m
        if any(e[0] % lc for e in under):
            raise RuntimeError("strong basis violated: minimal lc does not divide the rest")
        shift = m + neg - guard
        shifted = {gm + shift: gc for gm, gc in tail}
        shifted[m] = lc
        col = [0] * len(cells)
        for t, c in _reduce(shifted, unit, pk).items():
            col[index[t]] = c
        columns.append(col)
        pivots.append(lc)
    return QuotientReport(len(standard), cokernel_torsion(columns, pivots),
                          tuple(sorted(standard)), max((m >> top for m in cells), default=0))
