"""Test oracles: independent re-checks of the Groebner engine, of the
quotient module's invariants, of the Steinberg spanning evidence and of the
closed-form dominant Hilbert basis that the library itself does not need."""

from __future__ import annotations

import itertools
import math

from zipk0.groebner import (
    GroebnerBasis,
    Poly,
    PolyRingSpec,
    _gpair,
    _leading,
    _monomial_divides,
    _normalize_sign,
    _spair,
    normal_form,
    normal_form_gb,
    poly_canonical,
    strong_groebner,
)
from zipk0.grpalg import monomial, orbit_sum, window_box
from zipk0.lattice import IntegerMatrix, hermite_row_basis, kernel_basis, solve_linear_diophantine
from zipk0.rootdata import _canonical_preimage, weights_dominant


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


def steinberg_spanning_by_solves(rd, cands, weyl, spanning_radius):
    """(spanning_ok, spanning_tested) by one Smith-form solve per target: for
    each e^mu in the box, rebuild the matrix of the products (orbit sum over
    the dominant window) * e^lambda on their support plus mu, and solve
    M*x = e^mu over Z."""
    maxc = max((max(abs(x) for x in lam) for lam in cands if any(lam)), default=0)
    box_r = spanning_radius + maxc + 2
    dominant_window = [nu for nu in window_box(rd.rank, box_r)
                       if weights_dominant(nu, rd.simple_coroots)]
    basis_elems = [orbit_sum(weyl, nu) * monomial(rd.rank, lam)
                   for lam in cands for nu in dominant_window]
    tested = []
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
        tested.append(tuple(mu))
        if solve_linear_diophantine(IntegerMatrix.from_columns(cols, nrows=len(support)), b) is None:
            ok = False
    return ok, tuple(tested)


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
        ker = kernel_basis(m)
        if len(ker) != 1:
            continue
        t = ker[0]
        g = math.gcd(*t)
        t = tuple(x // g for x in t) if g else t
        for cand in (t, tuple(-x for x in t)):
            if all(sum(row[i] * cand[i] for i in range(dim)) >= 0 for row in ineq):
                rays.add(cand)
    return sorted(rays)


def general_dominant_hilbert_basis(rd, levi=None):
    """Generators of the monoid of (Levi-)dominant weights, by a general search
    that does not assume a simply connected derived group.

    Directions on which all simple coroots vanish are lattice lines; their
    basis vectors appear with both signs.  The pointed part is computed by
    enumerating lattice points in the box spanned by the extreme rays and
    filtering to indecomposables.
    """
    cosimples = levi.levi_simple_coroots if levi is not None else rd.simple_coroots
    n = rd.rank
    a_rows = [list(c) for c in cosimples]
    a = IntegerMatrix(len(a_rows), n, tuple(tuple(r) for r in a_rows))
    lin = hermite_row_basis(kernel_basis(a), n)
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
            sol = solve_linear_diophantine(bmat, y)
            if sol is None:
                raise RuntimeError("image point must lift to the weight lattice")
            out.append(_canonical_preimage(sol[0], lin))
    return sorted(set(out))
