"""Test oracles: independent re-checks of the Groebner engine and of the
Steinberg spanning evidence that the library itself does not need."""

from __future__ import annotations

from zipk0.groebner import GroebnerBasis, Poly, _gpair, _spair, normal_form, normal_form_gb
from zipk0.grpalg import monomial, orbit_sum, window_box
from zipk0.lattice import IntegerMatrix, solve_linear_diophantine
from zipk0.rootdata import weights_dominant


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
