"""Test oracles for the Groebner engine: independent re-checks that the
library itself does not need."""

from __future__ import annotations

from zipk0.groebner import GroebnerBasis, Poly, _gpair, _spair, normal_form, normal_form_gb


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
