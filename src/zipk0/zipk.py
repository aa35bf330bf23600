"""End-to-end pipeline: cocharacter datum -> presentation of K0 of the zip stack.

Given (root datum, cocharacter mu, prime p) with simply connected derived
group, the Grothendieck ring of the associated stack of zips is R(L)/IR(L):
L is the Levi centralising mu, I the ideal of Frobenius differences of R(G).
The presentation is computed on the nose: R(L) in closed form (with a
simply connected derived group it is polynomial on the fundamental orbit
sums tensored with a Laurent ring on the central characters, Steinberg, "On
a theorem of Pittie", so its only syzygies are y_a*y_b - 1 over the +/-
lineality pairs), the ideal I through its finitely many Hilbert-basis
generators re-expressed in those generators, and the quotient's Z-module
structure from a strong Groebner basis over Z.  The cross-checks of the
structural facts the construction rests on live in zipk0.checks.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from ._record import record
from .caps import DEFAULT_MAX_DEGREE
from .groebner import (
    GroebnerBasis,
    Poly,
    PolyRingSpec,
    quotient_z_module,
    QuotientReport,
    strong_groebner,
)
from .grpalg import Element, frobenius, subtract
from .invariants import express_invariant
from .lattice import determinant, require_prime
from .rootdata import Cocharacter, RootDatum, identity_matrix, levi_from_cocharacter, mat_vec


@record
class CocharacterDatum:
    """Input to the pipeline: root datum, cocharacter and prime."""

    rd: RootDatum
    mu: Cocharacter
    p: int

    def __post_init__(self):
        require_prime(self.p)

    @cached_property
    def frobenius_gens(self) -> tuple[Element, ...]:
        """m_lambda - phi(m_lambda), one per dominant Hilbert-basis weight of G;
        they generate I R(L) for every Levi L.  The Frobenius twist is the
        root datum's.

        Requires the derived group to be simply connected (the Leibniz identity
        c d - phi(c d) = c (d - phi(d)) + phi(d)(c - phi(c)) reduces the full
        difference ideal to these finitely many generators): the Hilbert basis
        raises SimplyConnectedHypothesisError, before any Weyl group is built.
        """
        orbit_sums = self.rd.generator_elements
        return tuple(subtract(m, frobenius(m, self.p, self.rd.twist)) for m in orbit_sums)


# ---------------------------------------------------------------------------
# Group algebra <-> Laurent polynomial ring


def unit_relations(pairs: Sequence[tuple[int, int]], nvars: int) -> list[Poly]:
    """y_a*y_b - 1 for each pair (a, b) of variable indices, in that order."""
    constant = (0,) * nvars
    return [
        {tuple(1 if j in pair else 0 for j in range(nvars)): 1, constant: -1}
        for pair in pairs
    ]


# ---------------------------------------------------------------------------
# The main presentation R(L)/IR(L)


@record
class KZeroPresentation:
    """Finitely presented ring isomorphic to the Grothendieck ring of the stack:
    Z[y] on the ring of groebner.spec, one y_j per generator weight of the
    Levi, modulo the syzygy and then the Frobenius relations.
    It is never zero: e^lambda -> 1 kills every f - phi(f), so it maps onto
    Z, and it is a free Z-module (README, "Why K0 is free")."""

    syzygy_relations: tuple[Poly, ...]       # kernel of Z[y] -> R(L)
    frobenius_relations: tuple[Poly, ...]    # images of the ideal generators
    groebner: GroebnerBasis
    module_report: QuotientReport
    levi: RootDatum                          # presents R(L)


def levi_presentation_ring(levi: RootDatum) -> tuple[PolyRingSpec, tuple[Poly, ...]]:
    """Present R(L) on one variable y_j per orbit-sum generator, in closed form.

    With a simply connected derived group, R(L) is a polynomial ring on the
    fundamental orbit sums tensored with a Laurent ring on the central
    characters (Steinberg, "On a theorem of Pittie").  The kernel of
    Z[y] -> R(L) is therefore generated by y_a*y_b - 1, one for each Laurent
    pair (a, b) of the Levi taken with a < b, in that order.
    """
    k = len(levi.generator_weights)
    pairs = sorted(tuple(sorted(pair)) for pair in levi.laurent_pairs)
    return PolyRingSpec(tuple(f"y{j + 1}" for j in range(k))), tuple(unit_relations(pairs, k))


def compute_k0(
    datum: CocharacterDatum, max_degree: int = DEFAULT_MAX_DEGREE
) -> KZeroPresentation:
    """Presentation of R(L)/IR(L) for the Levi L of the cocharacter: the
    Frobenius generators written in R(L)'s presentation, completed to a
    strong Groebner basis together with the syzygies.  At a regular
    cocharacter, such as rd.coroot_sum, L is T and this is R(T)/IR(T).  At a
    central one L is rd itself, so G's orbit sums present R(L)."""
    levi = levi_from_cocharacter(datum.rd, datum.mu)
    frobenius_gens = datum.frobenius_gens  # first: runs the simply-connectedness gate
    y_spec, syzygies = levi_presentation_ring(levi)
    frob_polys = [express_invariant(g, levi, max_degree) for g in frobenius_gens]

    gb = strong_groebner(list(syzygies) + frob_polys, y_spec, max_degree=max_degree)
    return KZeroPresentation(syzygies, tuple(frob_polys), gb, quotient_z_module(gb), levi)


def closed_form_rank(rd: RootDatum, p: int, levi_weyl_order: int) -> int:
    """The rank of R(L)/I R(L) in closed form (README, "Why K0 is free"):
    p^s |det(p tau - 1 on the lineality lattice)| |W| / |W_L|, with s the
    semisimple rank and tau the twist of rd (the identity if split).  tau(z)
    pairs to zero with every simple coroot, so it is dominant, and its
    generator coordinates hold its coefficients on the lineality rows."""
    lin, etas = rd.weight_lift
    tau = rd.twist if rd.twist is not None else identity_matrix(rd.rank)
    columns = [rd.coordinates(mat_vec(tau, z)) for z in lin]
    minus_one = [[p * (c[plus] - c[minus]) - (i == k) for k, c in enumerate(columns)]
                 for i, (plus, minus) in enumerate(rd.laurent_pairs)]
    total = p ** len(etas) * abs(determinant(minus_one)) * len(rd.weyl)
    if total % levi_weyl_order:
        raise ValueError(f"|W_L| = {levi_weyl_order} does not divide the count {total}")
    return total // levi_weyl_order
