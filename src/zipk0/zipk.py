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
from .invariants import InvariantRingPresentation, express_invariant
from .lattice import require_prime
from .rootdata import Cocharacter, RootDatum, levi_from_cocharacter


@record
class CocharacterDatum:
    """Input to the pipeline: root datum, cocharacter and prime."""

    rd: RootDatum
    mu: Cocharacter
    p: int

    def __post_init__(self):
        require_prime(self.p)

    @cached_property
    def group_presentation(self) -> InvariantRingPresentation:
        """R(G) on G's orbit sums, which is R(L) too at a central mu."""
        return InvariantRingPresentation(self.rd)

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
        orbit_sums = self.group_presentation.generator_elements
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
    Z[y] on the ring of groebner.spec, one y_j per generator of
    presentation_pres, modulo the syzygy and then the Frobenius relations.
    It is never zero: e^lambda -> 1 kills every f - phi(f), so it maps onto
    Z, and it is a free Z-module (README, "Why K0 is free")."""

    syzygy_relations: tuple[Poly, ...]       # kernel of Z[y] -> R(L)
    frobenius_relations: tuple[Poly, ...]    # images of the ideal generators
    groebner: GroebnerBasis
    module_report: QuotientReport
    presentation_pres: InvariantRingPresentation   # R(L); its rd is the Levi


def levi_presentation_ring(
    lpres: InvariantRingPresentation,
) -> tuple[PolyRingSpec, tuple[Poly, ...]]:
    """Present R(L) on one variable y_j per orbit-sum generator, in closed form.

    With a simply connected derived group, R(L) is a polynomial ring on the
    fundamental orbit sums tensored with a Laurent ring on the central
    characters (Steinberg, "On a theorem of Pittie").  The kernel of
    Z[y] -> R(L) is therefore generated by y_a*y_b - 1, one for each Laurent
    pair (a, b) of lpres taken with a < b, in that order.
    """
    k = len(lpres.generator_weights)
    pairs = sorted(tuple(sorted(pair)) for pair in lpres.laurent_pairs)
    return PolyRingSpec(tuple(f"y{j + 1}" for j in range(k))), tuple(unit_relations(pairs, k))


def compute_k0(
    datum: CocharacterDatum, max_degree: int = DEFAULT_MAX_DEGREE
) -> KZeroPresentation:
    """Presentation of R(L)/IR(L) for the Levi L of the cocharacter: the
    Frobenius generators written in R(L)'s presentation, completed to a
    strong Groebner basis together with the syzygies.  At a regular
    cocharacter, such as rd.coroot_sum, L is T and this is R(T)/IR(T)."""
    levi = levi_from_cocharacter(datum.rd, datum.mu)
    lpres = datum.group_presentation if levi is datum.rd else InvariantRingPresentation(levi)
    frobenius_gens = datum.frobenius_gens  # first: runs the simply-connectedness gate
    y_spec, syzygies = levi_presentation_ring(lpres)
    frob_polys = [express_invariant(g, lpres, max_degree) for g in frobenius_gens]

    gb = strong_groebner(list(syzygies) + frob_polys, y_spec, max_degree=max_degree)
    return KZeroPresentation(syzygies, tuple(frob_polys), gb, quotient_z_module(gb), lpres)
