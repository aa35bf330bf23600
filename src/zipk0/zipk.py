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
from .groebner import (
    DEFAULT_MAX_DEGREE,
    GroebnerBasis,
    Poly,
    PolyRingSpec,
    ResourceCapError,
    quotient_z_module,
    QuotientReport,
    strong_groebner,
)
from .grpalg import GroupAlgebraElement, frobenius, orbit_sum
from .invariants import InvariantRingPresentation, express_invariant
from .rootdata import (
    Cocharacter,
    RootDatum,
    dominant_hilbert_basis,
    levi_from_cocharacter,
)


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


@record
class CocharacterDatum:
    """Input to the pipeline: root datum, cocharacter and prime."""

    rd: RootDatum
    mu: Cocharacter
    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")

    @cached_property
    def frobenius_gens(self) -> tuple[GroupAlgebraElement, ...]:
        """m_lambda - phi(m_lambda), one per dominant Hilbert-basis weight of G;
        they generate I R(L) for every Levi L.  The Frobenius twist is the
        root datum's.

        Requires the derived group to be simply connected (the Leibniz identity
        c d - phi(c d) = c (d - phi(d)) + phi(d)(c - phi(c)) reduces the full
        difference ideal to these finitely many generators): the Hilbert basis
        raises SimplyConnectedHypothesisError, before any Weyl group is built.
        """
        rd = self.rd
        gens = []
        for lam in dominant_hilbert_basis(rd):
            m = orbit_sum(rd.weyl, lam)
            gens.append(m - frobenius(m, self.p, rd.twist))
        return tuple(gens)


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
    The ring is nonzero exactly when module_report has rank or torsion."""

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
    """Presentation of R(L)/IR(L) for the Levi of the cocharacter."""
    lpres = InvariantRingPresentation(levi_from_cocharacter(datum.rd, datum.mu))
    return k0_of_levi(datum, lpres, max_degree)


def k0_of_levi(
    datum: CocharacterDatum, lpres: InvariantRingPresentation, max_degree: int
) -> KZeroPresentation:
    """Presentation of R(L)/IR(L) for the Levi presentation lpres, a Levi
    of datum's group: its Frobenius generators written in lpres, completed to
    a strong Groebner basis together with the syzygies."""
    frobenius_gens = datum.frobenius_gens  # first: runs the simply-connectedness gate
    y_spec, syzygies = levi_presentation_ring(lpres)
    frob_polys = [express_invariant(g, lpres, max_degree) for g in frobenius_gens]

    gb = strong_groebner(list(syzygies) + frob_polys, y_spec, max_degree=max_degree)
    return KZeroPresentation(syzygies, tuple(frob_polys), gb, quotient_z_module(gb), lpres)
