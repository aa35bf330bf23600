"""Presentations of the Weyl-invariant subrings R(G) = R(T)^W and R(L).

Generators are orbit sums of the dominant Hilbert basis; expressing an
invariant in them walks down the dominance order (the leading dominant term
of a product of orbit sums is the sum of the highest weights, with
coefficient one).
"""

from __future__ import annotations

from functools import cached_property

from ._record import record
from .caps import DEFAULT_MAX_DEGREE, ResourceCapError
from .grpalg import Element, multiply, orbit_sum, weyl_act
from .rootdata import (
    RootDatum,
    Vector,
    dominant_hilbert_basis,
    pairing,
    weights_dominant,
)

GeneratorExponent = tuple[int, ...]
GeneratorPolynomial = dict[GeneratorExponent, int]


class NotInvariantError(ValueError):
    pass


@record
class InvariantRingPresentation:
    """R(T)^W presented by orbit sums over the dominant Hilbert basis of rd,
    the Levi's datum (levi_from_cocharacter) for R(L).  The basis is the
    lineality rows z, their negatives and the fundamental weights of
    rd.weight_lift, so rd fixes the generators, their +/- pairs and each
    weight's coordinates: each is computed on first use and kept."""

    rd: RootDatum

    @cached_property
    def generator_weights(self) -> tuple[Vector, ...]:
        return tuple(dominant_hilbert_basis(self.rd))

    @cached_property
    def generator_elements(self) -> tuple[Element, ...]:
        return tuple(orbit_sum(self.rd.weyl, w) for w in self.generator_weights)

    @cached_property
    def laurent_pairs(self) -> tuple[tuple[int, int], ...]:
        """(index of z, index of -z) among the generator weights, one pair per
        lineality row z: the generators that are units, each pair inverse."""
        weights = self.generator_weights
        return tuple(
            (weights.index(z), weights.index(tuple(-x for x in z)))
            for z in self.rd.weight_lift[0]
        )

    @cached_property
    def coordinates(self):
        """The map from a dominant weight to its generator coordinates, the
        exponents that write it as an N-combination of the generator weights.

        The fundamental weight eta_k pairs to delta_kj with the simple
        coroots, so a dominant target takes <target, alpha_k^vee> copies of
        it.  What remains lies in the lineality lattice, whose Hermite basis
        row z_j is the only row from j down that is nonzero at its pivot
        column: working down from the top row, the coefficient on z_j is read
        there, and a negative one goes on -z_j.
        """
        rd = self.rd
        lin, etas = rd.weight_lift
        weights = self.generator_weights
        pointed = [(weights.index(eta), eta, cv) for eta, cv in zip(etas, rd.simple_coroots)]
        lineal = [
            (z, next(j for j, x in enumerate(z) if x), plus, minus)
            for z, (plus, minus) in zip(lin, self.laurent_pairs)
        ]

        def coordinates(target: Vector) -> GeneratorExponent:
            counts = [0] * len(weights)
            remainder = list(target)
            for i, eta, cv in pointed:
                c = counts[i] = pairing(target, cv)
                if c < 0:
                    raise RuntimeError(f"dominant weight {target} not in the generator monoid")
                remainder = [t - c * x for t, x in zip(remainder, eta)]
            for z, pivot, plus, minus in lineal:
                c, r = divmod(remainder[pivot], z[pivot])
                if r:
                    break
                remainder = [t - c * x for t, x in zip(remainder, z)]
                counts[plus if c >= 0 else minus] += abs(c)
            if any(remainder):
                raise RuntimeError(f"remainder {tuple(remainder)} outside the lineality lattice")
            return tuple(counts)

        return coordinates


def is_invariant(f: Element, pres: InvariantRingPresentation) -> bool:
    return all(weyl_act(g, f) == f for g in pres.rd.weyl.generators)


def express_invariant(
    f: Element,
    pres: InvariantRingPresentation,
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> GeneratorPolynomial:
    """Integer polynomial in the generators expanding to f.

    Dominance-triangular descent: the leading dominant term of the matched
    generator product has coefficient one, so each step eliminates it exactly.
    The generator products and the dominance of each term are kept for the
    call: each new exponent costs one multiplication of a known product by
    one generator.  The descent subtracts each step's multiple of a product
    in place from its own copy of f, so f and the products stay as they are.
    Each step's product is a term of the result, so a step whose product has
    total degree above max_degree raises ResourceCapError before that product
    is built.
    """
    if not is_invariant(f, pres):
        raise NotInvariantError("element is not invariant under the given Weyl group")
    cosimples = pres.rd.simple_coroots
    hv = pres.rd.coroot_sum
    gens = pres.generator_elements
    coordinates = pres.coordinates
    products = {(0,) * len(gens): {(0,) * pres.rd.rank: 1}}

    def product(expt: GeneratorExponent) -> Element:
        degree = sum(expt)
        if degree > max_degree:
            raise ResourceCapError(
                f"generator product degree {degree} exceeds cap {max_degree}"
            )
        chain = []  # (exponent, generator index) down to a known product
        while expt not in products:
            i = max(k for k, e in enumerate(expt) if e)
            chain.append((expt, i))
            expt = expt[:i] + (expt[i] - 1,) + expt[i + 1:]
        prod = products[expt]
        for expt, i in reversed(chain):
            prod = products[expt] = multiply(prod, gens[i])
        return prod

    def hkey(e: Vector):
        return (pairing(e, hv), e)

    dominance: dict[Vector, bool] = {}  # terms recur from step to step
    work = dict(f)
    out: GeneratorPolynomial = {}
    guard = 0
    while work:
        guard += 1
        if guard >= 10000:
            raise RuntimeError("descent failed to terminate: internal error")
        for e in work:
            if e not in dominance:
                dominance[e] = weights_dominant(e, cosimples)
        dominant_terms = [e for e in work if dominance[e]]
        if not dominant_terms:
            raise RuntimeError("invariant element with no dominant term: internal error")
        lead = max(dominant_terms, key=hkey)
        c = work[lead]
        expt = coordinates(lead)
        prod = product(expt)
        if prod.get(lead) != 1:
            raise RuntimeError("leading coefficient not 1: internal error")
        for e, d in prod.items():
            left = work.get(e, 0) - c * d
            if left:
                work[e] = left
            else:
                del work[e]
        if lead in work:
            raise RuntimeError("leading term survived the descent step: internal error")
        out[expt] = out.get(expt, 0) + c
    return {e: c for e, c in out.items() if c}
