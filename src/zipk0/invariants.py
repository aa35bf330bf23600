"""Expression of Weyl invariants in R(G) = R(T)^W and R(L).

A root datum presents its own invariant ring (RootDatum.generator_weights,
generator_elements, laurent_pairs and coordinates): the generators are orbit
sums of the dominant Hilbert basis.  Expressing an invariant in them walks
down the dominance order (the leading dominant term of a product of orbit
sums is the sum of the highest weights, with coefficient one).
"""

from __future__ import annotations

from .caps import DEFAULT_MAX_DEGREE, ResourceCapError
from .grpalg import Element, multiply, weyl_act
from .rootdata import RootDatum, Vector, pairing, weights_dominant

GeneratorExponent = tuple[int, ...]
GeneratorPolynomial = dict[GeneratorExponent, int]


class NotInvariantError(ValueError):
    pass


def is_invariant(f: Element, rd: RootDatum) -> bool:
    return all(weyl_act(g, f) == f for g in rd.weyl.generators)


def express_invariant(
    f: Element,
    rd: RootDatum,
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> GeneratorPolynomial:
    """Integer polynomial in the generators of rd (G, or a Levi for R(L))
    expanding to f.

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
    if not is_invariant(f, rd):
        raise NotInvariantError("element is not invariant under the given Weyl group")
    cosimples = rd.simple_coroots
    hv = rd.coroot_sum
    gens = rd.generator_elements
    coordinates = rd.coordinates
    products = {(0,) * len(gens): {(0,) * rd.rank: 1}}

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
