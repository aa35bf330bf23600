"""Presentations of the Weyl-invariant subrings R(G) = R(T)^W and R(L).

Generators are orbit sums of the dominant Hilbert basis; expressing an
invariant in them walks down the dominance order (the leading dominant term
of a product of orbit sums is the sum of the highest weights, with
coefficient one).  Also here: the empirical Steinberg-basis freeness
certificate.
"""

from __future__ import annotations

import random
from typing import Sequence

from ._record import record
from .grpalg import GroupAlgebraElement, one, orbit_sum, weyl_act, window_box
from .lattice import solve_linear_diophantine, span_members
from .rootdata import (
    RootDatum,
    Vector,
    WeylGroup,
    dominant_hilbert_basis,
    mat_vec,
    pairing,
    weights_dominant,
    weyl_orbit,
)

GeneratorExponent = tuple[int, ...]
GeneratorPolynomial = dict[GeneratorExponent, int]


class NotInvariantError(ValueError):
    pass


@record
class InvariantRingPresentation:
    """R(T)^W presented by orbit-sum generators over Hilbert-basis weights;
    the simple coroots of rd cut the dominant cone."""

    rd: RootDatum
    generator_weights: tuple[Vector, ...]
    generator_elements: tuple[GroupAlgebraElement, ...]
    height_vector: Vector                   # sum of positive coroots: H(chi) > 0 on them


def invariant_ring(rd: RootDatum) -> InvariantRingPresentation:
    """Presentation of R(T)^W by dominant orbit sums; for the Levi of a
    cocharacter, pass its root datum (levi_from_cocharacter) to get R(L)."""
    weights = dominant_hilbert_basis(rd)
    elements = tuple(orbit_sum(rd.weyl, w) for w in weights)
    pos_coroots = [rd.coroots[i] for i in rd.positive_indices]
    height = tuple(sum(cv[i] for cv in pos_coroots) for i in range(rd.rank))
    return InvariantRingPresentation(rd, tuple(weights), elements, height)


def is_invariant(f: GroupAlgebraElement, pres: InvariantRingPresentation) -> bool:
    return all(weyl_act(g, f) == f for g in pres.rd.weyl.generators)


def _nonneg_combinations(pres: InvariantRingPresentation):
    """The function that writes a dominant weight as an N-combination of the
    generator weights, with the generators' pairings computed once.

    Each pointed generator is a fundamental weight, whose image under the
    dominance pairings is a unit vector e_j, so it is taken
    <target, alpha_j^vee> times; what remains lies in the lineality lattice
    and is expressed through the +/- generator pairs.
    """
    cosimples = pres.rd.simple_coroots
    weights = pres.generator_weights
    imgs = [tuple(pairing(w, cv) for cv in cosimples) for w in weights]
    pointed = [(i, cosimples[im.index(1)]) for i, im in enumerate(imgs) if any(im)]
    lineal = [i for i, im in enumerate(imgs) if not any(im)]
    lin_rows = [[weights[i][j] for i in lineal] for j in range(pres.rd.rank)]
    # The opposite generator of each lineality generator.
    neg_index = {}
    for a in lineal:
        for b in lineal:
            if tuple(-x for x in weights[a]) == weights[b]:
                neg_index[a] = b

    def combination(target: Vector) -> GeneratorExponent:
        counts = [0] * len(weights)
        for i, cv in pointed:
            counts[i] = pairing(target, cv)
            if counts[i] < 0:
                raise RuntimeError(f"dominant weight {target} not in the generator monoid")
        remainder = tuple(
            t - sum(counts[i] * weights[i][j] for i in range(len(weights)))
            for j, t in enumerate(target)
        )
        if any(remainder):
            # Express the lineality remainder over the +/- generator pairs.
            coeffs = solve_linear_diophantine(lin_rows, remainder, len(lineal))
            if coeffs is None:
                raise RuntimeError(f"remainder {remainder} outside the lineality lattice")
            # Zero out negative coefficients using the opposite generator.
            for pos_k, i in enumerate(lineal):
                c = coeffs[pos_k]
                if c >= 0:
                    counts[i] += c
                else:
                    counts[neg_index[i]] += -c
        return tuple(counts)

    return combination


def express_invariant(
    f: GroupAlgebraElement, pres: InvariantRingPresentation
) -> GeneratorPolynomial:
    """Integer polynomial in the generators expanding to f.

    Dominance-triangular descent: the leading dominant term of the matched
    generator product has coefficient one, so each step eliminates it exactly.
    The generator products and the dominance of each term are kept for the
    call: each new exponent costs one multiplication of a known product by
    one generator.
    """
    if not is_invariant(f, pres):
        raise NotInvariantError("element is not invariant under the given Weyl group")
    cosimples = pres.rd.simple_coroots
    hv = pres.height_vector
    gens = pres.generator_elements
    combination = _nonneg_combinations(pres)
    products = {(0,) * len(gens): one(pres.rd.rank)}

    def product(expt: GeneratorExponent) -> GroupAlgebraElement:
        chain = []  # (exponent, generator index) down to a known product
        while expt not in products:
            i = max(k for k, e in enumerate(expt) if e)
            chain.append((expt, i))
            expt = expt[:i] + (expt[i] - 1,) + expt[i + 1:]
        prod = products[expt]
        for expt, i in reversed(chain):
            prod = products[expt] = prod * gens[i]
        return prod

    def hkey(e: Vector):
        return (pairing(e, hv), e)

    dominance: dict[Vector, bool] = {}  # terms recur from step to step
    work = f
    out: GeneratorPolynomial = {}
    guard = 0
    while not work.is_zero():
        guard += 1
        if guard >= 10000:
            raise RuntimeError("descent failed to terminate: internal error")
        for e in work.terms:
            if e not in dominance:
                dominance[e] = weights_dominant(e, cosimples)
        dominant_terms = [e for e in work.terms if dominance[e]]
        if not dominant_terms:
            raise RuntimeError("invariant element with no dominant term: internal error")
        lead = max(dominant_terms, key=hkey)
        c = work.terms[lead]
        expt = combination(lead)
        prod = product(expt)
        if prod.coefficient(lead) != 1:
            raise RuntimeError("leading coefficient not 1: internal error")
        work = work - prod * c
        if work.coefficient(lead) != 0:
            raise RuntimeError("leading term survived the descent step: internal error")
        out[expt] = out.get(expt, 0) + c
    return {e: c for e, c in out.items() if c}


# ---------------------------------------------------------------------------
# Steinberg basis candidates and freeness evidence


_SPECIALIZATION_PRIME = (1 << 61) - 1  # Mersenne prime; huge unit group
# steinberg_freeness_check: how many random specializations test independence
# (the same ones every run), and the radius of the box of monomials tested
# for spanning.
STEINBERG_DRAWS = 3
STEINBERG_SEED = 20250901
STEINBERG_SPANNING_RADIUS = 1


def steinberg_candidate_weights(rd: RootDatum) -> list[Vector]:
    """lambda_w = w^{-1}(sum of eta_alpha over simple alpha with w^{-1} alpha < 0),
    with eta_alpha the integral fundamental weights of rd.weight_lift.

    Candidate free basis of R(T) over R(G), one weight per Weyl element;
    validated empirically by steinberg_freeness_check.
    """
    etas = rd.weight_lift[1]
    pos = frozenset(rd.roots[i] for i in rd.positive_indices)
    weyl = rd.weyl
    out = []
    for word in weyl.reduced_words:
        # Simple reflections are involutions: the reversed word gives w^{-1}.
        winv = weyl.word_matrix(word[::-1])
        total = (0,) * rd.rank
        for i, alpha in enumerate(rd.simple_roots):
            if mat_vec(winv, alpha) not in pos:
                total = tuple(a + b for a, b in zip(total, etas[i]))
        out.append(mat_vec(winv, total))
    return out


@record
class SteinbergReport:
    candidates: tuple[Vector, ...]
    independent: bool
    spanning_ok: bool    # vacuously true when independence fails


def steinberg_freeness_check(
    rd: RootDatum, candidate_weights: Sequence[Sequence[int]]
) -> SteinbergReport:
    """Independence via random unit specializations; spanning via one Hermite basis.

    The |W| x |W| matrix (e^{v(lambda_w)}) is evaluated at random torus units
    over a large prime field: any nonzero determinant certifies linear
    independence over R(G).  Spanning evidence expresses every monomial e^mu
    in the box of radius STEINBERG_SPANNING_RADIUS as an R(G)-combination of
    the candidates: e^mu passes when its unit vector reduces to zero against
    one Hermite basis of the products (orbit sum over a dominant window) *
    e^lambda.
    """
    weyl = rd.weyl
    cands = [tuple(int(x) for x in w) for w in candidate_weights]
    distinct = len(set(cands)) == len(cands) and len(cands) == len(weyl)
    q = _SPECIALIZATION_PRIME
    rng = random.Random(STEINBERG_SEED)
    independent = False
    if distinct:
        for _ in range(STEINBERG_DRAWS):
            units = [rng.randrange(2, q - 1) for _ in range(rd.rank)]
            mat = []
            for v in weyl.elements:
                row = []
                for lam in cands:
                    img = mat_vec(v, lam)
                    val = 1
                    for x, e in zip(units, img):
                        val = (val * pow(x, e, q)) % q
                    row.append(val)
                mat.append(row)
            if _det_mod_p(mat, q):
                independent = True
                break

    spanning_ok = True
    if independent:
        maxc = max((max(abs(x) for x in lam) for lam in cands if any(lam)), default=0)
        box_r = STEINBERG_SPANNING_RADIUS + maxc + 2
        dominant_window = [
            nu
            for nu in window_box(rd.rank, box_r)
            if weights_dominant(nu, rd.simple_coroots)
        ]
        targets = window_box(rd.rank, STEINBERG_SPANNING_RADIUS)
        idx, cols = _steinberg_columns(weyl, cands, dominant_window, targets)
        spanning_ok = all(span_members(cols, [{idx[mu]: 1} for mu in targets]))
    return SteinbergReport(tuple(cands), independent, spanning_ok)


def _steinberg_columns(
    weyl: WeylGroup,
    cands: Sequence[Vector],
    dominant_window: Sequence[Vector],
    targets: Sequence[Vector],
) -> tuple[dict[Vector, int], list[dict[int, int]]]:
    """The products (orbit sum m_nu) * e^lambda, for lambda in the candidates
    and then nu in the dominant window, as sparse columns over one sorted
    support that also holds the targets, with the support's index.  Rows
    that are zero in every column and in every target do not change whether
    a target lies in the span.

    Each orbit is computed once and shifted by lambda on exponents; a shift
    is injective, so every coefficient is one.
    """
    orbits = [weyl_orbit(weyl, nu) for nu in dominant_window]
    shifted = [
        [tuple(a + b for a, b in zip(e, lam)) for e in orbit]
        for lam in cands
        for orbit in orbits
    ]
    support = sorted({e for col in shifted for e in col} | set(targets))
    idx = {e: i for i, e in enumerate(support)}
    return idx, [{idx[e]: 1 for e in col} for col in shifted]


def _det_mod_p(mat: list[list[int]], q: int) -> int:
    n = len(mat)
    a = [row[:] for row in mat]
    det = 1
    for col in range(n):
        prow = next((r for r in range(col, n) if a[r][col] % q), None)
        if prow is None:
            return 0
        if prow != col:
            a[col], a[prow] = a[prow], a[col]
            det = -det
        pv = a[col][col] % q
        det = (det * pv) % q
        inv = pow(pv, -1, q)
        for r in range(col + 1, n):
            f = (a[r][col] * inv) % q
            if f:
                for c in range(col, n):
                    a[r][c] = (a[r][c] - f * a[col][c]) % q
    return det % q
