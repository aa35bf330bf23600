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
from .grpalg import GroupAlgebraElement, monomial, one, orbit_sum, weyl_act
from .lattice import hermite_remainder, hermite_row_basis, solve_linear_diophantine
from .rootdata import (  # noqa: F401  (re-exports the simply-connectedness gate)
    RootDatum,
    SimplyConnectedHypothesisError,
    Vector,
    WeylGroup,
    dominant_hilbert_basis,
    fundamental_weight_lift,
    mat_vec,
    pairing,
    positive_root_indices,
    require_simply_connected,
    weights_dominant,
    weyl_enumerate,
)

GeneratorExponent = tuple[int, ...]
GeneratorPolynomial = dict[GeneratorExponent, int]


class NotInvariantError(ValueError):
    pass


@record
class InvariantRingPresentation:
    """R(T)^W presented by orbit-sum generators over Hilbert-basis weights."""

    rank: int
    generator_weights: tuple[Vector, ...]
    generator_elements: tuple[GroupAlgebraElement, ...]
    weyl: WeylGroup
    dominance_coroots: tuple[Vector, ...]   # simple coroots cutting the dominant cone
    height_vector: Vector                   # sum of positive coroots: H(chi) > 0 on them


def invariant_ring(rd: RootDatum) -> InvariantRingPresentation:
    """Presentation of R(T)^W by dominant orbit sums; for the Levi of a
    cocharacter, pass its root datum (levi_from_cocharacter) to get R(L)."""
    pos_coroots = [rd.coroots[i] for i in positive_root_indices(rd)]
    weyl = weyl_enumerate(rd)
    weights = dominant_hilbert_basis(rd)
    elements = tuple(orbit_sum(weyl, w) for w in weights)
    height = tuple(sum(cv[i] for cv in pos_coroots) for i in range(rd.rank))
    return InvariantRingPresentation(
        rd.rank, tuple(weights), elements, weyl, rd.simple_coroots, height
    )


def is_invariant(f: GroupAlgebraElement, pres: InvariantRingPresentation) -> bool:
    return all(weyl_act(g, f) == f for g in pres.weyl.generators)


def _nonneg_combination(
    target: Vector, pres: InvariantRingPresentation
) -> GeneratorExponent:
    """Write a dominant weight as an N-combination of the generator weights.

    Each pointed generator is a fundamental weight, whose image under the
    dominance pairings is a unit vector e_j, so it is taken
    <target, alpha_j^vee> times; what remains lies in the lineality lattice
    and is expressed through the +/- generator pairs.
    """
    cosimples = pres.dominance_coroots
    weights = pres.generator_weights
    imgs = [tuple(pairing(w, cv) for cv in cosimples) for w in weights]
    lineal = [i for i, im in enumerate(imgs) if not any(im)]
    counts = [0] * len(weights)
    for i, im in enumerate(imgs):
        if any(im):
            counts[i] = pairing(target, cosimples[im.index(1)])
            if counts[i] < 0:
                raise RuntimeError(f"dominant weight {target} not in the generator monoid")
    remainder = tuple(
        t - sum(counts[i] * weights[i][j] for i in range(len(weights)))
        for j, t in enumerate(target)
    )
    if any(remainder):
        # Express the lineality remainder over the +/- generator pairs.
        lin_weights = [weights[i] for i in lineal]
        rows = [[w[j] for w in lin_weights] for j in range(pres.rank)]
        coeffs = solve_linear_diophantine(rows, remainder, len(lin_weights))
        if coeffs is None:
            raise RuntimeError(f"remainder {remainder} outside the lineality lattice")
        # Zero out negative coefficients using the opposite generator.
        neg_index = {}
        for a in lineal:
            for b in lineal:
                if tuple(-x for x in weights[a]) == weights[b]:
                    neg_index[a] = b
        for pos_k, i in enumerate(lineal):
            c = coeffs[pos_k]
            if c >= 0:
                counts[i] += c
            else:
                counts[neg_index[i]] += -c
    return tuple(counts)


def expand_generator_polynomial(
    poly: GeneratorPolynomial, pres: InvariantRingPresentation
) -> GroupAlgebraElement:
    """Substitute the orbit-sum generators into a polynomial in them."""
    total = GroupAlgebraElement(pres.rank, {})
    for expt, c in poly.items():
        term = one(pres.rank) * c
        for g, e in zip(pres.generator_elements, expt):
            for _ in range(e):
                term = term * g
        total = total + term
    return total


def express_invariant(
    f: GroupAlgebraElement, pres: InvariantRingPresentation
) -> GeneratorPolynomial:
    """Integer polynomial in the generators expanding to f.

    Dominance-triangular descent: the leading dominant term of the matched
    generator product has coefficient one, so each step eliminates it exactly.
    """
    if not is_invariant(f, pres):
        raise NotInvariantError("element is not invariant under the given Weyl group")
    cosimples = pres.dominance_coroots
    hv = pres.height_vector

    def hkey(e: Vector):
        return (pairing(e, hv), e)

    work = f
    out: GeneratorPolynomial = {}
    guard = 0
    while not work.is_zero():
        guard += 1
        if guard >= 10000:
            raise RuntimeError("descent failed to terminate: internal error")
        dominant_terms = [
            e for e in work.terms if weights_dominant(e, cosimples)
        ]
        if not dominant_terms:
            raise RuntimeError("invariant element with no dominant term: internal error")
        lead = max(dominant_terms, key=hkey)
        c = work.terms[lead]
        expt = _nonneg_combination(lead, pres)
        prod = expand_generator_polynomial({expt: 1}, pres)
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


def integral_fundamental_weights(rd: RootDatum) -> tuple[Vector, ...]:
    """Integral weights eta_i with <eta_i, alpha_j^vee> = delta_ij.

    These exist exactly when the derived group is simply connected; chosen
    canonically small modulo the coweight-orthogonal lattice.
    """
    return fundamental_weight_lift(rd)[1]


def steinberg_candidate_weights(rd: RootDatum, weyl: WeylGroup) -> list[Vector]:
    """lambda_w = w^{-1}(sum of eta_alpha over simple alpha with w^{-1} alpha < 0).

    Candidate free basis of R(T) over R(G), one weight per Weyl element;
    validated empirically by steinberg_freeness_check.
    """
    etas = integral_fundamental_weights(rd)
    pos = frozenset(rd.roots[i] for i in positive_root_indices(rd))
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
    distinct: bool
    determinant_draws: tuple[bool, ...]   # nonzero at each random specialization
    independent: bool
    spanning_tested: tuple[Vector, ...]
    spanning_ok: bool


def steinberg_freeness_check(
    rd: RootDatum,
    candidate_weights: Sequence[Sequence[int]],
    weyl: WeylGroup,
) -> SteinbergReport:
    """Independence via random unit specializations; spanning via one Hermite basis.

    The |W| x |W| matrix (e^{v(lambda_w)}) is evaluated at random torus units
    over a large prime field: any nonzero determinant certifies linear
    independence over R(G).  Spanning evidence expresses every monomial e^mu
    in a box as an R(G)-combination of the candidates: e^mu passes when its
    unit vector reduces to zero against one Hermite basis of the products
    (orbit sum over a dominant window) * e^lambda.
    """
    cands = [tuple(int(x) for x in w) for w in candidate_weights]
    distinct = len(set(cands)) == len(cands) and len(cands) == len(weyl)
    q = _SPECIALIZATION_PRIME
    rng = random.Random(STEINBERG_SEED)
    det_draws = []
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
            det_draws.append(_det_mod_p(mat, q) != 0)
    independent = distinct and any(det_draws)

    spanning_tested: list[Vector] = []
    spanning_ok = True
    if independent:
        from .grpalg import window_box

        maxc = max((max(abs(x) for x in lam) for lam in cands if any(lam)), default=0)
        box_r = STEINBERG_SPANNING_RADIUS + maxc + 2
        dominant_window = [
            nu
            for nu in window_box(rd.rank, box_r)
            if weights_dominant(nu, rd.simple_coroots)
        ]
        basis_elems = [
            orbit_sum(weyl, nu) * monomial(rd.rank, lam)
            for lam in cands
            for nu in dominant_window
        ]
        targets = window_box(rd.rank, STEINBERG_SPANNING_RADIUS)
        # One index over every basis element and every target: rows that are
        # zero in M and in b do not change whether M*x = b is solvable.
        support = sorted({e for el in basis_elems for e in el.terms} | set(targets))
        idx = {e: i for i, e in enumerate(support)}
        cols = []
        for el in basis_elems:
            col = [0] * len(support)
            for e, c in el.terms.items():
                col[idx[e]] = c
            cols.append(col)
        span = hermite_row_basis(cols, len(support))
        for mu in targets:
            unit = [0] * len(support)
            unit[idx[mu]] = 1
            spanning_tested.append(mu)
            if any(hermite_remainder(span, unit)):
                spanning_ok = False
    return SteinbergReport(
        tuple(cands),
        distinct,
        tuple(det_draws),
        independent,
        tuple(spanning_tested),
        spanning_ok,
    )


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
