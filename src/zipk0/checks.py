"""Cross-checks of the pipeline: supporting evidence, not the answer.

The answer is zipk.compute_k0, the presentation of R(L)/IR(L).  The checks
here mirror the structural facts the construction rests on: the
Kunneth/freeness rank factorisation against the closed-form rank of
R(T)/IR(T), the untwisting identity on that torus-side quotient (compute_k0
at the regular cocharacter rd.coroot_sum), Hecke-versus-Weyl invariants in
a window, and the exact independence of Steinberg's basis of R(T) over
R(G), whose spanning is his theorem.  Each check returns its own report
section: a dict of lists, ints, bools and strings.  The CLI imports this
module only for a k0 job that runs a check, so a plain k0 or validate job
does not compile it.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Sequence

from .caps import ResourceCapError
from .groebner import normal_form_gb
from .grpalg import frobenius, subtract
from .lattice import determinant, hermite_row_basis, kernel_basis
from .rootdata import (
    RootDatum,
    Vector,
    WeylGroup,
    mat_vec,
    pairing,
    weights_dominant,
    weyl_orbit,
)
from .zipk import CocharacterDatum, KZeroPresentation, closed_form_rank, compute_k0


# theta_map_check tests this many random directions, the same ones every run.
THETA_SAMPLES = 8
THETA_SEED = 20250901
# hecke_check refuses a window whose exponent box holds more monomials.  The
# kernel work grows faster than the box: on a 2-vCPU host SL2's window of
# 2001 monomials takes about 3 s, its window of 4001 about 11 s.
HECKE_WINDOW_CAP = 2048
_SPECIALIZATION_PRIME = (1 << 61) - 1  # Mersenne prime; huge unit group
# steinberg_freeness_check: how many random specializations test independence
# (the same ones every run).
STEINBERG_DRAWS = 3
STEINBERG_SEED = 20250901


# ---------------------------------------------------------------------------
# Kunneth rank factorisation and the untwisting identity


def kunneth_rank_check(datum: CocharacterDatum, kz: KZeroPresentation) -> dict:
    """rank of R(T)/IR(T) must equal |W_L| times rank of R(L)/IR(L).

    kz is compute_k0 of datum.  Both quotients are free of finite rank
    (README, "Why K0 is free"), that of R(T)/IR(T) the closed form
    closed_form_rank(rd, p, 1), so the status is PASS or FAIL.
    """
    wl = len(kz.levi.weyl)
    torus_rank, levi_rank = closed_form_rank(datum.rd, datum.p, 1), kz.module_report.rank
    return {
        "status": "PASS" if torus_rank == wl * levi_rank else "FAIL",
        "torus_rank": torus_rank,
        "levi_rank": levi_rank,
        "levi_weyl_order": wl,
    }


def theta_map_check(datum: CocharacterDatum, torus: KZeroPresentation) -> dict:
    """The untwisting identity, concretely: e^chi = e^{p tau(chi)} holds in the
    torus-side quotient exactly for Weyl-invariant directions (where e^chi is a
    class from R(G)), and generically fails otherwise.  torus is compute_k0
    of the same group and prime at a regular cocharacter, whose Levi is T.

    s_alpha(chi) = chi - <chi, alpha^vee> alpha fixes chi exactly when
    <chi, alpha^vee> = 0, so the Weyl-invariant directions are the lineality
    basis of the datum's weight lift.  On T every character is dominant and
    its own orbit sum, so e^chi is the monomial y^a with a the generator
    coordinates of chi."""
    rd = datum.rd
    coordinates = torus.levi.coordinates

    def vanishes(chi: Vector) -> bool:
        f = subtract({chi: 1}, frobenius({chi: 1}, datum.p, rd.twist))
        poly = {coordinates(e): c for e, c in f.items()}
        return not normal_form_gb(poly, torus.groebner)

    gen_ok = all(not normal_form_gb(r, torus.groebner) for r in torus.frobenius_relations)
    invariant_dirs = rd.weight_lift[0]
    all_invariant_pass = gen_ok and all(vanishes(chi) for chi in invariant_dirs)
    rng = random.Random(THETA_SEED)
    samples = []
    for _ in range(THETA_SAMPLES):
        chi = tuple(rng.randint(-2, 2) for _ in range(rd.rank))
        samples.append({"chi": list(chi), "vanishes": vanishes(chi)})
    return {
        "generator_sanity": gen_ok,
        "invariant_directions": [list(v) for v in invariant_dirs],
        "all_invariant_pass": all_invariant_pass,
        "samples": samples,
    }


# ---------------------------------------------------------------------------
# Demazure operators and windowed Hecke invariants.  The conditions are built
# on exponent tuples, as sparse rows, without element arithmetic.


def _demazure_series(exponent: Vector, alpha: Vector, n: int) -> tuple[list[Vector], int]:
    """delta_alpha(e^lambda) in closed form, as its terms and their common sign.

    delta_alpha(f) = (f - e^{-alpha} s_alpha(f)) / (1 - e^{-alpha}), the
    divided difference attached to the simple root alpha, normalized so
    delta_alpha(1) = 1.  On a monomial the quotient is a geometric series in
    e^{-alpha}: with n = <lambda, alpha^vee>, delta_alpha(e^lambda) is
    sum_{k=0..n} e^{lambda - k alpha} for n >= 0, 0 for n = -1 and
    -sum_{k=1..-n-1} e^{lambda + k alpha} for n <= -2; it extends Z-linearly.
    The terms are distinct for alpha nonzero.
    """
    ks, sign = (range(-n, 1), 1) if n >= 0 else (range(1, -n), -1)
    return [tuple(a + k * b for a, b in zip(exponent, alpha)) for k in ks], sign


def window_box(rank: int, radius: int) -> list[Vector]:
    """All exponents with every coordinate in [-radius, radius], sorted."""
    return sorted(itertools.product(range(-radius, radius + 1), repeat=rank))


def _condition_rows(images: Sequence[dict[Vector, int]]) -> list[dict[int, int]]:
    """The sparse rows of the conditions image_i = 0 on box monomials: one row
    per exponent in the images' support, in sorted order, holding the
    coefficient of that exponent in each image i as its column i."""
    by_exponent: dict[Vector, dict[int, int]] = {}
    for i, img in enumerate(images):
        for e, c in img.items():
            if c:
                by_exponent.setdefault(e, {})[i] = c
    return [by_exponent[e] for e in sorted(by_exponent)]


def _hecke_rows(rd: RootDatum, box: Sequence[Vector]) -> list[dict[int, int]]:
    """For each simple root alpha, the rows of (delta_alpha - 1) e^x = 0 over
    the box monomials e^x."""
    rows: list[dict[int, int]] = []
    for idx in rd.simple_indices:
        alpha, coroot = rd.roots[idx], rd.coroots[idx]
        images = []
        for x in box:
            terms, sign = _demazure_series(x, alpha, pairing(x, coroot))
            img = dict.fromkeys(terms, sign)
            img[x] = img.get(x, 0) - 1
            images.append(img)
        rows += _condition_rows(images)
    return rows


def _weyl_rows(weyl: WeylGroup, box: Sequence[Vector]) -> list[dict[int, int]]:
    """For each Weyl element w in turn, the rows of (w - 1) e^x = 0 over the
    box monomials e^x."""
    rows: list[dict[int, int]] = []
    for w in weyl.elements:
        images = []
        for x in box:
            wx = mat_vec(w, x)
            images.append({wx: 1, x: -1} if wx != x else {})
        rows += _condition_rows(images)
    return rows


def hecke_check(datum: CocharacterDatum, window: int) -> dict:
    """At a point, three independent computations of the invariants agree:
    the Demazure/Hecke conditions, plain Weyl invariance, and the span of
    whole orbit sums inside the window.  A window whose box holds more than
    HECKE_WINDOW_CAP monomials raises ResourceCapError.

    The Hecke conditions are delta_alpha f = f for each simple root alpha,
    the annihilator of the augmentation left ideal in its finite
    presentation {delta_alpha - 1}.  They need no Weyl rows of their own:
    (delta_alpha - 1) f = (e^{-alpha} / (1 - e^{-alpha})) (f - s_alpha f),
    and 1 - e^{-alpha} is not a zero-divisor, so delta_alpha f = f exactly
    when s_alpha f = f.  Each span is a Hermite basis, kernel_basis's own or
    hermite_row_basis's, so equal lattices give equal bases."""
    rd = datum.rd
    size = (2 * window + 1) ** rd.rank
    if size > HECKE_WINDOW_CAP:
        raise ResourceCapError(
            f"Hecke window {window} spans {size} monomials, over the cap {HECKE_WINDOW_CAP}"
        )
    weyl = rd.weyl
    box = window_box(rd.rank, window)
    idx = {e: i for i, e in enumerate(box)}

    span_hecke = kernel_basis(_hecke_rows(rd, box), len(box))

    # Independent route 2: kernel of the full Weyl permutation action.
    span_weyl = kernel_basis(_weyl_rows(weyl, box), len(box))

    # Independent route 3: orbit sums entirely inside the window.
    dominant = []
    for lam in box:
        if weights_dominant(lam, rd.simple_coroots):
            orb = weyl_orbit(weyl, lam)
            if all(e in idx for e in orb):
                dominant.append({idx[e]: 1 for e in orb})

    span_orbit = hermite_row_basis(dominant, len(box))
    return {
        "window": window,
        "hecke_rank": len(span_hecke),
        "weyl_rank": len(span_weyl),
        "orbit_span_rank": len(span_orbit),
        "all_equal": span_hecke == span_weyl == span_orbit,
    }


# ---------------------------------------------------------------------------
# Steinberg basis candidates and freeness evidence


def steinberg_candidate_weights(rd: RootDatum) -> list[Vector]:
    """lambda_w = w^{-1}(sum of eta_alpha over simple alpha with w^{-1} alpha < 0),
    with eta_alpha the integral fundamental weights of rd.weight_lift, one
    weight per Weyl element in the order of rd.weyl.

    Steinberg's basis of R(T) over R(G) (see steinberg_freeness_check).
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


def steinberg_freeness_check(rd: RootDatum) -> dict:
    """Steinberg's basis {e^lambda_w} of R(T) over R(G), with an exact test
    of its independence.

    With a simply connected derived group the e^lambda_w are a basis of R(T)
    over R(G) (Steinberg, "On a theorem of Pittie", Topology 14, 1975);
    rd.weight_lift raises SimplyConnectedHypothesisError otherwise.  The
    check evaluates the |W| x |W| matrix (e^{v(lambda_w)}), v in W, at random
    torus units over a large prime field: a nonzero determinant at one point
    proves the e^lambda_w independent over R(G), and equal weights give equal
    columns, so a zero one.  Weights that fail are not Steinberg's, so
    spanning_ok is independent.
    """
    weyl = rd.weyl
    cands = steinberg_candidate_weights(rd)
    q = _SPECIALIZATION_PRIME
    rng = random.Random(STEINBERG_SEED)
    independent = False
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
        if determinant(mat) % q:
            independent = True
            break
    return {
        "candidates": [list(c) for c in cands],
        "independent": independent,
        "spanning_ok": independent,
        "note": "independence tested exactly; spanning by Steinberg, On a theorem of Pittie "
                "(Topology 14, 1975): with a simply connected derived group the e^lambda_w "
                "are a basis of R(T) over R(G)",
    }


# ---------------------------------------------------------------------------
# Report sections


def check_sections(checks: Sequence[str], datum: CocharacterDatum, kz: KZeroPresentation,
                   max_degree: int, window: int) -> dict:
    """The `checks` section of a k0 report: one entry per name in checks,
    the Hecke check over the given window.  Only theta completes R(T)/IR(T),
    compute_k0 at the regular cocharacter rd.coroot_sum, under max_degree
    and on the job's Frobenius generators, and not when the Levi is T: kz is
    then already that quotient."""
    out: dict[str, Any] = {}
    for check in checks:
        if check == "kunneth":
            out[check] = kunneth_rank_check(datum, kz)
        elif check == "theta":
            torus = kz  # when the Levi is T
            if kz.levi.roots:
                torus_datum = CocharacterDatum(datum.rd, datum.rd.coroot_sum, datum.p)
                vars(torus_datum)["frobenius_gens"] = datum.frobenius_gens  # G's, for any mu
                torus = compute_k0(torus_datum, max_degree)
            out[check] = theta_map_check(datum, torus)
        elif check == "hecke":
            out[check] = hecke_check(datum, window)
        elif check == "steinberg":
            out[check] = steinberg_freeness_check(datum.rd)
    return out
