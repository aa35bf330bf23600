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
structure from a strong Groebner basis over Z.  Cross-checks mirror the
structural facts the construction rests on (Kunneth/freeness rank
factorisation, the untwisting identity, Hecke-versus-Weyl invariants, and
the failure of naive Weyl descent).
"""

from __future__ import annotations

import math
import random
from functools import cached_property
from typing import Optional, Sequence

from ._record import record
from .groebner import (
    DEFAULT_MAX_DEGREE,
    GroebnerBasis,
    Poly,
    PolyRingSpec,
    ResourceCapError,
    normal_form_gb,
    quotient_z_module,
    QuotientReport,
    strong_groebner,
)
from .grpalg import (
    GroupAlgebraElement,
    _condition_rows,
    frobenius,
    hecke_invariants_window,
    monomial,
    orbit_sum,
    window_box,
)
from .invariants import (
    InvariantRingPresentation,
    express_invariant,
    invariant_ring,
)
from .lattice import _prime_factors, hermite_row_basis, kernel_basis
from .rootdata import (
    Cocharacter,
    RootDatum,
    Vector,
    WeylGroup,
    dominant_hilbert_basis,
    levi_from_cocharacter,
    mat_vec,
    weights_dominant,
    weyl_orbit,
)


# theta_map_check tests this many random directions, the same ones every run.
THETA_SAMPLES = 8
THETA_SEED = 20250901
# hecke_check refuses a window whose exponent box holds more monomials.  The
# kernel work grows faster than the box: on a 2-vCPU host SL2's window of
# 2001 monomials takes about 3 s, its window of 4001 about 11 s.
HECKE_WINDOW_CAP = 2048


def is_prime(n: int) -> bool:
    return n > 1 and _prime_factors(n) == [n]


@record
class CocharacterDatum:
    """Input to the pipeline: root datum, cocharacter and prime."""

    rd: RootDatum
    mu: Cocharacter
    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if len(self.mu) != self.rd.rank:
            raise ValueError(
                f"cocharacter length {len(self.mu)} does not match rank {self.rd.rank}"
            )

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


def torus_ring_spec(rank: int) -> tuple[PolyRingSpec, list[Poly]]:
    """Z[x1..xn, inverses] and its relations x_ib*x_i - 1: inverse variables
    sort first so they reduce away."""
    names = []
    for i in range(rank):
        names.append(f"x{i + 1}b")
        names.append(f"x{i + 1}")
    pairs = [(2 * i, 2 * i + 1) for i in range(rank)]
    return PolyRingSpec(tuple(names)), unit_relations(pairs, 2 * rank)


def exponent_to_monomial(chi: Sequence[int]) -> tuple[int, ...]:
    out = []
    for c in chi:
        out.append(-c if c < 0 else 0)
        out.append(c if c > 0 else 0)
    return tuple(out)


def to_poly(f: GroupAlgebraElement) -> Poly:
    """Character sum -> polynomial in the split positive/negative variables."""
    return {exponent_to_monomial(chi): c for chi, c in f.terms.items()}


# ---------------------------------------------------------------------------
# The torus-side quotient R(T)/IR(T)


def compute_k0_torus(
    datum: CocharacterDatum, max_degree: int = DEFAULT_MAX_DEGREE
) -> tuple[GroebnerBasis, QuotientReport]:
    """Strong basis and Z-module report for R(T) modulo the Frobenius differences."""
    spec, units = torus_ring_spec(datum.rd.rank)
    polys = units + [to_poly(g) for g in datum.frobenius_gens]
    gb = strong_groebner(polys, spec, max_degree=max_degree)
    return gb, quotient_z_module(gb)


# ---------------------------------------------------------------------------
# The main presentation R(L)/IR(L)


@record
class KZeroPresentation:
    """Finitely presented ring isomorphic to the Grothendieck ring of the stack:
    Z[y] on the ring of groebner.spec, one y_j per generator of
    presentation_pres, modulo the syzygy and then the Frobenius relations."""

    syzygy_relations: tuple[Poly, ...]       # kernel of Z[y] -> R(L)
    frobenius_relations: tuple[Poly, ...]    # images of the ideal generators
    groebner: GroebnerBasis
    module_report: QuotientReport
    presentation_pres: InvariantRingPresentation   # R(L); its rd is the Levi
    one_nonzero: bool


def levi_presentation_ring(
    lpres: InvariantRingPresentation,
) -> tuple[PolyRingSpec, tuple[Poly, ...]]:
    """Present R(L) on one variable y_j per orbit-sum generator, in closed form.

    With a simply connected derived group, R(L) is a polynomial ring on the
    fundamental orbit sums tensored with a Laurent ring on the central
    characters (Steinberg, "On a theorem of Pittie").  The kernel of
    Z[y] -> R(L) is therefore generated by y_a*y_b - 1, one for each a < b
    with opposite generator weights, in that order.  The hypothesis is
    checked: the generator weights left unpaired must be exactly as many as
    the simple roots of L.
    """
    weights = lpres.generator_weights
    k = len(weights)
    pairs = [
        (a, b)
        for a in range(k)
        for b in range(a + 1, k)
        if weights[b] == tuple(-x for x in weights[a])
    ]
    unpaired = k - 2 * len(pairs)
    if unpaired != len(lpres.rd.simple_indices):
        raise ValueError(
            f"R(L) is not polynomial on its orbit-sum generators: {unpaired} unpaired "
            f"generator weights for {len(lpres.rd.simple_indices)} Levi simple roots"
        )
    return PolyRingSpec(tuple(f"y{j + 1}" for j in range(k))), tuple(unit_relations(pairs, k))


def compute_k0(
    datum: CocharacterDatum, max_degree: int = DEFAULT_MAX_DEGREE
) -> KZeroPresentation:
    """Presentation of R(L)/IR(L) for the Levi of the cocharacter."""
    frobenius_gens = datum.frobenius_gens  # first: runs the simply-connectedness gate
    lpres = invariant_ring(levi_from_cocharacter(datum.rd, datum.mu))
    y_spec, syzygies = levi_presentation_ring(lpres)
    frob_polys = [express_invariant(g, lpres) for g in frobenius_gens]

    gb = strong_groebner(list(syzygies) + frob_polys, y_spec, max_degree=max_degree)
    report = quotient_z_module(gb)
    one_mono = (0,) * y_spec.nvars
    one_nz = normal_form_gb({one_mono: 1}, gb) != {}
    return KZeroPresentation(tuple(syzygies), tuple(frob_polys), gb, report, lpres, one_nz)


# ---------------------------------------------------------------------------
# Cross-checks


@record
class KunnethReport:
    status: str                  # "PASS", "FAIL", or "INCONCLUSIVE"
    torus_rank: Optional[int]    # None when that quotient is not module-finite
    levi_rank: Optional[int]
    levi_weyl_order: int


def kunneth_rank_check(kz: KZeroPresentation, torus_report: QuotientReport) -> KunnethReport:
    """rank of R(T)/IR(T) must equal |W_L| times rank of R(L)/IR(L).

    kz and torus_report are compute_k0 and compute_k0_torus of the same datum.
    """
    wl = len(kz.presentation_pres.rd.weyl)
    torus_rank = torus_report.rank if torus_report.finite else None
    levi_rank = kz.module_report.rank if kz.module_report.finite else None
    if torus_rank is None or levi_rank is None:
        status = "INCONCLUSIVE"
    else:
        status = "PASS" if torus_rank == wl * levi_rank else "FAIL"
    return KunnethReport(status, torus_rank, levi_rank, wl)


@record
class ThetaReport:
    generator_sanity: bool
    invariant_directions: tuple[Vector, ...]
    all_invariant_pass: bool
    samples: tuple[tuple[Vector, bool], ...]


def theta_map_check(datum: CocharacterDatum, torus_gb: GroebnerBasis) -> ThetaReport:
    """The untwisting identity, concretely: e^chi = e^{p tau(chi)} holds in the
    torus-side quotient exactly for Weyl-invariant directions (where e^chi is a
    class from R(G)), and generically fails otherwise.  torus_gb is the strong
    basis from compute_k0_torus of the same datum.

    s_alpha(chi) = chi - <chi, alpha^vee> alpha fixes chi exactly when
    <chi, alpha^vee> = 0, so the Weyl-invariant directions are the lineality
    basis of the datum's weight lift."""
    rd = datum.rd

    def vanishes(chi: Vector) -> bool:
        f = monomial(rd.rank, chi) - frobenius(monomial(rd.rank, chi), datum.p, rd.twist)
        return not normal_form_gb(to_poly(f), torus_gb)

    gen_ok = all(not normal_form_gb(to_poly(g), torus_gb) for g in datum.frobenius_gens)
    invariant_dirs = rd.weight_lift[0]
    all_invariant_pass = gen_ok and all(vanishes(chi) for chi in invariant_dirs)
    rng = random.Random(THETA_SEED)
    samples = []
    for _ in range(THETA_SAMPLES):
        chi = tuple(rng.randint(-2, 2) for _ in range(rd.rank))
        samples.append((chi, vanishes(chi)))
    return ThetaReport(gen_ok, invariant_dirs, all_invariant_pass, tuple(samples))


@record
class HeckeReport:
    window: int
    hecke_rank: int
    weyl_rank: int
    orbit_span_rank: int
    all_equal: bool


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


def hecke_check(datum: CocharacterDatum, window: int) -> HeckeReport:
    """At a point, three independent computations of the invariants agree:
    the Demazure/Hecke conditions, plain Weyl invariance, and the span of
    whole orbit sums inside the window.  A window whose box holds more than
    HECKE_WINDOW_CAP monomials raises ResourceCapError."""
    rd = datum.rd
    size = (2 * window + 1) ** rd.rank
    if size > HECKE_WINDOW_CAP:
        raise ResourceCapError(
            f"Hecke window {window} spans {size} monomials, over the cap {HECKE_WINDOW_CAP}"
        )
    weyl = rd.weyl
    box = window_box(rd.rank, window)
    idx = {e: i for i, e in enumerate(box)}

    hecke_basis = hecke_invariants_window(rd, box)

    # Independent route 2: kernel of the full Weyl permutation action.
    span_weyl = kernel_basis(_weyl_rows(weyl, box), len(box))

    # Independent route 3: orbit sums entirely inside the window.
    dominant = []
    for lam in box:
        if weights_dominant(lam, rd.simple_coroots):
            orb = weyl_orbit(weyl, lam)
            if all(e in idx for e in orb):
                dominant.append({idx[e]: 1 for e in orb})

    span_hecke = hermite_row_basis(
        [{idx[e]: c for e, c in f.terms.items()} for f in hecke_basis], len(box)
    )
    span_orbit = hermite_row_basis(dominant, len(box))
    return HeckeReport(
        window,
        len(span_hecke),
        len(span_weyl),
        len(span_orbit),
        span_hecke == span_weyl == span_orbit,
    )


# ---------------------------------------------------------------------------
# The Weyl-invariants counterexample (torsion module demo)


@record
class CounterexampleReport:
    module: str
    image_order: str           # order of the image of M, as a string ("infinite" for Z)
    invariant_order: str
    invariant_structure: str
    strictly_larger: bool


def weyl_counterexample_demo(module: str = "Z/2") -> CounterexampleReport:
    """The rank-one zip-adjacent module demo: for M with 2-torsion the Weyl
    invariants of M + M x strictly contain M.

    The reflection acts by s(a + b x) = (a + 2b) - b x since s(x) = x^{-1} =
    (x + x^{-1}) - x acts through the augmentation value 2 on M.  Invariance
    is exactly 2b = 0 (equivalently (x + x^{-1}) b = 0).
    """
    name = module.strip()
    if name == "Z":
        return CounterexampleReport("Z", "infinite", "infinite", "Z", False)
    if not name.startswith("Z/"):
        raise ValueError(f"unsupported module {module!r}; use Z or Z/<m>")
    m = int(name[2:])
    if m <= 0:
        raise ValueError("modulus must be positive")
    # a is free and b ranges over the 2-torsion of Z/m, which has gcd(2, m)
    # elements.
    ann2 = math.gcd(2, m)
    invariant_count = m * ann2
    structure_parts = [f"Z/{m}"] if m > 1 else []
    if ann2 > 1:
        structure_parts.append(f"Z/{ann2}")
    structure = " + ".join(structure_parts) if structure_parts else "0"
    return CounterexampleReport(
        f"Z/{m}",
        str(m),
        str(invariant_count),
        structure,
        invariant_count > m,
    )
