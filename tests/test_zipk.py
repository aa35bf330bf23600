from __future__ import annotations

import pytest

import itertools
import json
import math
import random

from zipk0.caps import DEFAULT_MAX_DEGREE, ResourceCapError
from zipk0.groebner import QuotientReport, normal_form_gb, poly_to_string, strong_groebner
from zipk0.checks import (
    _weyl_rows,
    check_sections,
    hecke_check,
    kunneth_rank_check,
    theta_map_check,
    window_box,
)
from zipk0.invariants import express_invariant
from zipk0.lattice import (
    MILLER_RABIN_BOUND,
    _prime_factors,
    cokernel_invariants,
    is_prime,
    kernel_basis,
)
from zipk0.rootdata import (
    PRESET_NAMES,
    RootDatum,
    SimplyConnectedHypothesisError,
    fundamental_group,
    levi_from_cocharacter,
    pairing,
    preset,
    validate,
    weyl_enumerate,
)
from zipk0.zipk import (
    CocharacterDatum,
    KZeroPresentation,
    closed_form_rank,
    compute_k0,
    levi_presentation_ring,
    unit_relations,
)

from oracles import (
    BlockRingSpec,
    all_presets,
    counterexample_brute_force,
    dense_hermite_row_basis,
    dense_kernel_basis,
    dense_solve_linear_diophantine,
    densify,
    eliminate,
    from_terms,
    mod_l_count_agrees,
    monomial,
    one,
    reference_k0_torus,
    reference_normal_form_gb,
    reference_strong_groebner,
    rename_variables,
    root_coefficients,
    substitution_soundness,
    sympy_quotient_dimension,
    to_poly,
    torus_k0,
    torus_ring_spec,
    torus_variable_renaming,
    twisted_point_count,
    verify_strong_groebner,
    weyl_rows_by_elements,
)


def kunneth(datum):
    return kunneth_rank_check(datum, compute_k0(datum))


def test_is_prime():
    assert [n for n in range(14) if is_prime(n)] == [2, 3, 5, 7, 11, 13]


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    assert [n for n in range(2, 10**5) if is_prime(n)] == list(sympy.primerange(2, 10**5))
    rng = random.Random(20261018)
    for bits in (64, 80):
        for _ in range(300):
            n = rng.getrandbits(bits) | 1
            assert is_prime(n) == sympy.isprime(n), n
        # Random primes, found by trial over odd candidates.
        n = rng.getrandbits(bits) | 1
        while not sympy.isprime(n):
            n += 2
        assert is_prime(n)
    near = range(MILLER_RABIN_BOUND - 200, MILLER_RABIN_BOUND)
    assert [n for n in near if is_prime(n)] == [n for n in near if sympy.isprime(n)]


@pytest.mark.parametrize("n", [
    2047,                    # strong pseudoprime to base 2
    3215031751,              # ... to bases 2, 3, 5, 7
    3825123056546413051,     # ... to the prime bases up to 31
    318665857834031151167461,  # ... to the prime bases up to 37
    1000000007 * 998244353,
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


@pytest.mark.parametrize("n", [MILLER_RABIN_BOUND, 2**89 - 1])
def test_is_prime_refuses_the_bound(n):
    # The bound is the least strong pseudoprime to every base tested, so it
    # and all above it are refused rather than misjudged.
    with pytest.raises(ResourceCapError, match=str(MILLER_RABIN_BOUND)):
        is_prime(n)


def test_datum_validation():
    with pytest.raises(ValueError):
        CocharacterDatum(preset("SL2"), (1,), 4)
    with pytest.raises(ValueError):
        compute_k0(CocharacterDatum(preset("SL2"), (1, 0), 3))
    with pytest.raises(SimplyConnectedHypothesisError):
        pgl2 = CocharacterDatum(preset("PGL2"), (1,), 2).rd
        validate(pgl2)
        pgl2.weight_lift
    sl3 = CocharacterDatum(preset("SL3"), (0, 0), 2).rd
    validate(sl3)
    sl3.weight_lift


@pytest.mark.parametrize("p,rank", [(2, 4), (3, 6), (5, 10)])
def test_torus_side_sl2(p, rank):
    datum = CocharacterDatum(preset("SL2"), (1,), p)
    report = torus_k0(datum).module_report
    assert report.rank == rank
    assert report.torsion == ()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_torus_side_ideal_is_principal_product(p):
    # Eliminating the inverse variable leaves the ideal generated by an
    # associate of (x^{p+1} - 1)(x^{p-1} - 1).
    datum = CocharacterDatum(preset("SL2"), (1,), p)
    spec = BlockRingSpec(("xb", "x"), ((0,), (1,)))
    f = to_poly(
        from_terms(1, [((1,), 1), ((-1,), 1), ((p,), -1), ((-p,), -1)]).terms
    )
    gb = reference_strong_groebner([f] + unit_relations([(0, 1)], 2), spec)
    egb = eliminate(gb, (0,))
    polys = egb.as_dicts()
    assert len(polys) == 1
    # Oracle: expand (x^{p+1} - 1)(x^{p-1} - 1) in the group algebra.
    target = (monomial(1, (p + 1,)) - one(1)) * (monomial(1, (p - 1,)) - one(1))
    expected = {(e[0],): c for e, c in target.terms.items()}
    got = {(m[0],): c for m, c in polys[0].items()}
    neg = {k: -v for k, v in expected.items()}
    assert got in (expected, neg)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_torus_golden_gm(p):
    datum = CocharacterDatum(preset("Gm"), (0,), p)
    report = torus_k0(datum).module_report
    assert report.rank == p - 1 and report.torsion == ()
    kz = compute_k0(datum)
    assert kz.module_report.rank == p - 1
    assert kz.module_report.torsion == ()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_torus_golden_gm2(p):
    datum = CocharacterDatum(preset("Gm^2"), (0, 0), p)
    kz = compute_k0(datum)
    assert kz.module_report.rank == (p - 1) ** 2
    assert kz.module_report.torsion == ()


def test_sl2_levi_torus_matches_torus_side():
    # For L = T the Levi presentation agrees with the reference torus ring.
    datum = CocharacterDatum(preset("SL2"), (1,), 3)
    torus_gb, torus_report = reference_k0_torus(datum)
    kz = compute_k0(datum)
    assert len(kz.levi.weyl) == 1
    assert kz.module_report.rank == torus_report.rank == 6
    assert kz.module_report.torsion == torus_report.torsion == ()
    # Mutual containment of the ideals under the renaming y <-> monomials.
    assert substitution_soundness(datum, kz, torus_gb)
    fig_polys = [
        from_terms(1, [((1,), 1), ((-1,), 1), ((3,), -1), ((-3,), -1)]),
    ]
    for g in fig_polys:
        poly = express_invariant(g.terms, kz.levi)
        assert normal_form_gb(poly, kz.groebner) == {}


def test_compute_k0_rejects_pgl2():
    datum = CocharacterDatum(preset("PGL2"), (1,), 2)
    with pytest.raises(SimplyConnectedHypothesisError) as exc:
        compute_k0(datum)
    assert exc.value.torsion == [2]


def test_presentation_fields_sl2():
    datum = CocharacterDatum(preset("SL2"), (1,), 3)
    kz = compute_k0(datum)
    assert kz.groebner.spec.names == ("y1", "y2")
    assert kz.levi.generator_weights == ((-1,), (1,))
    assert ["y1*y2 - 1"] == [poly_to_string(r, kz.groebner.spec) for r in kz.syzygy_relations]
    assert len(kz.frobenius_relations) == 1
    assert normal_form_gb({(0, 0): 1}, kz.groebner)


def test_levi_gr_presentation_l_equals_g():
    # mu = 0: the output ideal is the Frobenius ideal written in R(G)'s own
    # presentation (no syzygies for SL2).
    datum = CocharacterDatum(preset("SL2"), (0,), 3)
    kz = compute_k0(datum)
    assert kz.syzygy_relations == ()
    assert len(kz.frobenius_relations) == 1
    assert kz.module_report.rank == 3
    # Direct construction through the full invariant ring.
    rd = preset("SL2")
    direct = express_invariant(CocharacterDatum(rd, (0,), 3).frobenius_gens[0], rd)
    assert dict(kz.frobenius_relations[0]) == direct


def eliminated_levi_presentation(levi: RootDatum):
    """Oracle for levi_presentation_ring: eliminate the torus block from the
    graph ideal (y_j - generator_j) in Z[x, x^-1, y] under a block order."""
    n = 2 * levi.rank
    k = len(levi.generator_elements)
    tspec, units = torus_ring_spec(levi.rank)
    big_spec = BlockRingSpec(
        tspec.names + tuple(f"y{j + 1}" for j in range(k)),
        (tuple(range(n)), tuple(range(n, n + k))),
    )
    gens = [{m + (0,) * k: c for m, c in u.items()} for u in units]
    for j, el in enumerate(levi.generator_elements):
        g = {m + (0,) * k: -c for m, c in to_poly(el).items()}
        yj = (0,) * n + tuple(1 if i == j else 0 for i in range(k))
        g[yj] = g.get(yj, 0) + 1
        gens.append({m: c for m, c in g.items() if c})
    rel_gb = eliminate(reference_strong_groebner(gens, big_spec), tuple(range(n)))
    return rel_gb.spec, tuple(rel_gb.as_dicts())


def distinct_simply_connected_levis():
    """(preset, mu, Levi) for every simply connected preset and every distinct
    Levi of a cocharacter in {-1, 0, 1}^rank."""
    out = []
    for name in PRESET_NAMES:
        rd = preset(name)
        if any(d > 1 for d in fundamental_group(rd)):
            continue
        seen = set()
        for mu in itertools.product((-1, 0, 1), repeat=rd.rank):
            levi = levi_from_cocharacter(rd, mu)
            if levi.roots not in seen:
                seen.add(levi.roots)
                out.append((name, mu, levi))
    return out


def test_levi_presentation_closed_form_matches_elimination():
    cases = distinct_simply_connected_levis()
    assert len(cases) == 33
    for name, mu, levi in cases:
        assert levi_presentation_ring(levi) == eliminated_levi_presentation(levi), (name, mu)


@pytest.mark.parametrize("p", [2, 3])
def test_kunneth_sl3(p):
    datum = CocharacterDatum(preset("SL3"), (1, 2), p)
    report = kunneth(datum)
    assert report["status"] == "PASS"
    assert report["levi_weyl_order"] == 2
    assert report["torus_rank"] == 2 * report["levi_rank"]


def test_kunneth_degenerate_levi_torus():
    datum = CocharacterDatum(preset("SL2"), (1,), 3)
    report = kunneth(datum)
    assert report["status"] == "PASS"
    assert report["levi_weyl_order"] == 1
    assert report["torus_rank"] == report["levi_rank"]


def test_kunneth_torus():
    datum = CocharacterDatum(preset("Gm"), (0,), 5)
    report = kunneth(datum)
    assert report["status"] == "PASS" and report["levi_weyl_order"] == 1


def test_kunneth_fails_on_a_levi_rank_off_by_one():
    # The torus rank is the closed form, so a Levi rank that is off fails.
    datum = CocharacterDatum(preset("SL3"), (1, 2), 2)
    kz = compute_k0(datum)
    good = kz.module_report
    assert kunneth_rank_check(datum, kz)["status"] == "PASS"
    for off in (-1, 1):
        wrong = QuotientReport(good.rank + off, good.torsion, good.standard_monomials, good.bound)
        altered = KZeroPresentation(kz.syzygy_relations, kz.frobenius_relations, kz.groebner,
                                    wrong, kz.levi)
        rep = kunneth_rank_check(datum, altered)
        assert rep == {"status": "FAIL", "torus_rank": 2 * good.rank,
                       "levi_rank": good.rank + off, "levi_weyl_order": 2}


@pytest.mark.parametrize("name", [n for n in PRESET_NAMES if n != "PGL2"])
def test_a_central_mu_presents_r_l_on_the_group_datum(name):
    # At a central mu the Levi is rd itself, so G's orbit sums present R(L).
    rd = preset(name)
    datum = CocharacterDatum(rd, (0,) * rd.rank, 2)
    assert compute_k0(datum).levi is datum.rd


def test_substitution_soundness_sl3():
    datum = CocharacterDatum(preset("SL3"), (1, 2), 2)
    kz = compute_k0(datum)
    torus_gb, _ = reference_k0_torus(datum)
    assert substitution_soundness(datum, kz, torus_gb)


def test_one_nonzero_everywhere(capsys):
    # The report's flag, read off the module's rank and torsion, agrees with
    # the normal form of 1.
    from zipk0.cli import main

    for name, mu, p in [("SL2", (1,), 2), ("SL3", (1, 2), 2), ("Sp4", (1, 1), 2)]:
        kz = compute_k0(CocharacterDatum(preset(name), mu, p))
        assert normal_form_gb({(0,) * kz.groebner.spec.nvars: 1}, kz.groebner)
        assert main(["k0", "--group", name, "--mu", ",".join(map(str, mu)), "--p", str(p)]) == 0
        assert json.loads(capsys.readouterr().out)["flags"]["one_nonzero"] is True


def test_theta_check_torus_all_directions():
    datum = CocharacterDatum(preset("Gm"), (0,), 3)
    rep = theta_map_check(datum, torus_k0(datum))
    assert rep["generator_sanity"]
    assert rep["invariant_directions"] == [[1]]
    assert rep["all_invariant_pass"]
    assert all(s["vanishes"] for s in rep["samples"])


def test_theta_check_sl2():
    datum = CocharacterDatum(preset("SL2"), (1,), 3)
    torus = torus_k0(datum)
    rep = theta_map_check(datum, torus)
    assert rep["generator_sanity"]
    assert rep["invariant_directions"] == []      # X*(T)^W = 0 for SL2
    assert rep["all_invariant_pass"]
    # x - x^3 is NOT in the ideal: x alone is not a class from R(G).
    f = monomial(1, (1,)) - monomial(1, (3,))
    assert normal_form_gb(express_invariant(f.terms, torus.levi), torus.groebner) != {}


def test_theta_check_gl2_center():
    datum = CocharacterDatum(preset("GL2"), (1, 0), 2)
    rep = theta_map_check(datum, torus_k0(datum))
    # The center of GL2 gives the invariant direction (1, 1).
    assert rep["invariant_directions"] == [[1, 1]]
    assert rep["all_invariant_pass"]


def test_weyl_invariant_lattice():
    # theta's invariant directions, the lineality basis of the weight lift,
    # are a basis of the characters fixed by the whole Weyl group.
    assert preset("SL2").weight_lift[0] == ()
    assert preset("GL2").weight_lift[0] == ((1, 1),)
    assert preset("Gm^2").weight_lift[0] == ((1, 0), (0, 1))
    for rd in all_presets():
        if rd.name == "PGL2":
            continue
        fixed = kernel_basis(
            [tuple(w[i][j] - (i == j) for j in range(rd.rank))
             for w in rd.weyl.elements for i in range(rd.rank)],
            rd.rank,
        )
        assert rd.weight_lift[0] == fixed, rd.name


def test_hecke_check_sl2():
    datum = CocharacterDatum(preset("SL2"), (1,), 2)
    rep = hecke_check(datum, 6)
    assert rep["all_equal"]
    assert rep["hecke_rank"] == rep["weyl_rank"] == rep["orbit_span_rank"] == 7


def test_hecke_check_window_zero():
    datum = CocharacterDatum(preset("SL2"), (1,), 2)
    rep = hecke_check(datum, 0)
    assert rep["all_equal"] and rep["hecke_rank"] == 1


def test_hecke_check_sl3():
    datum = CocharacterDatum(preset("SL3"), (1, 2), 2)
    rep = hecke_check(datum, 2)
    assert rep["all_equal"]
    assert rep["hecke_rank"] == 6


def _reflection_fixed_part(m: int) -> list[int]:
    """Invariant factors > 1 of the fixed points of s(a + b x) = (a + 2b) - b x
    on M + Mx, M = Z/m.  Over Z/m a square matrix's kernel has the invariant
    factors of its cokernel (Smith form), so this is Z^2 modulo the columns
    of s - 1, namely (0, 0) and (2, -2), and of m Z^2."""
    factors = cokernel_invariants([(0, 0), (2, -2), (m, 0), (0, m)], 2)
    return [d for d in factors if d > 1]


def test_counterexample_z2():
    # The invariants Z/2 + Z/2 (order 4) strictly contain the image M = Z/2.
    assert _reflection_fixed_part(2) == [2, 2]
    fixed, m = counterexample_brute_force(2)
    assert fixed == 4 and m == 2


def test_counterexample_no_excess():
    # For M = Z the kernel of s - 1, (a, b) -> (2b, -2b), is the image a.
    assert kernel_basis([[0, 2], [0, -2]], 2) == ((1, 0),)
    assert _reflection_fixed_part(3) == [3]
    assert counterexample_brute_force(3) == (3, 3)


def test_counterexample_matches_brute_force():
    for m in range(1, 61):
        fixed, _ = counterexample_brute_force(m)
        assert math.prod(_reflection_fixed_part(m)) == fixed


def test_twisted_pipeline_runs_and_flags():
    rd0 = preset("A1xA1")
    tau = ((0, 1), (1, 0))
    rd = RootDatum(rd0.rank, rd0.roots, rd0.coroots, rd0.simple_indices, tau, name="A1xA1.swap")
    datum = CocharacterDatum(rd, (0, 0), 2)
    kz = compute_k0(datum)
    assert kz.module_report.rank == closed_form_rank(rd, 2, 4)
    rep = kunneth(datum)
    assert rep["status"] == "PASS"


def test_sp4_levi_factorization():
    datum = CocharacterDatum(preset("Sp4"), (1, 1), 2)
    rep = kunneth(datum)
    assert rep["status"] == "PASS"
    assert rep["levi_weyl_order"] == 2


def test_normal_form_lands_in_standard_monomials():
    # Reducing x^5 against the SL2 p=3 torus-side basis gives a Z-combination
    # of the six standard monomials.
    datum = CocharacterDatum(preset("SL2"), (1,), 3)
    torus = torus_k0(datum)
    nf = normal_form_gb(express_invariant(monomial(1, (5,)).terms, torus.levi),
                        torus.groebner)
    assert nf != {}
    assert set(nf) <= set(torus.module_report.standard_monomials)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_torus_side_gm2(p):
    datum = CocharacterDatum(preset("Gm^2"), (0, 0), p)
    report = torus_k0(datum).module_report
    assert report.rank == (p - 1) ** 2 and report.torsion == ()


@pytest.mark.parametrize("name,mu,twist", [
    ("SL3", (1, 2), None),
    ("SL3", (1, 2), ((0, 1), (1, 0))),
    ("GL3", (1, 0, 0), None),
    ("Sp4", (0, 0), None),
])
def test_pipeline_leaves_cached_elements_unchanged(name, mu, twist):
    # frobenius_gens and generator_elements are cached and shared, so the
    # completions of R(L) and of R(T), and the kunneth and theta checks, must
    # leave every one of their dicts as it was: equal to a fresh computation.
    rd0 = preset(name)
    rd = RootDatum(rd0.rank, rd0.roots, rd0.coroots, rd0.simple_indices, twist)
    datum = CocharacterDatum(rd, mu, 3)
    before = [dict(g) for g in datum.frobenius_gens]
    kz, torus = compute_k0(datum), torus_k0(datum)
    assert kunneth_rank_check(datum, kz)["status"] == "PASS"
    assert theta_map_check(datum, torus)["generator_sanity"]
    assert [dict(g) for g in datum.frobenius_gens] == before
    for levi in (kz.levi, torus.levi):
        fresh = RootDatum(levi.rank, levi.roots, levi.coroots, levi.simple_indices)
        assert levi.generator_elements == fresh.generator_elements


def test_datum_inherits_twist_from_root_datum():
    rd0 = preset("A1xA1")
    tau = ((0, 1), (1, 0))
    rd = RootDatum(rd0.rank, rd0.roots, rd0.coroots, rd0.simple_indices, tau)
    datum = CocharacterDatum(rd, (0, 0), 2)
    # m_(1,0) - phi(m_(1,0)), with phi(e^chi) = e^{2 tau(chi)}.
    swapped = from_terms(2, [((1, 0), 1), ((-1, 0), 1), ((0, 2), -1), ((0, -2), -1)])
    assert swapped.terms in datum.frobenius_gens


def test_pipeline_groebner_bases_are_strong():
    # Re-check the Buchberger criterion on actual pipeline outputs.
    for name, mu, p in [("SL2", (1,), 3), ("SL3", (1, 2), 2), ("Sp4", (1, 1), 2)]:
        datum = CocharacterDatum(preset(name), mu, p)
        assert verify_strong_groebner(torus_k0(datum).groebner), (name, "torus")
        kz = compute_k0(datum)
        assert verify_strong_groebner(kz.groebner), (name, "levi")


@pytest.mark.parametrize("p", [2, 3])
def test_rank_matches_semisimple_class_count(p):
    # For simply connected derived group the torus-side rank equals
    # |W| * p^(semisimple rank) * (p-1)^(central rank): the count of
    # semisimple conjugacy classes of the finite group of F_p-points,
    # spread over the Weyl group.  Cross-preset consistency check.
    cases = {
        "SL2": (2, 1, 0),
        "SL3": (6, 2, 0),
        "Sp4": (8, 2, 0),
        "GL2": (2, 1, 1),
        "A1xA1": (4, 2, 0),
        "Gm": (1, 0, 1),
        "Gm^2": (1, 0, 2),
    }
    for name, (w, s, z) in cases.items():
        rd = preset(name)
        datum = CocharacterDatum(rd, (0,) * rd.rank, p)
        rep = torus_k0(datum).module_report
        assert rep.rank == w * p**s * (p - 1) ** z, (name, rep.rank)
        assert rep.torsion == (), name


# The torus quotient's presets with (|W|, s, z): every simply connected
# preset but SL4, whose torus quotient takes seconds at p=2.
TORUS_CASES = {
    "SL2": (2, 1, 0),
    "GL2": (2, 1, 1),
    "A1xA1": (4, 2, 0),
    "SL3": (6, 2, 0),
    "Sp4": (8, 2, 0),
    "GL3": (6, 2, 1),
    "Gm": (1, 0, 1),
    "Gm^2": (1, 0, 2),
}


U3_TWIST = ((0, 0, -1), (0, -1, 0), (-1, 0, 0))


@pytest.mark.parametrize("name,tau,p", [
    *(pytest.param(name, None, p, id=f"{name}-{p}")
      for name in TORUS_CASES for p in (2, 3, 5) if (name, p) != ("GL3", 5)),
    pytest.param("GL3", U3_TWIST, 2, id="unitary GL3-2"),
])
def test_torus_quotient_matches_reference_torus_ring(name, tau, p):
    # R(T)/IR(T) as compute_k0 at the coroot sum equals the quotient of the
    # reference torus ring: the same module, of rank p^s (p-1)^z |W| when
    # split and of the Weyl-group count when twisted, and the same ideal
    # under the renaming y(-e_i) <-> x_ib, y(e_i) <-> x_i.
    w, s, z = TORUS_CASES[name]
    rd = twisted(name, tau)
    datum = CocharacterDatum(rd, (0,) * rd.rank, p)
    torus = torus_k0(datum)
    ref_gb, ref = reference_k0_torus(datum)
    got = torus.module_report
    assert (got.rank, got.torsion) == (ref.rank, ref.torsion)
    count = twisted_point_count(rd, p, 1) if tau else p**s * (p - 1) ** z * w
    assert got.rank == count == closed_form_rank(rd, p, 1)
    target = torus_variable_renaming(torus)
    back = tuple(target.index(i) for i in range(len(target)))
    for g in torus.groebner.as_dicts():
        assert normal_form_gb(rename_variables(g, target), ref_gb) == {}
    for g in ref_gb.as_dicts():
        assert normal_form_gb(rename_variables(g, back), torus.groebner) == {}


@pytest.mark.parametrize("rd", all_presets(), ids=lambda rd: rd.name)
def test_coroot_sum_is_regular(rd):
    # The sum of the positive coroots pairs with each positive root to twice
    # its height, so the Levi it centralises is T.
    for i in rd.positive_indices:
        height = sum(root_coefficients(rd.roots[i], rd.simple_roots))
        assert pairing(rd.roots[i], rd.coroot_sum) == 2 * height
    assert levi_from_cocharacter(rd, rd.coroot_sum).roots == ()


@pytest.mark.parametrize("p", [2, 3])
def test_kunneth_torsion_and_rank_on_every_levi(p):
    # On every distinct Levi of the torus presets, K0 and R(T)/IR(T) are
    # both torsion-free and the torus rank is |W_L| times the Levi rank.
    tori = {}
    for name, mu, levi in distinct_simply_connected_levis():
        if name not in TORUS_CASES:
            continue
        datum = CocharacterDatum(preset(name), mu, p)
        if name not in tori:
            tori[name] = torus_k0(datum)
        answer = compute_k0(datum)
        torus, kz = tori[name].module_report, answer.module_report
        assert torus.torsion == kz.torsion == (), (name, mu)
        assert torus.rank == len(levi.weyl) * kz.rank, (name, mu)
        # The check's closed form is the completed torus rank.
        assert kunneth_rank_check(datum, answer)["torus_rank"] == torus.rank, (name, mu)


# The ten `quotient` ladder cases: (group, mu, p, |W|, s, z, |W_L|), with s
# the semisimple rank, z = rank - s, and |W_L| the Weyl group of the Levi.
QUOTIENT_LADDER = [
    ("SL3", (1, 0), 3, 6, 2, 0, 1),
    ("SL3", (1, 0), 5, 6, 2, 0, 1),
    ("GL2", (1, 0), 7, 2, 1, 1, 1),
    ("GL2", (1, 0), 11, 2, 1, 1, 1),
    ("GL3", (2, 1, 0), 2, 6, 2, 1, 1),
    ("GL3", (1, 0, 0), 5, 6, 2, 1, 2),
    ("Sp4", (1, 1), 5, 8, 2, 0, 2),
    ("Sp4", (2, 1), 3, 8, 2, 0, 1),
    ("SL4", (1, 1, 0), 2, 24, 3, 0, 2),
    ("SL2", (1,), 11, 2, 1, 0, 1),
]


@pytest.mark.parametrize("name,mu,p,w,s,z,wl", QUOTIENT_LADDER)
def test_rank_matches_closed_form(name, mu, p, w, s, z, wl):
    # rank R(L)/I R(L) = p^s (p-1)^z |W| / |W_L| for an untwisted datum.
    kz = compute_k0(CocharacterDatum(preset(name), mu, p))
    assert kz.module_report.rank == p**s * (p - 1) ** z * w // wl


@pytest.mark.parametrize("name,mu,p,w,s,z,wl", QUOTIENT_LADDER)
def test_quotient_ladder_bases_are_strong(name, mu, p, w, s, z, wl):
    # Every S- and G-polynomial of the pruned completion's basis reduces to
    # zero: a criterion that drops a needed pair fails here.
    kz = compute_k0(CocharacterDatum(preset(name), mu, p))
    assert verify_strong_groebner(kz.groebner)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_sp4_central_mu_is_free(p):
    # K0 for Sp4 at mu = 0 is free of rank p^2, although its staircase has
    # cells whose least leading coefficient is p or a multiple of it.
    kz = compute_k0(CocharacterDatum(preset("Sp4"), (0, 0), p))
    report = kz.module_report
    assert (report.rank, report.torsion) == (p * p, ())
    for ell in sorted({2, 3, p}):
        assert mod_l_count_agrees(kz.groebner, report.rank, report.torsion, ell)
    # The torsion the cell-by-cell reading used to report is refuted.
    assert not mod_l_count_agrees(kz.groebner, report.rank, (p, p), p)


# The nine `levi` ladder cases: (group, mu, p), all at central mu.
LEVI_LADDER = [
    ("GL3", (0, 0, 0), 2),
    ("GL3", (0, 0, 0), 5),
    ("SL4", (0, 0, 0), 2),
    ("SL4", (0, 0, 0), 5),
    ("SL3", (0, 0), 5),
    ("Sp4", (0, 0), 3),
    ("Sp4", (0, 0), 5),
    ("Sp4", (0, 0), 7),
    ("GL2", (0, 0), 7),
]


@pytest.mark.parametrize("name,mu,p", [case[:3] for case in QUOTIENT_LADDER] + LEVI_LADDER)
def test_ladder_torsion_agrees_mod_l(name, mu, p):
    # The mod-l dimension count confirms the reported rank and torsion at
    # every prime where torsion could hide: each prime of a non-unit leading
    # coefficient of the basis and of a reported invariant factor.
    kz = compute_k0(CocharacterDatum(preset(name), mu, p))
    report = kz.module_report
    suspects = [c for _, c in kz.groebner.leading_terms() if c != 1] + list(report.torsion)
    for ell in sorted({q for d in suspects for q in _prime_factors(d)}):
        assert mod_l_count_agrees(kz.groebner, report.rank, report.torsion, ell), ell


# The six `checks` ladder cases: (group, mu, p), run with every check.
CHECKS_LADDER = [
    ("SL3", (1, 2), 3),
    ("SL3", (1, 2), 5),
    ("Sp4", (1, 0), 3),
    ("GL2", (1, 0), 3),
    ("A1xA1", (1, 0), 3),
    ("SL2", (1,), 5),
]


@pytest.mark.parametrize(
    "name,mu,p,checks",
    [(*case[:3], False) for case in QUOTIENT_LADDER]
    + [(*case, False) for case in LEVI_LADDER]
    + [(*case, True) for case in CHECKS_LADDER],
)
def test_packed_engine_matches_reference_on_ladder(monkeypatch, capsys, name, mu, p, checks):
    # Every completion and every membership read of a ladder job gives the
    # same basis and the same remainder as the reference engine on exponent
    # tuples, term for term.
    import zipk0.checks
    import zipk0.zipk
    from zipk0.cli import main

    real_groebner, real_normal_form = zipk0.zipk.strong_groebner, zipk0.checks.normal_form_gb
    compared = []

    def checked_groebner(gens, spec, max_degree):
        gens = list(gens)
        gb = real_groebner(gens, spec, max_degree=max_degree)
        assert gb == reference_strong_groebner(gens, spec, max_degree)
        compared.append(gb)
        return gb

    def checked_normal_form(f, gb):
        nf = real_normal_form(f, gb)
        assert nf == reference_normal_form_gb(f, gb)
        return nf

    # Every completion runs in zipk; every membership read runs in checks.
    monkeypatch.setattr(zipk0.zipk, "strong_groebner", checked_groebner)
    monkeypatch.setattr(zipk0.checks, "normal_form_gb", checked_normal_form)
    argv = ["k0", "--group", name, "--mu", ",".join(map(str, mu)), "--p", str(p)]
    if checks:
        argv += ["--checks", "kunneth,theta,hecke,steinberg"]
    assert main(argv) == 0
    capsys.readouterr()
    assert compared


# Each public elimination of the lattice layer, and its dense oracle on the
# same arguments, rows made dense.
LATTICE_ORACLES = {
    "hermite_row_basis": lambda vectors, ncols: dense_hermite_row_basis(densify(vectors, ncols), ncols),
    "kernel_basis": lambda rows, ncols: dense_kernel_basis(densify(rows, ncols), ncols),
    "solve_linear_diophantine":
        lambda rows, b, ncols: dense_solve_linear_diophantine(densify(rows, ncols), b, ncols),
}


@pytest.mark.parametrize(
    "name,mu,p,checks",
    [(*case[:3], False) for case in QUOTIENT_LADDER]
    + [(*case, False) for case in LEVI_LADDER]
    + [(*case, True) for case in CHECKS_LADDER],
)
def test_sparse_lattice_matches_dense_oracle_on_ladder(monkeypatch, capsys, name, mu, p, checks):
    # Every Hermite basis, kernel and solve of a ladder job equals the dense
    # elimination's, wherever the library calls it from.
    import sys

    from zipk0 import lattice
    from zipk0.cli import main

    seen = set()
    for fname, oracle in LATTICE_ORACLES.items():
        real = getattr(lattice, fname)

        def checked(*args, _real=real, _oracle=oracle, _name=fname):
            got = _real(*args)
            assert got == _oracle(*args), _name
            seen.add(_name)
            return got

        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] == "zipk0" and getattr(module, fname, None) is real:
                monkeypatch.setattr(module, fname, checked)
    argv = ["k0", "--group", name, "--mu", ",".join(map(str, mu)), "--p", str(p)]
    if checks:
        argv += ["--checks", "kunneth,theta,hecke,steinberg"]
    assert main(argv) == 0
    capsys.readouterr()
    assert "kernel_basis" in seen
    if checks:
        assert seen == set(LATTICE_ORACLES)


@pytest.mark.parametrize("rd", all_presets(), ids=lambda rd: rd.name)
def test_weyl_rows_match_element_builder(rd):
    # hecke_check's route 2 rows are those of GroupAlgebraElement arithmetic,
    # in the same order, so the Weyl-invariant kernels agree; on the smaller
    # boxes the dense elimination agrees too.
    weyl = weyl_enumerate(rd)
    for radius in range(4):
        box = window_box(rd.rank, radius)
        rows = _weyl_rows(weyl, box)
        old = weyl_rows_by_elements(weyl, rd.rank, box)
        assert densify(rows, len(box)) == [tuple(r) for r in old]
        kernel = kernel_basis(rows, len(box))
        assert kernel == kernel_basis(old, len(box))
        if len(box) <= 49:
            assert kernel == dense_kernel_basis(old, len(box))


# Split presets with a simply connected derived group: (semisimple rank s, |W|).
SPLIT_SHAPES = {
    "SL2": (1, 2), "SL3": (2, 6), "SL4": (3, 24), "GL2": (1, 2), "GL3": (2, 6),
    "Sp4": (2, 8), "A1xA1": (2, 4), "Gm": (0, 1), "Gm^2": (0, 1),
}


SWAP2 = ((0, 1), (1, 0))

# The twists the tests take, each on a preset: unitary GL2 and GL3
# (tau = -w0), SL3 and SL4 with the diagram swap, A1xA1 and Gm^2 with their
# factors swapped, and Gm inverted.
TWISTS = {
    "GL2.unitary": ("GL2", ((0, -1), (-1, 0))),
    "GL3.unitary": ("GL3", U3_TWIST),
    "SL3.swap": ("SL3", SWAP2),
    "SL4.swap": ("SL4", ((0, 0, 1), (0, 1, 0), (1, 0, 0))),
    "A1xA1.swap": ("A1xA1", SWAP2),
    "Gm^2.swap": ("Gm^2", SWAP2),
    "Gm.inverse": ("Gm", ((-1,),)),
}


def twisted(name, tau):
    """The preset `name` with twist tau (split when tau is None)."""
    rd0 = preset(name)
    return RootDatum(rd0.rank, rd0.roots, rd0.coroots, rd0.simple_indices, tau, name=name)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", sorted(SPLIT_SHAPES) + list(TWISTS))
def test_point_count_is_the_split_closed_form(name, p):
    # Sum over W of |det(p tau - w)| is p^s |det(p tau - 1 on the lineality
    # lattice)| |W| (README, "Why K0 is free"), which is |W| p^s (p - 1)^z when
    # split (Solomon), so the two counts the freeness tests compare with
    # check each other.
    if name in TWISTS:
        rd = twisted(*TWISTS[name])
        validate(rd)
    else:
        rd = preset(name)
        s, weyl_order = SPLIT_SHAPES[name]
        z = rd.rank - s
        assert closed_form_rank(rd, p, 1) == p**s * (p - 1) ** z * weyl_order
    assert closed_form_rank(rd, p, 1) == twisted_point_count(rd, p, 1)


def assert_free_of_counted_rank(datum):
    kz = compute_k0(datum)
    report = kz.module_report
    assert report.torsion == ()
    levi_weyl_order = len(kz.levi.weyl)
    assert report.rank == closed_form_rank(datum.rd, datum.p, levi_weyl_order)
    assert report.rank == twisted_point_count(datum.rd, datum.p, levi_weyl_order)
    return report.rank


def test_random_reports_are_free_of_the_counted_rank():
    # K0 is free of rank p^s |det(p tau - 1 on the lineality lattice)|
    # |W| / |W_L| = sum_w |det(p tau - w)| / |W_L| (README, "Why K0 is free")
    # at random mu in [-3, 3]^r and p <= 7, split or with one of the
    # preset's TWISTS; p <= 5 on SL4, and p <= 3 on twisted GL3 and SL4.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @hypothesis.given(st.data())
    def check(data):
        name = data.draw(st.sampled_from(sorted(SPLIT_SHAPES)))
        tau = data.draw(st.sampled_from([None] + [t for base, t in TWISTS.values() if base == name]))
        rd = twisted(name, tau)
        mu = data.draw(st.lists(st.integers(-3, 3), min_size=rd.rank, max_size=rd.rank))
        if tau is not None and name in ("GL3", "SL4"):
            primes = (2, 3)
        else:
            primes = (2, 3, 5) if name == "SL4" else (2, 3, 5, 7)
        p = data.draw(st.sampled_from(primes))
        assert_free_of_counted_rank(CocharacterDatum(rd, tuple(mu), p))

    check()


@pytest.mark.parametrize("name,tau,mu,p,rank", [
    ("GL3", U3_TWIST, (2, 1, 0), 2, 72),
    ("GL3", U3_TWIST, (2, 1, 0), 3, 216),
    ("GL3", U3_TWIST, (1, 0, 0), 2, None),
    ("GL2", ((0, -1), (-1, 0)), (1, 0), 3, None),
    ("SL3", SWAP2, (1, 1), 2, None),
    ("SL3", SWAP2, (0, 0), 3, None),
    ("SL4", ((0, 0, 1), (0, 1, 0), (1, 0, 0)), (1, 0, 1), 2, None),
    ("A1xA1", SWAP2, (1, 1), 3, None),
])
def test_twisted_reports_are_free_of_the_counted_rank(name, tau, mu, p, rank):
    # Unitary GL2 and GL3 (tau = -w0), SL3 and SL4 with the diagram swap, and
    # A1xA1 with its factors swapped.
    rd = twisted(name, tau)
    validate(rd)
    got = assert_free_of_counted_rank(CocharacterDatum(rd, mu, p))
    assert rank is None or got == rank


@pytest.mark.parametrize("name,tau,p", [
    *((name, None, p) for name in PRESET_NAMES if name != "PGL2" for p in (2, 3)),
    pytest.param("GL3", U3_TWIST, 2, id="unitary GL3-2"),
])
def test_torus_quotient_is_k0_at_the_coroot_sum(name, tau, p):
    # 2 rho^vee is regular, so its Levi is T and compute_k0 there is the
    # torus-side quotient R(T)/IR(T).  check_sections completes it for a job
    # at mu = 0, whose Levi is G (unless G is a torus), and takes the job's
    # own answer at 2 rho^vee: both give one torus rank and one theta section.
    rd = twisted(name, tau)
    regular, central = (CocharacterDatum(rd, mu, p) for mu in (rd.coroot_sum, (0,) * rd.rank))
    kz = compute_k0(regular)
    assert kz.levi.roots == ()
    on_t = check_sections(("kunneth", "theta"), regular, kz, DEFAULT_MAX_DEGREE, 0)
    on_g = check_sections(("kunneth", "theta"), central, compute_k0(central), DEFAULT_MAX_DEGREE, 0)
    assert on_t["theta"] == on_g["theta"]
    assert on_t["kunneth"]["torus_rank"] == on_g["kunneth"]["torus_rank"] == kz.module_report.rank
    assert on_t["kunneth"]["status"] == on_g["kunneth"]["status"] == "PASS"


@pytest.mark.parametrize("name,mu,p", [
    ("SL2", (1,), 3), ("GL2", (1, 0), 3), ("SL3", (1, 0), 2), ("SL3", (1, 2), 2),
    ("Sp4", (1, 1), 2), ("GL3", (1, 0, 0), 2),
])
def test_sympy_dimension_equals_rank(name, mu, p):
    # sympy completes the report's relations over QQ and over GF(p); a free
    # module has the same dimension in both, its rank.
    pytest.importorskip("sympy")
    kz = compute_k0(CocharacterDatum(preset(name), mu, p))
    relations = kz.syzygy_relations + kz.frobenius_relations
    nvars = kz.groebner.spec.nvars
    assert sympy_quotient_dimension(relations, nvars) == kz.module_report.rank
    assert sympy_quotient_dimension(relations, nvars, modulus=p) == kz.module_report.rank
