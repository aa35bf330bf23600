from __future__ import annotations

import itertools
import random

import pytest

from zipk0 import checks
from zipk0.checks import steinberg_candidate_weights, steinberg_freeness_check
from zipk0.grpalg import frobenius, orbit_sum, weyl_act
from zipk0.invariants import (
    NotInvariantError,
    express_invariant,
)
from zipk0.rootdata import (
    PRESET_NAMES,
    SimplyConnectedHypothesisError,
    fundamental_group,
    levi_from_cocharacter,
    mat_vec,
    pairing,
    preset,
    weights_dominant,
    weyl_enumerate,
)
from zipk0.zipk import CocharacterDatum

from oracles import (
    GroupAlgebraElement,
    all_presets,
    expand_generator_polynomial,
    from_terms,
    reference_nonneg_combinations,
    monomial,
    one,
    restrict_to_levi,
    steinberg_spanning_by_solves,
    steinberg_weights_by_elements,
)


def x(k=1):
    return monomial(1, (k,))


def as_elements(rank, dicts):
    """The library's {character: int} dicts as a set of reference elements."""
    return {GroupAlgebraElement(rank, d) for d in dicts}


def test_invariant_ring_sl2():
    pres = preset("SL2")
    assert pres.generator_weights == ((1,),)
    assert pres.generator_elements == ((x(1) + x(-1)).terms,)


def test_invariant_ring_sl2_levi_torus():
    rd = preset("SL2")
    levi = levi_from_cocharacter(rd, (1,))
    assert sorted(levi.generator_weights) == [(-1,), (1,)]
    assert as_elements(1, levi.generator_elements) == {x(1), x(-1)}


def test_invariant_ring_gl2():
    pres = preset("GL2")
    expected = {
        from_terms(2, [((1, 0), 1), ((0, 1), 1)]),       # x1 + x2
        from_terms(2, [((1, 1), 1)]),                     # x1 x2
        from_terms(2, [((-1, -1), 1)]),                   # (x1 x2)^-1
    }
    assert as_elements(2, pres.generator_elements) == expected


@pytest.mark.parametrize("name", [n for n in PRESET_NAMES if n != "PGL2"])
def test_generators_are_orbit_sums(name):
    # Generator i is m_lambda for lambda = generator_weights[i]: coefficient 1
    # on exactly the closure of lambda under the simple reflections, with
    # |W| / |Stab_W(lambda)| terms, the stabiliser counted over weyl.elements.
    pres = preset(name)
    weyl = pres.weyl
    for lam, el in zip(pres.generator_weights, pres.generator_elements):
        orbit, frontier = {lam}, [lam]
        while frontier:
            v = frontier.pop()
            for s in weyl.generators:
                nu = mat_vec(s, v)
                if nu not in orbit:
                    orbit.add(nu)
                    frontier.append(nu)
        assert el == {nu: 1 for nu in orbit}
        stabiliser = sum(1 for w in weyl.elements if mat_vec(w, lam) == lam)
        assert len(weyl.elements) % stabiliser == 0
        assert len(el) == len(weyl.elements) // stabiliser


def test_express_invariant_square():
    rd = preset("SL2")
    f = from_terms(1, [((2,), 1), ((0,), 2), ((-2,), 1)])  # x^2 + 2 + x^-2
    poly = express_invariant(f.terms, rd)
    assert poly == {(2,): 1}
    assert expand_generator_polynomial(poly, rd) == f


def test_express_invariant_constant():
    pres = preset("SL2")
    assert express_invariant(one(1).terms, pres) == {(0,): 1}


def test_express_invariant_orbit_sum_two():
    # x^2 + 1 + x^-2 = g^2 - 1 where g = x + x^-1.
    pres = preset("SL2")
    f = from_terms(1, [((2,), 1), ((0,), 1), ((-2,), 1)])
    poly = express_invariant(f.terms, pres)
    assert poly == {(2,): 1, (0,): -1}
    assert expand_generator_polynomial(poly, pres) == f


def test_express_invariant_rejects_noninvariant():
    pres = preset("SL2")
    with pytest.raises(NotInvariantError):
        express_invariant(x(1).terms, pres)


@pytest.mark.parametrize("name,mu", [
    ("SL2", None), ("SL3", None), ("GL2", None), ("Sp4", None),
    ("SL3", (1, 2)), ("GL3", (1, 1, 0)), ("SL2", (1,)),
])
def test_express_invariant_roundtrip_random(name, mu):
    rd = preset(name)
    pres = levi_from_cocharacter(rd, mu) if mu is not None else rd
    weyl = pres.weyl
    rng = random.Random(f"{name}{mu}".__hash__() % 2**32)
    for _ in range(100):
        f = GroupAlgebraElement(rd.rank, {})
        for _ in range(rng.randint(1, 3)):
            lam = tuple(rng.randint(-2, 2) for _ in range(rd.rank))
            f = f + GroupAlgebraElement(rd.rank, orbit_sum(weyl, lam)) * rng.randint(-4, 4)
        poly = express_invariant(f.terms, pres)
        assert expand_generator_polynomial(poly, pres) == f


def test_restrict_to_levi_torus():
    rd = preset("SL2")
    levi = levi_from_cocharacter(rd, (1,))
    element, pieces = restrict_to_levi(rd, (1,), levi)
    assert element == x(1) + x(-1)
    assert pieces == [((-1,), 1), ((1,), 1)]


def test_restrict_to_levi_whole_group():
    rd = preset("SL3")
    levi = levi_from_cocharacter(rd, (0, 0))
    element, pieces = restrict_to_levi(rd, (1, 0), levi)
    assert pieces == [((1, 0), 3)]
    assert element.terms == orbit_sum(weyl_enumerate(rd), (1, 0))


def test_restrict_to_levi_gl3_standard():
    rd = preset("GL3")
    levi = levi_from_cocharacter(rd, (1, 1, 0))
    element, pieces = restrict_to_levi(rd, (1, 0, 0), levi)
    # The 3-element orbit splits into a 2-orbit and a fixed weight.
    assert sorted(size for _, size in pieces) == [1, 2]
    reps = {rep for rep, _ in pieces}
    assert (0, 0, 1) in reps
    assert len(element.terms) == 3


def test_restriction_partitions_orbit():
    rd = preset("Sp4")
    weyl = weyl_enumerate(rd)
    for mu in [(0, 0), (1, 0), (1, 1), (2, 1)]:
        levi = levi_from_cocharacter(rd, mu)
        for lam in [(1, 0), (1, 1), (2, 1)]:
            element, pieces = restrict_to_levi(rd, lam, levi, weyl)
            assert sum(size for _, size in pieces) == len(element.terms)


def test_frobenius_ideal_generators_sl2():
    rd = preset("SL2")
    for p in (2, 3, 5):
        gens = CocharacterDatum(rd, (1,), p).frobenius_gens
        assert len(gens) == 1
        expected = x(1) + x(-1) - x(p) - x(-p)
        assert gens[0] == expected.terms


def test_frobenius_ideal_generators_torus():
    rd = preset("Gm")
    gens = CocharacterDatum(rd, (0,), 3).frobenius_gens
    assert as_elements(1, gens) == {x(1) - x(3), x(-1) - x(-3)}


def test_frobenius_ideal_generators_gl2():
    rd = preset("GL2")
    gens = CocharacterDatum(rd, (0, 0), 2).frobenius_gens
    expected = {
        from_terms(2, [((1, 0), 1), ((0, 1), 1), ((2, 0), -1), ((0, 2), -1)]),
        from_terms(2, [((1, 1), 1), ((2, 2), -1)]),
        from_terms(2, [((-1, -1), 1), ((-2, -2), -1)]),
    }
    assert as_elements(2, gens) == expected


def test_frobenius_ideal_generators_are_levi_invariant():
    rd = preset("Sp4")
    for mu in [(0, 0), (1, 0), (2, 1)]:
        levi = levi_from_cocharacter(rd, mu)
        for g in CocharacterDatum(rd, mu, 3).frobenius_gens:
            for w in weyl_enumerate(levi).generators:
                assert weyl_act(w, g) == g


def test_frobenius_ideal_rejects_pgl2():
    rd = preset("PGL2")
    with pytest.raises(SimplyConnectedHypothesisError) as exc:
        CocharacterDatum(rd, (0,), 2).frobenius_gens
    assert exc.value.torsion == [2]


def test_leibniz_identity_random():
    # c d - phi(c d) = c (d - phi(d)) + phi(d) (c - phi(c)).
    rd = preset("SL3")
    weyl = weyl_enumerate(rd)
    rng = random.Random(99)

    def phi(f):
        return GroupAlgebraElement(rd.rank, frobenius(f.terms, 3))

    for _ in range(25):
        c, d = (GroupAlgebraElement(rd.rank, orbit_sum(weyl, (rng.randint(0, 2), rng.randint(0, 2))))
                * rng.randint(-3, 3) for _ in range(2))
        assert c * d - phi(c * d) == c * (d - phi(d)) + phi(d) * (c - phi(c))


def test_combination_matches_reference_solve():
    # Reading the counts off the weight lift gives the exponent that a
    # Diophantine solve per target gives, on every distinct Levi of every
    # simply connected preset and each dominant target in a box.  A target is
    # dominant for the Levi's positive roots, G's positive roots among its
    # roots, so the count depends on which positive system the Levi takes.
    targets = 0
    for name in PRESET_NAMES:
        rd = preset(name)
        if any(d > 1 for d in fundamental_group(rd)):
            continue
        seen = set()
        for mu in itertools.product((-1, 0, 1), repeat=rd.rank):
            levi = levi_from_cocharacter(rd, mu)
            if levi.roots in seen:
                continue
            seen.add(levi.roots)
            combination = levi.coordinates
            reference = reference_nonneg_combinations(levi)
            for target in itertools.product(range(-3, 4), repeat=rd.rank):
                if weights_dominant(target, levi.simple_coroots):
                    targets += 1
                    assert combination(target) == reference(target), (name, mu, target)
    assert targets == 3356


def test_integral_fundamental_weights():
    assert preset("SL2").weight_lift[1] == ((1,),)
    (eta,) = preset("GL2").weight_lift[1]
    assert pairing(eta, (1, -1)) == 1
    with pytest.raises(SimplyConnectedHypothesisError):
        preset("PGL2").weight_lift


def test_steinberg_candidates_distinct():
    for name in ("SL2", "SL3", "GL2", "Sp4"):
        rd = preset(name)
        cands = steinberg_candidate_weights(rd)
        assert len(set(cands)) == len(rd.weyl), name


def test_steinberg_check_sl2_explicit_basis(monkeypatch):
    # {1, e^1} spans the radius-4 box of 9 monomials, and the check's
    # determinant proves it independent.
    rd = preset("SL2")
    assert steinberg_spanning_by_solves(rd, [(0,), (1,)], rd.weyl, 4)
    monkeypatch.setattr(checks, "steinberg_candidate_weights", lambda rd: [(0,), (1,)])
    report = steinberg_freeness_check(rd)
    assert report["independent"] and report["spanning_ok"]


def test_steinberg_check_rejects_duplicates(monkeypatch):
    # Equal columns give a zero determinant, and spanning is then not claimed:
    # {1, 1} spans only R(SL2) itself, which misses e^1.
    rd = preset("SL2")
    assert not steinberg_spanning_by_solves(rd, [(0,), (0,)], rd.weyl, 1)
    monkeypatch.setattr(checks, "steinberg_candidate_weights", lambda rd: [(0,), (0,)])
    report = steinberg_freeness_check(rd)
    assert not report["independent"]
    assert not report["spanning_ok"]


def test_steinberg_check_sl3_recipe():
    rd = preset("SL3")
    report = steinberg_freeness_check(rd)
    assert report["candidates"] == [list(c) for c in steinberg_candidate_weights(rd)]
    assert report["independent"]
    assert report["spanning_ok"]
    assert "Steinberg" in report["note"]


@pytest.mark.parametrize("name", ["SL2", "GL2", "A1xA1", "SL3", "Sp4"])
def test_steinberg_spanning_matches_per_target_solves(name):
    # The theorem the check rests on, tested on the radius-1 box.
    rd = preset(name)
    report = steinberg_freeness_check(rd)
    assert report["independent"] and report["spanning_ok"]
    assert steinberg_spanning_by_solves(rd, steinberg_candidate_weights(rd), rd.weyl, 1)


def test_steinberg_check_independent_but_not_spanning(monkeypatch):
    # {1, e^2} is independent over R(SL2) but misses e^1: R(T) needs {1, e^1}.
    # Only the box oracle sees that these are not Steinberg's weights.
    rd = preset("SL2")
    assert not steinberg_spanning_by_solves(rd, [(0,), (2,)], rd.weyl, 1)
    monkeypatch.setattr(checks, "steinberg_candidate_weights", lambda rd: [(0,), (2,)])
    assert steinberg_freeness_check(rd)["independent"]


@pytest.mark.parametrize("rd", all_presets(), ids=lambda rd: rd.name)
def test_steinberg_weights_match_element_builder(rd):
    # One lambda_w per Weyl element, in the same order, whether w^{-1} and its
    # descents come from reduced words or from the group's matrices; without
    # a simply connected derived group both refuse, and so does the check.
    try:
        rd.weight_lift
    except SimplyConnectedHypothesisError:
        for build in (steinberg_candidate_weights, steinberg_weights_by_elements,
                      steinberg_freeness_check):
            with pytest.raises(SimplyConnectedHypothesisError):
                build(rd)
        return
    assert steinberg_candidate_weights(rd) == steinberg_weights_by_elements(rd)
