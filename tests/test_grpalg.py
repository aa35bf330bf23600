from __future__ import annotations

import random
from fractions import Fraction

import pytest

from zipk0.checks import _hecke_rows, window_box
from zipk0.grpalg import frobenius, multiply, subtract, weyl_act
from zipk0.lattice import hermite_row_basis, kernel_basis
from zipk0.rootdata import (
    identity_matrix,
    orbit_sum,
    pairing,
    positive_root_indices,
    preset,
    reflection_matrix,
    weyl_enumerate,
)

from oracles import (
    GroupAlgebraElement,
    all_presets,
    all_reduced_words,
    demazure,
    demazure_by_division,
    demazure_character,
    demazure_word,
    dense_kernel_basis,
    densify,
    from_terms,
    hecke_invariants_window,
    hecke_rows_by_elements,
    monomial,
    one,
    reference_frobenius,
    reference_orbit_sum,
    reference_weyl_act,
    reflection_rows_by_elements,
    weyl_lengths,
)


def sl2_x(k=1):
    return monomial(1, (k,))


def random_element(rng, rank, radius=3, nterms=4, cmax=5):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(-radius, radius) for _ in range(rank))
        terms[e] = rng.randint(-cmax, cmax)
    return GroupAlgebraElement(rank, terms)


def delta_oracle(rd, i, f):
    """Independent Demazure oracle: geometric-series expansion per monomial."""
    idx = rd.simple_indices[i]
    alpha = rd.roots[idx]
    coroot = rd.coroots[idx]
    out = GroupAlgebraElement(rd.rank, {})
    for e, c in f.terms.items():
        m = pairing(e, coroot)
        if m >= 0:
            for j in range(m + 1):
                out = out + monomial(rd.rank, tuple(a - j * b for a, b in zip(e, alpha))) * c
        elif m == -1:
            pass
        else:
            for j in range(1, -m):
                out = out - monomial(rd.rank, tuple(a + j * b for a, b in zip(e, alpha))) * c
    return out


# -- ring arithmetic on {character: int} dicts --------------------------------


def test_unit_cancellation():
    assert multiply(sl2_x(1).terms, sl2_x(-1).terms) == one(1).terms


def test_square_expansion():
    f = (sl2_x(1) + sl2_x(-1)).terms
    assert multiply(f, f) == from_terms(1, [((2,), 1), ((0,), 2), ((-2,), 1)]).terms


def test_difference_of_squares():
    f = (sl2_x(1) + sl2_x(-1)).terms
    g = (sl2_x(1) - sl2_x(-1)).terms
    assert multiply(f, g) == from_terms(1, [((2,), 1), ((-2,), -1)]).terms


def test_no_zero_terms_stored():
    x = sl2_x(1).terms
    assert subtract(x, x) == {}
    assert multiply(x, subtract(x, x)) == {}


def random_pairs(rng, rank, count):
    """Seeded pairs of reference elements.  Every third pair is (f + h, f - h),
    whose product's cross terms cancel to zero coefficients, and every tenth
    is (f, f), whose difference cancels entirely."""
    pairs = []
    for k in range(count):
        f = random_element(rng, rank, radius=2, cmax=3)
        h = random_element(rng, rank, radius=2, cmax=3)
        if k % 10 == 0:
            pairs.append((f, f))
        elif k % 3 == 0:
            pairs.append((f + h, f - h))
        else:
            pairs.append((f, h))
    return pairs


def naive_product_coefficients(f, g):
    """Every coefficient of f*g before zeros are dropped."""
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_multiply_and_subtract_match_reference(rank):
    # The library's dict arithmetic against the reference class: the same
    # terms, no zero coefficient kept, and the arguments left as they were.
    rng = random.Random(2026 + rank)
    cancelled = 0
    for f, g in random_pairs(rng, rank, 200):
        fd, gd = dict(f.terms), dict(g.terms)
        assert multiply(fd, gd) == (f * g).terms
        assert subtract(fd, gd) == (f - g).terms
        assert (fd, gd) == (f.terms, g.terms)
        cancelled += 0 in naive_product_coefficients(f, g).values()
    assert cancelled >= 40  # the sample exercises products that cancel
    f = from_terms(rank, [((1,) * rank, 1), ((0,) * rank, 1)])
    g = from_terms(rank, [((1,) * rank, 1), ((0,) * rank, -1)])
    assert multiply(f.terms, g.terms) == from_terms(rank, [((2,) * rank, 1), ((0,) * rank, -1)]).terms
    assert multiply(f.terms, subtract(g.terms, g.terms)) == {}


@pytest.mark.parametrize("rd", all_presets(), ids=lambda rd: rd.name)
def test_group_actions_match_reference(rd):
    # weyl_act over the whole group, orbit sums, and the Frobenius split and
    # (on A1xA1.swap) twisted, against the reference class on seeded elements.
    weyl = weyl_enumerate(rd)
    rng = random.Random(rd.name)
    for _ in range(10):
        f = random_element(rng, rd.rank, radius=2)
        fd = dict(f.terms)
        lam = tuple(rng.randint(-2, 2) for _ in range(rd.rank))
        assert orbit_sum(weyl, lam) == reference_orbit_sum(weyl, lam).terms
        for w in weyl.elements:
            assert weyl_act(w, fd) == reference_weyl_act(w, f).terms
        for p in (2, 3):
            assert frobenius(fd, p) == reference_frobenius(f, p, None).terms
            assert frobenius(fd, p, rd.twist) == reference_frobenius(f, p, rd.twist).terms
        assert fd == f.terms


@pytest.mark.parametrize("twist", [((0, 1), (1, 0)), ((0, 0, -1), (0, -1, 0), (-1, 0, 0))],
                         ids=["swap", "unitary"])
def test_twisted_frobenius_matches_reference(twist):
    rank = len(twist)
    rng = random.Random(rank)
    for _ in range(50):
        f = random_element(rng, rank)
        for p in (2, 3, 5):
            assert frobenius(f.terms, p, twist) == reference_frobenius(f, p, twist).terms


# -- Weyl action and orbit sums ----------------------------------------------


def test_weyl_act_sl2():
    rd = preset("SL2")
    s = reflection_matrix(rd.roots[0], rd.coroots[0])
    assert weyl_act(s, sl2_x(1).terms) == sl2_x(-1).terms
    f = (sl2_x(1) + sl2_x(-1)).terms
    assert weyl_act(s, f) == f


def test_weyl_act_identity():
    rd = preset("SL3")
    weyl = weyl_enumerate(rd)
    ident = weyl.elements[weyl.elements.index(identity_matrix(2))]
    f = from_terms(2, [((1, 2), 3), ((0, -1), -2)]).terms
    assert weyl_act(ident, f) == f


def test_orbit_sums():
    rd = preset("SL2")
    weyl = weyl_enumerate(rd)
    assert orbit_sum(weyl, (1,)) == (sl2_x(1) + sl2_x(-1)).terms
    assert orbit_sum(weyl, (0,)) == one(1).terms
    rd3 = preset("SL3")
    w3 = weyl_enumerate(rd3)
    m = orbit_sum(w3, (1, 0))
    assert m == from_terms(2, [((1, 0), 1), ((-1, 1), 1), ((0, -1), 1)]).terms


def test_frobenius():
    assert frobenius(sl2_x(1).terms, 3) == sl2_x(3).terms
    assert frobenius(one(1).terms, 5) == one(1).terms
    f = (sl2_x(1) + sl2_x(-1)).terms
    assert frobenius(f, 2) == (sl2_x(2) + sl2_x(-2)).terms


def test_frobenius_is_ring_map():
    rng = random.Random(11)
    for _ in range(20):
        f = random_element(rng, 2).terms
        g = random_element(rng, 2).terms
        assert frobenius(multiply(f, g), 3) == multiply(frobenius(f, 3), frobenius(g, 3))


def test_frobenius_twist():
    tau = ((0, 1), (1, 0))
    f = monomial(2, (1, 0)).terms
    assert frobenius(f, 2, tau) == monomial(2, (0, 2)).terms


def test_weyl_and_frobenius_commute_untwisted():
    rd = preset("Sp4")
    weyl = weyl_enumerate(rd)
    rng = random.Random(5)
    for _ in range(10):
        f = random_element(rng, 2).terms
        for w in weyl.elements:
            assert weyl_act(w, frobenius(f, 3)) == frobenius(weyl_act(w, f), 3)


# -- Demazure operators ------------------------------------------------------


def test_demazure_of_one():
    rd = preset("SL2")
    assert demazure(rd, 0, one(1)) == one(1)


def test_demazure_sl2_xsquared():
    rd = preset("SL2")
    assert demazure(rd, 0, sl2_x(2)) == from_terms(1, [((2,), 1), ((0,), 1), ((-2,), 1)])


def test_demazure_of_e_minus_alpha():
    # Direct expansion: (e^{-a} - e^{-a}e^{a})/(1 - e^{-a}) = -1.
    rd = preset("SL2")
    e_minus_alpha = sl2_x(-2)
    result = demazure(rd, 0, e_minus_alpha)
    assert result == delta_oracle(rd, 0, e_minus_alpha)
    assert result == -one(1)


@pytest.mark.parametrize("name", ["SL2", "SL3", "Sp4"])
def test_demazure_matches_geometric_series_oracle(name):
    rd = preset(name)
    rng = random.Random(hash(name) % 10**6)
    for _ in range(50):
        f = random_element(rng, rd.rank)
        for i in range(len(rd.simple_indices)):
            assert demazure(rd, i, f) == delta_oracle(rd, i, f)


@pytest.mark.parametrize(
    "name", ["SL2", "SL3", "SL4", "GL2", "GL3", "Sp4", "PGL2", "Gm", "Gm^2", "A1xA1"]
)
def test_demazure_closed_form_matches_division(name):
    # The closed form against pseudo-division by 1 - e^{-alpha}, for every
    # simple root and every lambda in [-3, 3]^rank.
    rd = preset(name)
    for i in range(len(rd.simple_indices)):
        for lam in window_box(rd.rank, 3):
            f = monomial(rd.rank, lam)
            assert demazure(rd, i, f) == demazure_by_division(rd, i, f), (i, lam)


@pytest.mark.parametrize("name", ["SL2", "SL3"])
def test_demazure_idempotent(name):
    rd = preset(name)
    rng = random.Random(len(name))
    for _ in range(200):
        f = random_element(rng, rd.rank, nterms=3)
        for i in range(len(rd.simple_indices)):
            d = demazure(rd, i, f)
            assert demazure(rd, i, d) == d


@pytest.mark.parametrize("name", ["SL2", "SL3", "Sp4"])
def test_demazure_linear_over_reflection_invariants(name):
    rd = preset(name)
    rng = random.Random(17)
    for _ in range(30):
        f = random_element(rng, rd.rank, nterms=3)
        for i in range(len(rd.simple_indices)):
            idx = rd.simple_indices[i]
            s = reflection_matrix(rd.roots[idx], rd.coroots[idx])
            g0 = random_element(rng, rd.rank, radius=2, nterms=2)
            g = g0 + reference_weyl_act(s, g0)  # s-invariant by construction
            assert demazure(rd, i, f * g) == demazure(rd, i, f) * g


def test_demazure_word_empty():
    rd = preset("SL3")
    f = from_terms(2, [((1, 1), 2)])
    assert demazure_word(rd, (), f) == f


def test_demazure_word_rejects_nonreduced():
    rd = preset("SL2")
    with pytest.raises(ValueError):
        demazure_word(rd, (0, 0), one(1))


@pytest.mark.parametrize("name,nrand", [("SL3", 100), ("Sp4", 100)])
def test_demazure_word_independence(name, nrand):
    # All pairs of reduced words of all Weyl elements agree (A2 and B2).
    rd = preset(name)
    weyl = weyl_enumerate(rd)
    lengths = weyl_lengths(rd, weyl)
    rng = random.Random(23)
    pool = [random_element(rng, rd.rank, nterms=3) for _ in range(nrand)]
    checked = 0
    for k in range(len(weyl)):
        words = all_reduced_words(weyl, k, lengths)
        if len(words) < 2:
            continue
        for f in pool[: max(4, nrand // len(weyl))]:
            results = {hash(demazure_word(rd, w, f)) for w in words}
            first = demazure_word(rd, words[0], f)
            assert all(demazure_word(rd, w, f) == first for w in words[1:])
            checked += 1
    assert checked > 0


# -- Demazure characters -----------------------------------------------------


def weyl_dimension(rd, weight):
    """Weyl dimension formula via exact rational arithmetic."""
    pos = positive_root_indices(rd)
    pos_coroots = [rd.coroots[i] for i in pos]
    pos_roots = [rd.roots[i] for i in pos]
    rho = tuple(Fraction(sum(r[i] for r in pos_roots), 2) for i in range(rd.rank))
    dim = Fraction(1)
    for cv in pos_coroots:
        num = sum((Fraction(w) + r) * c for w, r, c in zip(weight, rho, cv))
        den = sum(r * c for r, c in zip(rho, cv))
        dim *= num / den
    assert dim.denominator == 1
    return dim.numerator


def test_demazure_character_trivial():
    rd = preset("SL3")
    assert demazure_character(rd, (0, 0)) == one(2)


def test_demazure_character_sl2_adjointish():
    rd = preset("SL2")
    ch = demazure_character(rd, (2,))
    assert ch == from_terms(1, [((2,), 1), ((0,), 1), ((-2,), 1)])
    assert sum(ch.terms.values()) == 3 == weyl_dimension(rd, (2,))


def test_demazure_character_sl3_minuscule():
    rd = preset("SL3")
    weyl = weyl_enumerate(rd)
    ch = demazure_character(rd, (1, 0))
    assert ch.terms == orbit_sum(weyl, (1, 0))
    assert sum(ch.terms.values()) == 3


def test_demazure_character_rejects_nondominant():
    rd = preset("SL3")
    with pytest.raises(ValueError):
        demazure_character(rd, (-1, 0))


def test_demazure_character_dimensions_sl3():
    # Ten dominant weights: evaluation at 1 equals the Weyl dimension formula.
    rd = preset("SL3")
    weights = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (3, 0), (2, 2)]
    assert len(weights) == 10
    for lam in weights:
        ch = demazure_character(rd, lam)
        assert sum(ch.terms.values()) == weyl_dimension(rd, lam), lam


def test_demazure_character_invariant_under_weyl():
    rd = preset("Sp4")
    weyl = weyl_enumerate(rd)
    ch = demazure_character(rd, (1, 1), weyl)
    for w in weyl.elements:
        assert weyl_act(w, ch.terms) == ch.terms


# -- Windowed Hecke invariants -------------------------------------------------


def test_hecke_window_sl2():
    rd = preset("SL2")
    weyl = weyl_enumerate(rd)
    box = window_box(1, 3)
    basis = hecke_invariants_window(rd, box)
    assert len(basis) == 4
    # The span equals the span of the orbit sums m_0..m_3 (equivalently the
    # irreducible characters chi_0..chi_3) inside the window.
    idx = {e: i for i, e in enumerate(box)}

    def coeff_row(f):
        row = [0] * len(box)
        for e, c in f.items():
            row[idx[e]] = c
        return tuple(row)

    span_a = hermite_row_basis([coeff_row(f.terms) for f in basis], len(box))
    span_b = hermite_row_basis(
        [coeff_row(orbit_sum(weyl, (k,))) for k in range(4)], len(box)
    )
    span_c = hermite_row_basis(
        [coeff_row(demazure_character(rd, (k,)).terms) for k in range(4)], len(box)
    )
    assert span_a == span_b == span_c


def test_hecke_window_trivial():
    rd = preset("SL2")
    basis = hecke_invariants_window(rd, window_box(rd.rank, 0))
    assert len(basis) == 1
    assert basis[0] == one(1)


def test_hecke_window_sl3():
    rd = preset("SL3")
    weyl = weyl_enumerate(rd)
    box = window_box(2, 2)
    basis = hecke_invariants_window(rd, box)
    idx = {e: i for i, e in enumerate(box)}

    def coeff_row(f):
        row = [0] * len(box)
        for e, c in f.items():
            row[idx[e]] = c
        return tuple(row)

    # Dominant weights whose orbit stays inside the window.
    dominant = [
        lam
        for lam in box
        if all(pairing(lam, cv) >= 0 for cv in rd.simple_coroots)
        and all(max(abs(x) for x in nu) <= 2 for nu in orbit_sum(weyl, lam))
    ]
    span_orbit = hermite_row_basis([coeff_row(orbit_sum(weyl, lam)) for lam in dominant], len(box))
    span_hecke = hermite_row_basis([coeff_row(f.terms) for f in basis], len(box))
    assert span_orbit == span_hecke
    assert len(basis) == 6


def test_orbit_sum_weyl_invariant():
    for name in ("SL3", "Sp4", "GL3"):
        rd = preset(name)
        weyl = weyl_enumerate(rd)
        rng = random.Random(3)
        for _ in range(10):
            lam = tuple(rng.randint(-2, 2) for _ in range(rd.rank))
            m = orbit_sum(weyl, lam)
            for w in weyl.elements:
                assert weyl_act(w, m) == m


def test_orbit_sum_product_dominance_triangular():
    # Brute-force expansion: the coefficient of lambda + mu in m_lambda * m_mu
    # is exactly 1 for dominant lambda, mu, and every other dominant exponent
    # is lower in the positive-coroot height.
    for name in ("SL2", "SL3", "Sp4"):
        rd = preset(name)
        weyl = weyl_enumerate(rd)
        pos = positive_root_indices(rd)
        height = tuple(
            sum(rd.coroots[i][j] for i in pos) for j in range(rd.rank)
        )
        rng = random.Random(7)
        doms = []
        for _ in range(40):
            lam = tuple(rng.randint(0, 3) for _ in range(rd.rank))
            if all(pairing(lam, cv) >= 0 for cv in rd.simple_coroots):
                doms.append(lam)
        for i in range(0, len(doms) - 1, 2):
            lam, mu = doms[i], doms[i + 1]
            prod = multiply(orbit_sum(weyl, lam), orbit_sum(weyl, mu))
            top = tuple(a + b for a, b in zip(lam, mu))
            assert prod.get(top) == 1
            h_top = pairing(top, height)
            for e in prod:
                if e != top and all(pairing(e, cv) >= 0 for cv in rd.simple_coroots):
                    assert pairing(e, height) < h_top


@pytest.mark.parametrize("rd", all_presets(), ids=lambda rd: rd.name)
def test_hecke_rows_match_element_builder(rd):
    # The exponent-level rows are the rows that the reference element arithmetic
    # gives, in the same order, so the Hecke kernels agree; on the smaller
    # boxes the dense elimination agrees too.
    for radius in range(4):
        box = window_box(rd.rank, radius)
        rows = _hecke_rows(rd, box)
        old = hecke_rows_by_elements(rd, box)
        assert densify(rows, len(box)) == [tuple(r) for r in old]
        kernel = kernel_basis(rows, len(box))
        assert kernel == kernel_basis(old, len(box))
        if len(box) <= 49:
            assert kernel == dense_kernel_basis(old, len(box))


@pytest.mark.parametrize("rd", all_presets(), ids=lambda rd: rd.name)
def test_hecke_kernel_is_unchanged_by_reflection_rows(rd):
    # (delta_alpha - 1) f = e^{-alpha} (f - s_alpha f) / (1 - e^{-alpha}) and
    # 1 - e^{-alpha} is not a zero-divisor, so the Demazure conditions already
    # hold f = s_alpha f and the (s_alpha - 1) rows add nothing.
    for radius in range(4):
        box = window_box(rd.rank, radius)
        rows = _hecke_rows(rd, box)
        with_reflections = rows + reflection_rows_by_elements(rd, box)
        assert kernel_basis(with_reflections, len(box)) == kernel_basis(rows, len(box))
