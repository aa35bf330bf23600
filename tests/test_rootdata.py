from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from zipk0.rootdata import (
    PRESET_NAMES,
    RootDatum,
    RootDatumError,
    SimplyConnectedHypothesisError,
    _canonical_preimage,
    fundamental_group,
    levi_from_cocharacter,
    make_root_datum,
    mat_mul,
    mat_vec,
    pairing,
    positive_root_indices,
    preset,
    reflection_matrix,
    validate,
    weights_dominant,
    weyl_enumerate,
    weyl_orbit,
)

from zipk0.lattice import solve_linear_diophantine

from oracles import (
    all_reduced_words,
    box_search_preimage,
    general_dominant_hilbert_basis,
    principal_minors_positive,
    reference_positive_root_indices,
    weyl_lengths,
)


ALL_PRESETS = ["SL2", "SL3", "SL4", "GL2", "GL3", "Sp4", "PGL2", "Gm", "Gm^2", "A1xA1"]


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_presets_validate(name):
    validate(preset(name))
    assert preset(name.lower()) == preset(name.upper()) == preset(name)


def test_preset_names_keep_their_order():
    # The order of the --help text and of every test that walks the presets.
    assert PRESET_NAMES == tuple(ALL_PRESETS)


def test_bad_pairing_rejected():
    with pytest.raises(RootDatumError) as exc:
        validate(make_root_datum(1, [(2,), (-2,)], [(2,), (-2,)], [(2,)]))
    assert exc.value.kind == "pairing-violation"


def test_reflection_must_permute_roots():
    # Drop the negative of one root from GL3's root set.
    rd = preset("GL3")
    broken = RootDatum(rd.rank, rd.roots[:-1], rd.coroots[:-1], rd.simple_indices)
    with pytest.raises(RootDatumError):
        validate(broken)


def test_nonfinite_cartan_rejected():
    # Simple system {alpha, -alpha} has Cartan matrix [[2,-2],[-2,2]]: affine, det 0.
    rd = RootDatum(
        2,
        ((1, -1), (-1, 1)),
        ((1, -1), (-1, 1)),
        (0, 1),
    )
    with pytest.raises(RootDatumError) as exc:
        validate(rd)
    assert "cartan" in exc.value.kind


@pytest.mark.parametrize(
    "name,order",
    [("SL2", 2), ("SL3", 6), ("SL4", 24), ("GL2", 2), ("GL3", 6), ("Sp4", 8), ("A1xA1", 4), ("Gm", 1)],
)
def test_weyl_orders(name, order):
    assert len(weyl_enumerate(preset(name))) == order


def test_weyl_closure_oracle_sp4():
    # Independent brute-force closure of the two simple reflection matrices.
    rd = preset("Sp4")
    g1 = reflection_matrix(rd.simple_roots[0], rd.simple_coroots[0])
    g2 = reflection_matrix(rd.simple_roots[1], rd.simple_coroots[1])
    closure = {g1, g2}
    while True:
        new = {mat_mul(a, b) for a in closure for b in closure} - closure
        if not new:
            break
        closure |= new
    assert len(closure) == 8
    assert set(weyl_enumerate(rd).elements) == closure


@pytest.mark.parametrize("name", ["SL3", "Sp4", "GL3"])
def test_lengths_match_words_and_roots_permuted(name):
    rd = preset(name)
    weyl = weyl_enumerate(rd)
    lengths = weyl_lengths(rd, weyl)
    for k, w in enumerate(weyl.elements):
        assert lengths[k] == len(weyl.reduced_words[k])
        assert {mat_vec(w, a) for a in rd.roots} == set(rd.roots)
    longest = max(range(len(weyl)), key=lambda k: len(weyl.reduced_words[k]))
    assert lengths[longest] == max(lengths)


def test_all_reduced_words_b2_longest():
    rd = preset("Sp4")
    weyl = weyl_enumerate(rd)
    lengths = [len(w) for w in weyl.reduced_words]
    words = all_reduced_words(weyl, lengths.index(max(lengths)), lengths)
    assert sorted(words) == [(0, 1, 0, 1), (1, 0, 1, 0)]


def test_fundamental_group_examples():
    assert fundamental_group(preset("SL2")) == [1]
    assert fundamental_group(preset("PGL2")) == [2]
    assert fundamental_group(preset("GL2")) == [1, 0]
    assert fundamental_group(preset("Gm")) == [0]


def test_simply_connected_gate():
    for name in ("SL3", "SL4", "Sp4", "GL2"):
        preset(name).weight_lift
    with pytest.raises(SimplyConnectedHypothesisError):
        preset("PGL2").weight_lift


@pytest.mark.parametrize("name", ["SL2", "SL3", "SL4", "GL2", "GL3", "Sp4", "A1xA1"])
def test_fundamental_weights_pairing(name):
    rd = preset(name)
    etas = rd.weight_lift[1]
    for i, eta in enumerate(etas):
        for j, cv in enumerate(rd.simple_coroots):
            val = sum(e * c for e, c in zip(eta, cv))
            assert val == (1 if i == j else 0)


def test_levi_sl2_generic_mu_is_torus():
    levi = levi_from_cocharacter(preset("SL2"), (1,))
    assert levi.roots == ()
    assert len(weyl_enumerate(levi)) == 1


def test_levi_gl3_block():
    rd, mu = preset("GL3"), (1, 1, 0)
    levi = levi_from_cocharacter(rd, mu)
    assert set(levi.roots) == {(1, -1, 0), (-1, 1, 0)}
    assert len(weyl_enumerate(levi)) == 2
    # The Levi lies in both parabolics P^- and P^+, as the report lists them.
    assert set(levi.roots) <= {a for a in rd.roots if pairing(a, mu) <= 0}
    assert set(levi.roots) <= {a for a in rd.roots if pairing(a, mu) >= 0}


def test_levi_sl3_alpha1():
    # mu pairing to zero with alpha1 and nonzero with alpha2.
    rd = preset("SL3")
    mu = (1, 2)
    assert pairing((2, -1), mu) == 0 and pairing((-1, 2), mu) != 0
    levi = levi_from_cocharacter(rd, mu)
    assert levi.simple_roots == ((2, -1),)
    assert len(weyl_enumerate(levi)) == 2


def test_levi_mu_zero_is_whole_group():
    # A cocharacter with which every root pairs to zero centralises G, so the
    # Levi is the datum itself, with its Weyl group, positive roots and lift.
    assert len(weyl_enumerate(levi_from_cocharacter(preset("SL3"), (0, 0)))) == 6
    for name in ALL_PRESETS:
        rd = preset(name)
        central = [mu for mu in itertools.product(range(-2, 3), repeat=rd.rank)
                   if all(pairing(a, mu) == 0 for a in rd.roots)]
        assert (0,) * rd.rank in central
        for mu in central:
            assert levi_from_cocharacter(rd, mu) is rd, (name, mu)


def test_levi_roots_weyl_stable():
    rd = preset("Sp4")
    for mu in [(0, 0), (1, 0), (1, 1), (2, 1)]:
        levi = levi_from_cocharacter(rd, mu)
        roots = set(levi.roots)
        for w in weyl_enumerate(levi).elements:
            assert {mat_vec(w, r) for r in roots} == roots


SC_PRESETS = [n for n in ALL_PRESETS if n != "PGL2"]


@pytest.mark.parametrize("name", SC_PRESETS)
def test_levi_is_the_root_datum_of_mu(name):
    # The Levi is a valid root datum: the roots orthogonal to mu, in their
    # order in rd, each with its coroot.
    rd = preset(name)
    for mu in itertools.product(range(-2, 3), repeat=rd.rank):
        levi = levi_from_cocharacter(rd, mu)
        validate(levi)
        kept = [i for i, a in enumerate(rd.roots) if pairing(a, mu) == 0]
        assert levi.roots == tuple(rd.roots[i] for i in kept), (name, mu)
        assert levi.coroots == tuple(rd.coroots[i] for i in kept), (name, mu)


@pytest.mark.parametrize("name", SC_PRESETS)
def test_levi_positive_roots_are_those_of_g(name):
    # B_L = B cap L: the Levi's positive roots are its roots that are
    # positive in G.
    rd = preset(name)
    positive = {rd.roots[i] for i in rd.positive_indices}
    for mu in itertools.product(range(-2, 3), repeat=rd.rank):
        levi = levi_from_cocharacter(rd, mu)
        got = {levi.roots[i] for i in levi.positive_indices}
        assert got == set(levi.roots) & positive, (name, mu)


@pytest.mark.parametrize("name", SC_PRESETS)
def test_levi_of_dominant_mu_is_standard(name):
    # For a G-dominant mu the Levi is standard: its simple roots are the
    # simple roots of G that pair to zero with mu.
    rd = preset(name)
    for mu in itertools.product(range(-2, 3), repeat=rd.rank):
        if all(pairing(a, mu) >= 0 for a in rd.simple_roots):
            levi = levi_from_cocharacter(rd, mu)
            assert set(levi.simple_roots) == {a for a in rd.simple_roots
                                              if pairing(a, mu) == 0}, (name, mu)


UNIMODULAR_2X2 = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (1, 0)),
                  ((2, 1), (1, 1)), ((1, -2), (0, -1))]


def _inverse_transpose_2x2(g):
    (a, b), (c, d) = g
    det = a * d - b * c
    assert det in (1, -1)
    return ((d * det, -c * det), (-b * det, a * det))


@pytest.mark.parametrize("name", ["SL3", "Sp4", "GL2", "A1xA1"])
@pytest.mark.parametrize("g", UNIMODULAR_2X2)
def test_levi_follows_a_change_of_coordinates(name, g):
    # Characters change by g, cocharacters by g^-T, so pairings are kept; the
    # Levi's simple roots must move by g, whatever basis X*(T) is written in.
    rd = preset(name)
    h = _inverse_transpose_2x2(g)
    moved = make_root_datum(rd.rank, [mat_vec(g, a) for a in rd.roots],
                            [mat_vec(h, av) for av in rd.coroots],
                            [mat_vec(g, a) for a in rd.simple_roots])
    for mu in itertools.product(range(-2, 3), repeat=rd.rank):
        levi = levi_from_cocharacter(rd, mu)
        got = levi_from_cocharacter(moved, mat_vec(h, mu)).simple_roots
        assert got == tuple(mat_vec(g, a) for a in levi.simple_roots), (name, g, mu)


@pytest.mark.parametrize("name", SC_PRESETS)
def test_levi_of_sc_datum_has_sc_derived_group(name):
    # Levi subgroups inherit the torsion-free fundamental group.
    rd = preset(name)
    rd.weight_lift
    for mu in itertools.product(range(-2, 3), repeat=rd.rank):
        levi = levi_from_cocharacter(rd, mu)
        assert all(d in (0, 1) for d in fundamental_group(levi)), (name, mu)


def test_hilbert_basis_sl2():
    assert list(preset("SL2").generator_weights) == [(1,)]


def test_hilbert_basis_gl2():
    assert sorted(preset("GL2").generator_weights) == sorted([(1, 0), (1, 1), (-1, -1)])


def test_hilbert_basis_levi_torus():
    rd = preset("GL2")
    levi = levi_from_cocharacter(rd, (1, 0))  # generic: L = T
    assert sorted(levi.generator_weights) == sorted([(1, 0), (-1, 0), (0, 1), (0, -1)])


def test_hilbert_basis_sl3():
    assert sorted(preset("SL3").generator_weights) == sorted([(1, 0), (0, 1)])


def group_and_levis(rd):
    """G itself and each distinct Levi of a cocharacter in [-2, 2]^rank."""
    levis = {}
    for mu in itertools.product(range(-2, 3), repeat=rd.rank):
        levi = levi_from_cocharacter(rd, mu)
        levis.setdefault(levi.simple_roots, levi)
    return [rd, *levis.values()]


@pytest.mark.parametrize("name", SC_PRESETS)
def test_hilbert_basis_matches_general_search(name):
    # The closed form (fundamental weights and +/- a lineality basis) equals
    # the extreme-ray and box search on G and on each of its Levis.
    rd = preset(name)
    for datum in group_and_levis(rd):
        assert list(datum.generator_weights) == general_dominant_hilbert_basis(datum)


def test_lift_rounds_to_the_nearest_multiple_with_ties_down():
    # On the row z = (den,), <v, z> / <z, z> = num / den for v = (num,), so the
    # lift subtracts q den, q the integer nearest to num / den.  Negative
    # numerators and exact halves (num / den = k + 1/2 for even den) occur.
    for den in range(1, 13):
        for num in range(-60, 61):
            q = math.ceil(Fraction(num, den) - Fraction(1, 2))
            assert _canonical_preimage((num,), [(den,)]) == (num - q * den,), (num, den)


def general_linear(n: int) -> RootDatum:
    """GL_n on Z^n as explicit data: roots e_i - e_j, each its own coroot."""
    roots = [tuple((k == i) - (k == j) for k in range(n))
             for i, j in itertools.permutations(range(n), 2)]
    simple = [tuple((k == i) - (k == i + 1) for k in range(n)) for i in range(n - 1)]
    return make_root_datum(n, roots, roots, simple)


def sl2_times_torus(rank: int) -> RootDatum:
    """SL2 x G_m^(rank-1): the root pair +-2e1 with coroots +-e1."""
    e1 = (1,) + (0,) * (rank - 1)
    return make_root_datum(rank, [tuple(2 * x for x in e1), tuple(-2 * x for x in e1)],
                           [e1, tuple(-x for x in e1)], [tuple(2 * x for x in e1)])


def test_rounded_lift_matches_the_box_search():
    # Each fundamental weight of each distinct Levi, G's own included, is the
    # one that the search over a box of 5^z points picks from the same solve.
    family = ([(preset(name), 3) for name in SC_PRESETS]
              + [(general_linear(4), 2), (general_linear(5), 1)]
              + [(sl2_times_torus(k + 1), 0) for k in range(1, 5)])
    count = 0
    for rd, radius in family:
        levis = {}
        for mu in itertools.product(range(-radius, radius + 1), repeat=rd.rank):
            levi = levi_from_cocharacter(rd, mu)
            levis.setdefault(levi.simple_roots, levi)
        for levi in levis.values():
            lin, etas = levi.weight_lift
            cosimples = levi.simple_coroots
            for k, eta in enumerate(etas):
                unit = [1 if j == k else 0 for j in range(len(cosimples))]
                x = solve_linear_diophantine(cosimples, unit, levi.rank)
                assert eta == box_search_preimage(x, lin), (rd, levi.simple_roots, k)
                count += 1
    assert count == 171


def test_hilbert_basis_matches_general_search_explicit_datum():
    # GL2 x Gm with a skewed root: the lineality lattice is not spanned by
    # coordinate vectors.
    rd = make_root_datum(3, [(1, -1, 1), (-1, 1, -1)], [(1, -1, 0), (-1, 1, 0)], [(1, -1, 1)])
    validate(rd)
    rd.weight_lift
    assert list(rd.generator_weights) == [(-1, -1, 0), (0, 0, -1), (0, 0, 1), (1, 0, 0), (1, 1, 0)]
    for datum in group_and_levis(rd):
        assert list(datum.generator_weights) == general_dominant_hilbert_basis(datum)


def test_hilbert_basis_rejects_pgl2():
    with pytest.raises(SimplyConnectedHypothesisError) as exc:
        preset("PGL2").generator_weights
    assert exc.value.torsion == [2]


@pytest.mark.parametrize("name", ["SL2", "SL3", "GL2", "GL3", "Sp4", "A1xA1", "Gm"])
def test_hilbert_basis_generates_box(name):
    # Every dominant lattice point in a test box is an N-combination of the basis.
    rd = preset(name)
    basis = rd.generator_weights
    cosimples = rd.simple_coroots
    box = 2
    points = {
        p
        for p in itertools.product(range(-box, box + 1), repeat=rd.rank)
        if weights_dominant(p, cosimples)
    }
    # Brute force: enumerate all combinations with coefficients 0..6.
    reachable = set()
    max_coeff = 6 if len(basis) <= 4 else 3
    for coeffs in itertools.product(range(max_coeff + 1), repeat=len(basis)):
        v = tuple(
            sum(c * g[i] for c, g in zip(coeffs, basis)) for i in range(rd.rank)
        )
        reachable.add(v)
    missing = points - reachable
    assert not missing, (name, sorted(missing))


def test_weyl_orbit_sl3_standard():
    rd = preset("SL3")
    weyl = weyl_enumerate(rd)
    orbit = weyl_orbit(weyl, (1, 0))
    assert sorted(orbit) == sorted([(1, 0), (-1, 1), (0, -1)])


def test_positive_roots():
    rd = preset("SL3")
    pos = positive_root_indices(rd)
    assert sorted(rd.roots[i] for i in pos) == sorted([(2, -1), (-1, 2), (1, 1)])
    assert rd.positive_indices == pos


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_positive_roots_match_reference(name):
    # Adding simple roots reaches the roots that one Diophantine solve each
    # finds nonnegative on the simple system, on G and every Levi.
    rd = preset(name)
    for mu in itertools.product(range(-3, 4), repeat=rd.rank):
        levi = levi_from_cocharacter(rd, mu)
        assert positive_root_indices(levi) == reference_positive_root_indices(levi), (name, mu)
    assert positive_root_indices(rd) == reference_positive_root_indices(rd)


def test_twist_validation_swap_a1xa1():
    rd = preset("A1xA1")
    tau = ((0, 1), (1, 0))
    twisted = RootDatum(rd.rank, rd.roots, rd.coroots, rd.simple_indices, tau)
    validate(twisted)
    bad = ((1, 1), (0, 1))  # unipotent, infinite order, does not permute simples
    with pytest.raises(RootDatumError) as exc:
        validate(RootDatum(rd.rank, rd.roots, rd.coroots, rd.simple_indices, bad))
    assert exc.value.kind == "twist-not-preserving-simple-roots"


# GL4 on Z^4, with the root e2 - e4 listed first.
_GL4_ROOTS = [(0, 1, 0, -1)] + [
    r for i, j in itertools.permutations(range(4), 2)
    if (r := tuple((k == i) - (k == j) for k in range(4))) != (0, 1, 0, -1)
]
_SL3 = preset("SL3")
_A1XA1 = preset("A1xA1")

# (id, datum, kind, text of the message): one datum for each validation
# branch, each passing every earlier check.  validate has no branch for an
# asymmetric zero pattern in the Cartan matrix: the earlier checks make
# (x, y) = sum over roots c of <x, c^vee><y, c^vee> invariant under each s_a,
# whence <b, a^vee>(a, a) = 2(b, a), so <b, a^vee> = 0 exactly when
# <a, b^vee> = 0.
INVALID_DATA = [
    ("vector of the wrong length",
     RootDatum(1, ((2,), (-2,)), ((1,), (-1, 0)), (0,)), "pairing-violation",
     "does not have rank 1"),
    ("duplicate roots", RootDatum(1, ((2,), (2,)), ((1,), (1,)), (0,)), "pairing-violation",
     "duplicate roots"),
    ("root pairing with its coroot to 4", RootDatum(1, ((2,), (-2,)), ((2,), (-2,)), (0,)),
     "pairing-violation", "<alpha, alpha^vee> = 4 != 2"),
    # Both reflections swap the two roots, but the coroot of -alpha is not -alpha^vee.
    ("coroot not equivariant", RootDatum(2, ((1, -1), (-1, 1)), ((1, -1), (0, 2)), (0,)),
     "reflection-not-permuting", "pairing"),
    ("duplicate simple root",
     RootDatum(_SL3.rank, _SL3.roots, _SL3.coroots, (0, 0)), "non-finite-type-cartan",
     "duplicate simple roots"),
    # alpha_1 and alpha_1 + alpha_2 pair to 1.
    ("positive off-diagonal Cartan entry",
     RootDatum(_SL3.rank, _SL3.roots, _SL3.coroots, (0, 2)), "non-finite-type-cartan",
     "off-diagonal Cartan entry 1 > 0"),
    # The simple system {alpha, -alpha}: Cartan matrix [[2, -2], [-2, 2]].
    ("Cartan matrix not of finite type", RootDatum(1, ((2,), (-2,)), ((1,), (-1,)), (0, 1)),
     "non-finite-type-cartan", "non-positive principal minor"),
    ("roots outside the simple orbit",
     RootDatum(_A1XA1.rank, _A1XA1.roots, _A1XA1.coroots, (0,)), "reflection-not-permuting",
     "Weyl orbit"),
    ("twist not unimodular",
     RootDatum(_A1XA1.rank, _A1XA1.roots, _A1XA1.coroots, _A1XA1.simple_indices,
               ((2, 0), (0, 1))), "twist-not-preserving-simple-roots", "not unimodular"),
    ("twist not permuting the simple roots",
     RootDatum(_A1XA1.rank, _A1XA1.roots, _A1XA1.coroots, _A1XA1.simple_indices,
               ((-1, 0), (0, 1))), "twist-not-preserving-simple-roots",
     "does not permute the simple roots"),
    # Swaps alpha_1 and alpha_2 and fixes alpha_3, which is no diagram
    # automorphism of A3: e2 - e4 = alpha_2 + alpha_3 goes to alpha_1 + alpha_3.
    ("twist sending a root outside the roots",
     make_root_datum(4, _GL4_ROOTS, _GL4_ROOTS, [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1)],
                     [(1, 1, 0, 0), (0, -1, 0, 0), (0, 1, 1, 0), (0, 0, 0, 1)]),
     "twist-not-preserving-simple-roots", "twist sends root (0, 1, 0, -1)"),
    ("twist not preserving the pairing",
     make_root_datum(2, [(1, -1), (-1, 1)], [(1, -1), (-1, 1)], [(1, -1)], [(1, 0), (-2, -1)]),
     "twist-not-preserving-simple-roots", "does not preserve the pairing"),
]


@pytest.mark.parametrize("rd,kind,text", [case[1:] for case in INVALID_DATA],
                         ids=[case[0] for case in INVALID_DATA])
def test_each_validation_branch_names_its_kind(rd, kind, text):
    with pytest.raises(RootDatumError) as exc:
        validate(rd)
    assert exc.value.kind == kind
    assert text in str(exc.value)


# Data that reach validate's finite-type test, with a simple system of
# affine type A1 or A2 among them.
_SIMPLE_SYSTEM_DATA = (
    [preset(name) for name in ALL_PRESETS]
    + [levi_from_cocharacter(preset(name), mu) for name in ALL_PRESETS
       for mu in itertools.product((-1, 0, 1), repeat=preset(name).rank)]
    + [RootDatum(1, ((2,), (-2,)), ((1,), (-1,)), (0, 1)),
       RootDatum(_SL3.rank, _SL3.roots, _SL3.coroots, (0, 1, 5))]
)


def test_one_determinant_decides_finite_type_as_the_principal_minors_do():
    rejected = 0
    for rd in _SIMPLE_SYSTEM_DATA:
        finite = principal_minors_positive(rd.cartan_matrix())
        try:
            validate(rd)
        except RootDatumError as exc:
            assert (exc.kind, finite) == ("non-finite-type-cartan", False), rd
            rejected += 1
        else:
            assert finite, rd
    assert rejected == 2


def test_weyl_size_cap(monkeypatch):
    from zipk0 import rootdata
    from zipk0.rootdata import WeylSizeCapError
    monkeypatch.setattr(rootdata, "WEYL_SIZE_CAP", 5)
    with pytest.raises(WeylSizeCapError):
        weyl_enumerate(preset("SL4"))
