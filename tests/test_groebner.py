from __future__ import annotations

import random

import pytest

from zipk0 import groebner
from zipk0.caps import ResourceCapError
from zipk0.cli import main
from zipk0.groebner import (
    PolyRingSpec,
    _interreduce,
    _leading,
    _Packing,
    _reduce,
    _reducer_table,
    _update,
    normal_form_gb,
    poly_to_string,
    quotient_z_module,
    strong_groebner,
)
from zipk0.zipk import unit_relations

from oracles import (
    BlockRingSpec,
    IntegerMatrix,
    _monomial_divides,
    _monomial_sub,
    _sub_scaled_shifted,
    diagonal_of,
    eliminate,
    ideal_member,
    interreduce_per_element,
    invariant_factors,
    mod_l_count_agrees,
    normal_form,
    reference_interreduce,
    reference_normal_form_gb,
    reference_strong_groebner,
    smith_normal_form,
    verify_strong_groebner,
)


def test_coefficient_gcd_combination():
    # (2x, 3x) contains x = 3x - 2x.
    spec = PolyRingSpec(("x",))
    gb = strong_groebner([{(1,): 2}, {(1,): 3}], spec)
    assert gb.to_strings() == ["x"]


def test_unit_ideal_quotient_is_zero():
    # 2x - 1 and x together contain 1.
    spec = PolyRingSpec(("x",))
    gb = strong_groebner([{(1,): 2, (0,): -1}, {(1,): 1}], spec)
    assert gb.to_strings() == ["1"]
    report = quotient_z_module(gb)
    assert (report.rank, report.torsion, report.standard_monomials) == (0, (), ())
    assert poly_to_string({}, spec) == "0"


def test_laurent_pair_rank_two():
    # (x^2 - 1, x*xbar - 1): normal forms {1, x} span; rank 2, no torsion.
    spec = PolyRingSpec(("xbar", "x"))
    gb = strong_groebner([{(0, 2): 1, (0, 0): -1}] + unit_relations([(0, 1)], 2), spec)
    assert verify_strong_groebner(gb)
    report = quotient_z_module(gb)
    assert report.rank == 2
    assert report.torsion == ()
    assert set(report.standard_monomials) == {(0, 0), (0, 1)}


def test_laurent_frobenius_difference_rank_six():
    # x + x^-1 - x^3 - x^-3 with unit relation: rank 2p = 6 for p = 3.
    spec = PolyRingSpec(("xbar", "x"))
    f = {(0, 1): 1, (1, 0): 1, (0, 3): -1, (3, 0): -1}
    gb = strong_groebner([f] + unit_relations([(0, 1)], 2), spec)
    assert verify_strong_groebner(gb)
    report = quotient_z_module(gb)
    assert report.rank == 6 and report.torsion == ()


def test_normal_form_membership_and_units():
    spec = PolyRingSpec(("x",))
    g = {(2,): 1, (0,): -5}
    gb = strong_groebner([g], spec)
    assert normal_form_gb(g, gb) == {}
    assert ideal_member({(4,): 1, (2,): -5, (0,): 0}, gb) is True  # x^4 - 5x^2 = x^2 g: member
    assert ideal_member({(4,): 1, (2,): -5}, gb)
    # 2 does not reduce 1 over Z.
    gb2 = strong_groebner([{(0,): 2}], spec)
    assert normal_form_gb({(0,): 1}, gb2) == {(0,): 1}


def test_normal_form_of_generator_is_zero():
    spec = PolyRingSpec(("x", "y"))
    g = {(2, 0): 3, (0, 1): -2, (0, 0): 7}
    gb = strong_groebner([g], spec)
    assert normal_form_gb(g, gb) == {}


def test_eliminate_substitution():
    # (y - x^2, x - t), eliminate x: get y - t^2.
    spec = BlockRingSpec(("x", "y", "t"), ((0,), (1, 2)))
    gb = reference_strong_groebner(
        [{(0, 1, 0): 1, (2, 0, 0): -1}, {(1, 0, 0): 1, (0, 0, 1): -1}], spec
    )
    egb = eliminate(gb, (0,))
    assert egb.spec.names == ("y", "t")
    polys = egb.as_dicts()
    assert len(polys) == 1
    assert polys[0] == {(1, 0): 1, (0, 2): -1} or polys[0] == {(0, 2): 1, (1, 0): -1}


def test_eliminate_gl2_graph_ideal():
    # Graph of the GL2 invariant generators: only relation is y2*y3 = 1.
    # Variables: x1bar, x1, x2bar, x2 | y1, y2, y3.
    names = ("x1bar", "x1", "x2bar", "x2", "y1", "y2", "y3")
    spec = BlockRingSpec(names, ((0, 1, 2, 3), (4, 5, 6)))

    def mono(**kw):
        e = [0] * 7
        for k, v in kw.items():
            e[names.index(k)] = v
        return tuple(e)

    gens = [
        {mono(y1=1): 1, mono(x1=1): -1, mono(x2=1): -1},            # y1 - (x1+x2)
        {mono(y2=1): 1, mono(x1=1, x2=1): -1},                       # y2 - x1 x2
        {mono(y3=1, x1=1, x2=1): 1, mono(): -1},                     # y3 x1 x2 - 1
    ]
    gb = reference_strong_groebner(gens + unit_relations([(0, 1), (2, 3)], 7), spec)
    egb = eliminate(gb, (0, 1, 2, 3))
    assert egb.spec.names == ("y1", "y2", "y3")
    assert [poly_to_string(g, egb.spec) for g in egb.as_dicts()] == ["y2*y3 - 1"]


def test_eliminate_sl2_graph_no_relation():
    # R(G) for SL2 is a free polynomial ring: no relation among y.
    names = ("xbar", "x", "y")
    spec = BlockRingSpec(names, ((0, 1), (2,)))
    gens = [{(0, 0, 1): 1, (0, 1, 0): -1, (1, 0, 0): -1}]  # y - (x + xbar)
    gb = reference_strong_groebner(gens + unit_relations([(0, 1)], 3), spec)
    egb = eliminate(gb, (0, 1))
    assert egb.as_dicts() == []


def test_quotient_frobenius_rewriting_rank():
    # (x - x^p, xbar - xbar^p, x*xbar - 1) for p = 3: exponents collapse
    # mod p - 1 = 2 with x invertible: free of rank 2.
    spec = PolyRingSpec(("xbar", "x"))
    p = 3
    gens = [
        {(0, 1): 1, (0, p): -1},
        {(1, 0): 1, (p, 0): -1},
    ]
    gb = strong_groebner(gens + unit_relations([(0, 1)], 2), spec)
    rep = quotient_z_module(gb)
    assert rep.rank == 2 and rep.torsion == ()


def test_quotient_not_module_finite():
    # Ideal (2) in Z[x]: every power of x is a cell, so the quotient is not
    # module-finite, which K0 never is; the report refuses it rather than
    # truncate.
    spec = PolyRingSpec(("x",))
    gb = strong_groebner([{(0,): 2}], spec)
    with pytest.raises(RuntimeError, match=r"pure power of x: .*Why K0 is free"):
        quotient_z_module(gb)


def test_quotient_mixed_free_and_torsion():
    # (x^2 - 1, 2x - 2) in Z[x]: Z + Z/2.
    spec = PolyRingSpec(("x",))
    gb = strong_groebner([{(2,): 1, (0,): -1}, {(1,): 2, (0,): -2}], spec)
    rep = quotient_z_module(gb)
    assert rep.rank == 1
    assert rep.torsion == (2,)


def test_quotient_mixed_case_passes_mod_l_count():
    # Z + Z/2: dim over F_2 is 2, over F_3 is 1; a report of Z alone or of
    # Z + Z/4 + Z/2 would fail the count at l = 2.
    spec = PolyRingSpec(("x",))
    gb = strong_groebner([{(2,): 1, (0,): -1}, {(1,): 2, (0,): -2}], spec)
    rep = quotient_z_module(gb)
    for ell in (2, 3):
        assert mod_l_count_agrees(gb, rep.rank, rep.torsion, ell)
    assert not mod_l_count_agrees(gb, 1, (), 2)
    assert not mod_l_count_agrees(gb, 1, (2, 4), 2)


def test_quotient_torsion_carry_merges_into_free_part():
    # (2x - 3y, x^2, xy, y^2) in Z[x, y]: the cells are 1, x, y and the one
    # relation 2x = 3y has coprime coefficients, so the module is Z^2.  The
    # cell x carries the leading coefficient 2, which reading Z/2 per cell
    # would report as torsion.
    spec = PolyRingSpec(("x", "y"))
    gb = strong_groebner([{(1, 0): 2, (0, 1): -3}, {(2, 0): 1}, {(1, 1): 1}, {(0, 2): 1}], spec)
    assert ((1, 0), 2) in gb.leading_terms()
    rep = quotient_z_module(gb)
    assert (rep.rank, rep.torsion) == (2, ())
    assert mod_l_count_agrees(gb, rep.rank, rep.torsion, 2)
    assert not mod_l_count_agrees(gb, 2, (2,), 2)


def test_product_criterion_needs_coprime_coefficients():
    # x and y are coprime but 2 and 2 are not: the S-polynomial
    # y*(2x + 1) - x*(2y) = y is a new leading term, not a redundant pair.
    spec = PolyRingSpec(("x", "y"))
    gb = strong_groebner([{(1, 0): 2, (0, 0): 1}, {(0, 1): 2}], spec)
    assert ((0, 1), 1) in gb.leading_terms()
    assert verify_strong_groebner(gb)


def test_chain_criterion_conditions():
    # The Gebauer-Moeller update on hand-made packed leading terms in
    # Z[x, y, z]: B_k on a live pair, then M and F among the pairs of k.
    pk = _Packing(3, 6)

    def lt(m, c):
        return pk.pack(m), c

    def update(leads, lt_k, live=None):
        live = dict(live or {})
        new = _update(live, [lt(*t) for t in leads], lt(*lt_k), pk)
        return live, [(i, (pk.unpack(m), c)) for i, (m, c) in new]

    # B_k: the live pair (0, 1) of x*y and y*z has L = (x*y*z, lcm of the lcs).
    xy, yz = (1, 1, 0), (0, 1, 1)
    pair = {(0, 1): lt((1, 1, 1), 1)}
    assert update([(xy, 1), (yz, 1)], ((0, 1, 0), 1), pair)[0] == {}
    # It stays when L_ik or L_jk equals L_ij, or lt_k does not divide L_ij.
    for lt_k in [((0, 0, 1), 1), ((1, 0, 0), 1), ((1, 1, 1), 1), ((0, 2, 0), 1), ((0, 1, 0), 2)]:
        assert update([(xy, 1), (yz, 1)], lt_k, pair)[0] == pair
    # The coefficients count: lc_k = 2 divides lcm(2, 3) = 6.
    pair6 = {(0, 1): lt((1, 1, 1), 6)}
    assert update([(xy, 2), (yz, 3)], ((0, 1, 0), 2), pair6)[0] == {}
    assert update([(xy, 2), (yz, 3)], ((0, 1, 0), 4), pair6)[0] == pair6
    # M: L_1k = (x^2, 1) properly divides L_0k = (x^2*y, 1).
    x = (1, 0, 0)
    assert update([((2, 1, 0), 1), ((2, 0, 0), 1)], (x, 1))[1] == [(1, ((2, 0, 0), 1))]
    # ... and when only the coefficient differs: (x*y, 2) properly divides
    # (x*y, 6); (x*y, 6) and (x*y, 10) divide neither way.
    assert update([(xy, 3), (xy, 1)], (x, 2))[1] == [(1, (xy, 2))]
    assert update([(xy, 3), (xy, 5)], (x, 2))[1] == [(0, (xy, 6)), (1, (xy, 10))]
    # F: one pair of a class with one L, the least i ...
    assert update([(x, 1), ((0, 1, 0), 1)], (xy, 1))[1] == [(0, (xy, 1))]
    # ... and none when a pair of the class passes the product criterion:
    # (y, x) has coprime monomials and coefficients.
    assert update([(xy, 1), ((0, 1, 0), 1)], (x, 1))[1] == []
    # That pair still prunes the classes its L properly divides under M.
    assert update([((0, 1, 0), 1), ((1, 2, 0), 1)], (x, 1))[1] == []


# The `quotient` benchmark jobs of seed 1: (group, mu, p).
SEED1_QUOTIENT_JOBS = [
    ("GL3", "2,1,0", "2"), ("SL4", "3,3,0", "2"), ("GL2", "1,0", "7"), ("Sp4", "2,2", "5"),
    ("GL3", "2,0,0", "5"), ("SL2", "2", "11"), ("SL3", "1,0", "3"), ("Sp4", "4,2", "3"),
    ("SL3", "3,0", "5"), ("GL2", "2,0", "11"),
]


def test_few_s_pairs_reduce_to_zero_on_quotient_ladder(capsys, monkeypatch):
    # The update prunes most S-pairs that would reduce to zero: the update-only
    # chain criterion reduced 1651 to zero on these ten jobs, the
    # Gebauer-Moeller update 452.
    last, counts = [None], {"reduced": 0, "zero": 0}  # last: the newest S-polynomial
    pair, reduce = groebner._pair, groebner._reduce

    def counted_pair(kind, *args):
        out = pair(kind, *args)
        last[0] = out if kind == 0 else None
        return out

    def counted_reduce(f, *args):
        out = reduce(f, *args)
        if f is last[0]:
            counts["reduced"] += 1
            counts["zero"] += not out
        return out

    monkeypatch.setattr(groebner, "_pair", counted_pair)
    monkeypatch.setattr(groebner, "_reduce", counted_reduce)
    for group, mu, p in SEED1_QUOTIENT_JOBS:
        assert main(["k0", "--group", group, "--mu", mu, "--p", p]) == 0
    capsys.readouterr()
    assert counts["reduced"] > 0
    assert counts["zero"] <= 550


@pytest.mark.parametrize("seed", range(3))
def test_packing_round_trip_order_divisibility_and_lcm(seed):
    # Packed keys sort as grevlex, the guard-bit test is divisibility, and
    # the packed lcm is the lcm with its degree, on random exponent vectors
    # up to the packing's bound.
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    pk = _Packing(n, rng.choice((4, 60, 200)))
    key = PolyRingSpec(tuple(f"x{i}" for i in range(n))).monomial_key()
    half = pk.bound // (2 * n)
    for _ in range(200):
        a = tuple(rng.randint(0, half) for _ in range(n))
        b = tuple(rng.choice((e, rng.randint(0, half))) for e in a)
        pa, pb = pk.pack(a), pk.pack(b)
        assert pk.unpack(pa) == a
        assert (pk.key(pa) < pk.key(pb)) == (key(a) < key(b))
        assert pk.divides(pa, pb) == _monomial_divides(a, b)
        assert pk.unpack(pk.lcm(pa, pb)) == tuple(map(max, a, b))
        assert pk.lcm(pa, pb) >> pk.top == sum(map(max, a, b))


def test_packing_rejects_monomials_beyond_its_bound():
    pk = _Packing(2, 10)
    assert pk.bound == 127  # fields are at least MIN_FIELD_BITS wide
    pk.pack((100, 27))
    with pytest.raises(OverflowError):
        pk.pack((100, 28))
    with pytest.raises(OverflowError):
        pk.pack((3, -1))
    assert _Packing(2, 200).bound == 255


def test_invariant_factors_merge():
    assert invariant_factors([2, 3]) == (6,)
    assert invariant_factors([2, 2]) == (2, 2)
    assert invariant_factors([4, 6]) == (2, 12)
    assert invariant_factors([]) == ()


def test_laurent_saturation_recovery():
    # Adjoining an inverse and eliminating it saturates at the variable:
    # (v*y - v) with v invertible gives (y - 1).
    names = ("vbar", "v", "y")
    spec = BlockRingSpec(names, ((0,), (1, 2)))
    gens = [{(0, 1, 1): 1, (0, 1, 0): -1}]  # v y - v
    gb = reference_strong_groebner(gens + unit_relations([(0, 1)], 3), spec)
    egb = eliminate(gb, (0,))
    # The elimination ideal in Z[v, y] contains y - 1.
    polys = egb.as_dicts()
    assert {(0, 1): 1, (0, 0): -1} in polys


@pytest.mark.parametrize("seed", range(10))
def test_soundness_random_ideals(seed):
    # normal_form(f*g + h) == normal_form(h) for f in the ideal.
    rng = random.Random(seed)
    spec = PolyRingSpec(("x", "y"))

    def rand_poly(nterms, deg=3, cmax=4):
        out = {}
        for _ in range(nterms):
            m = (rng.randint(0, deg), rng.randint(0, deg))
            c = rng.randint(-cmax, cmax)
            if c:
                out[m] = out.get(m, 0) + c
        return {m: c for m, c in out.items() if c}

    gens = [rand_poly(3) for _ in range(2)]
    gens = [g for g in gens if g]
    if not gens:
        return
    gb = strong_groebner(gens, spec)
    assert verify_strong_groebner(gb)
    for _ in range(10):
        f = gens[rng.randrange(len(gens))]
        g = rand_poly(2)
        h = rand_poly(3)
        fg = {}
        for m1, c1 in f.items():
            for m2, c2 in g.items():
                mm = tuple(a + b for a, b in zip(m1, m2))
                fg[mm] = fg.get(mm, 0) + c1 * c2
        lhs = dict(fg)
        for m, c in h.items():
            lhs[m] = lhs.get(m, 0) + c
        lhs = {m: c for m, c in lhs.items() if c}
        assert normal_form_gb(lhs, gb) == normal_form_gb(h, gb)


@pytest.mark.parametrize("chunk", range(5))
def test_pruned_completion_is_strong_on_random_rings(chunk, monkeypatch):
    # Ideals in Z[x, y] and Z[x, y, z] whose coefficients share factors, so
    # that the coefficient conditions of the product criterion and of the
    # update's lcm terms decide: pruning a pair that no criterion covers leaves
    # a basis with an S- or G-polynomial that does not reduce to zero.  The
    # rare ideal whose basis grows past 40 elements is skipped.
    rings = (PolyRingSpec(("x", "y")), PolyRingSpec(("x", "y", "z")))
    monkeypatch.setattr(groebner, "DEFAULT_MAX_BASIS", 40)
    for seed in range(30 * chunk, 30 * chunk + 30):
        rng = random.Random(seed)
        spec = rng.choice(rings)
        gens = []
        for _ in range(rng.randint(2, 3)):
            g = {}
            for _ in range(rng.randint(1, 3)):
                m = tuple(rng.randint(0, 2) for _ in range(spec.nvars))
                g[m] = g.get(m, 0) + rng.choice((2, 3, 4, 6, -2, -3, 1, 5))
            gens.append({m: c for m, c in g.items() if c})
        try:
            gb = strong_groebner(gens, spec)
        except ResourceCapError:
            continue
        assert verify_strong_groebner(gb), gens


def reference_normal_form(f, basis, spec):
    """The linear-scan strong reduction: rescan the remainder for its largest
    term, and the whole basis for the smallest (lc, key(lm), position)."""
    key = spec.monomial_key()
    prepped = []
    for g in basis:
        if g:
            lm, lc = _leading(g, key)
            prepped.append((lm, lc, g))
    work = {m: c for m, c in f.items() if c}
    out = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        reducers = [(lc, key(lm), i) for i, (lm, lc, g) in enumerate(prepped)
                    if _monomial_divides(lm, m)]
        if not reducers:
            out[m] = c
            continue
        lc, _, gi = min(reducers)
        lm, _, g = prepped[gi]
        q, r = divmod(c, lc)
        if q:
            work[m] = c
            _sub_scaled_shifted(work, g, q, _monomial_sub(m, lm))
            got = work.pop(m, 0)
            assert got == r
        if r:
            out[m] = r
    return out


def engine_normal_form(f, basis, spec):
    """Reduction of f by any basis through the library's packed _reduce; the
    block order, which the library does not have, through the reference
    engine."""
    if isinstance(spec, BlockRingSpec):
        return normal_form(f, basis, spec)
    pk = _Packing(spec.nvars, max(sum(m) for g in [f, *basis] for m in g))
    return pk.unpack_poly(_reduce(pk.pack_poly(f), _reducer_table(map(pk.pack_poly, basis), pk), pk))


def engine_interreduce(basis, spec):
    """The library's packed _interreduce, or for the block order the
    reference engine's."""
    if isinstance(spec, BlockRingSpec):
        return reference_interreduce(basis, spec)
    pk = _Packing(spec.nvars, max(sum(m) for g in basis for m in g))
    return [pk.unpack_poly(g) for g in _interreduce(list(map(pk.pack_poly, basis)), pk)[0]]


# Ring and the inverse pairs whose unit relations join every basis.
REDUCTION_RINGS = {
    "grevlex": (PolyRingSpec(("x", "y", "z")), []),
    "laurent": (PolyRingSpec(("xbar", "x", "y")), [(0, 1)]),
    "block": (BlockRingSpec(("t", "x", "y"), ((0,), (1, 2))), []),
}


@pytest.mark.parametrize("ring", sorted(REDUCTION_RINGS))
@pytest.mark.parametrize("seed", range(4))
def test_normal_form_matches_linear_scan(ring, seed):
    # Random bases that are not Groebner bases: leading monomials and
    # coefficients drawn from small pools, so several elements share them and
    # the (lc, leading monomial, position) tie-break decides the reducer.
    rng = random.Random(seed)
    spec, pairs = REDUCTION_RINGS[ring]
    key = spec.monomial_key()
    n = spec.nvars

    def rand_mono(deg):
        return tuple(rng.randint(0, deg) for _ in range(n))

    lm_pool = [rand_mono(2) for _ in range(4)]
    for _ in range(25):
        basis = []
        for _ in range(rng.randint(1, 7)):
            lm = rng.choice(lm_pool)
            g = {lm: rng.choice((1, 2, 3, -2, 6))}
            for _ in range(rng.randint(0, 3)):
                m = rand_mono(2)
                if key(m) < key(lm):
                    g[m] = rng.randint(-5, 5) or 1
            basis.append(g)
        basis += unit_relations(pairs, n)
        rng.shuffle(basis)
        if rng.random() < 0.3:
            basis.insert(rng.randrange(len(basis) + 1), {})
        f = {}
        for _ in range(rng.randint(1, 8)):
            f[rand_mono(4)] = rng.randint(-30, 30) or 7
        assert engine_normal_form(f, basis, spec) == reference_normal_form(f, basis, spec)


@pytest.mark.parametrize("ring", sorted(REDUCTION_RINGS))
@pytest.mark.parametrize("seed", range(4))
def test_interreduce_matches_per_element_tables(ring, seed, monkeypatch):
    # The one-pass interreduction against a fresh table per element, run
    # until nothing changes.  Its input must be a strong basis.  A random set
    # with shared leading monomials and coefficients, mostly not strong,
    # gives the oracle's basis or raises RuntimeError, and so does the set
    # with some of the oracle's elements mixed back in.  A strong basis made
    # unreduced -- multiples of smaller elements added into the tails, more
    # ideal elements appended, the order shuffled -- never raises and gives
    # the reduced strong basis.
    rng = random.Random(seed)
    spec, pairs = REDUCTION_RINGS[ring]
    key = spec.monomial_key()
    n = spec.nvars
    monkeypatch.setattr(groebner, "DEFAULT_MAX_BASIS", 40)

    def rand_mono(deg):
        return tuple(rng.randint(0, deg) for _ in range(n))

    def rand_poly(lm_pool):
        lm = rng.choice(lm_pool)
        g = {lm: rng.choice((1, 2, 3, -2, 6))}
        for _ in range(rng.randint(0, 3)):
            m = rand_mono(2)
            if key(m) < key(lm):
                g[m] = rng.randint(-5, 5) or 1
        return g

    def matches_or_raises(basis) -> bool:
        try:
            got = engine_interreduce(basis, spec)
        except RuntimeError as e:
            assert "not a strong basis" in str(e)
            return False
        assert got == interreduce_per_element(basis, spec)
        return True

    def unreduced(reduced):
        out = []
        for g in reduced:
            g, lm = dict(g), _leading(g, key)[0]
            for s in reduced:
                shift = rand_mono(1)
                if key(tuple(map(sum, zip(_leading(s, key)[0], shift)))) < key(lm):
                    _sub_scaled_shifted(g, s, rng.choice((-2, -1, 1, 3)), shift)
            out.append(g)
        for _ in range(rng.randint(1, 3)):
            h = {}
            for s in rng.sample(reduced, min(2, len(reduced))):
                _sub_scaled_shifted(h, s, rng.choice((-3, -1, 2, 5)), rand_mono(1))
            out.append(h)
        rng.shuffle(out)
        return out

    lm_pool = [rand_mono(2) for _ in range(4)]
    accepted = strong = 0
    for _ in range(10):
        basis = [rand_poly(lm_pool) for _ in range(rng.randint(1, 6))] + unit_relations(pairs, n)
        rng.shuffle(basis)
        accepted += matches_or_raises(basis)
        grown = basis + [p for p in interreduce_per_element(basis, spec) if rng.random() < 0.5]
        rng.shuffle(grown)
        accepted += matches_or_raises(grown)
        try:
            reduced = reference_strong_groebner(basis, spec).as_dicts()
        except ResourceCapError:
            continue
        unred = unreduced(reduced)
        assert engine_interreduce(unred, spec) == interreduce_per_element(unred, spec) == reduced
        strong += 1
    assert accepted and strong


def test_interreduce_rejects_a_basis_that_is_not_strong():
    # (2x, 3x) = (x): reducing 3x by 2x leaves x, a new leading term.
    with pytest.raises(RuntimeError, match="not a strong basis"):
        engine_interreduce([{(1,): 2}, {(1,): 3}], PolyRingSpec(("x",)))


def test_interreduce_matches_per_element_tables_on_real_jobs(capsys, monkeypatch):
    # Every completed basis that light k0 jobs interreduce, the twisted SL3
    # job of the report-bytes guard among them, against the oracle; and the
    # reducer table the pass returns, which seeds the basis's tables, is the
    # one _reducer_table builds from the result.
    seen = []
    interreduce = groebner._interreduce

    def captured(basis, pk):
        out, table = interreduce(basis, pk)
        assert table == _reducer_table(out, pk)
        seen.append((basis, pk, out))
        return out, table

    monkeypatch.setattr(groebner, "_interreduce", captured)
    for argv in (["--group", "SL3", "--mu", "1,0", "--p", "3"],
                 ["--group", "Sp4", "--mu", "0,0", "--p", "5"],
                 ["--group", "GL3", "--mu", "2,1,0", "--p", "2"],
                 ["--group", "SL3", "--mu=1,2", "--p", "3", "--twist", "[[0,1],[1,0]]",
                  "--checks", "kunneth,theta"]):
        assert main(["k0", *argv]) == 0
    capsys.readouterr()
    assert len(seen) >= 4
    for basis, pk, out in seen:
        spec = PolyRingSpec(tuple(f"x{i}" for i in range(len(pk.shifts))))
        want = interreduce_per_element([pk.unpack_poly(g) for g in basis], spec)
        assert [pk.unpack_poly(g) for g in out] == want


@pytest.mark.parametrize("ring", sorted(REDUCTION_RINGS))
@pytest.mark.parametrize("seed", range(4))
def test_packed_engine_matches_reference_on_random_rings(ring, seed, monkeypatch):
    # Random small ideals on each ring's variables, with its unit relations:
    # the packed engine and the reference engine on exponent tuples give the
    # same basis and the same remainders, term for term.  The library has
    # one order, so the block ring's variables are taken under grevlex.
    rng = random.Random(100 + seed)
    spec = PolyRingSpec(REDUCTION_RINGS[ring][0].names)
    pairs = REDUCTION_RINGS[ring][1]
    n = spec.nvars
    monkeypatch.setattr(groebner, "DEFAULT_MAX_BASIS", 40)
    compared = 0
    for _ in range(8):
        gens = []
        for _ in range(rng.randint(1, 3)):
            g = {}
            for _ in range(rng.randint(1, 3)):
                m = tuple(rng.randint(0, 2) for _ in range(n))
                g[m] = g.get(m, 0) + rng.choice((1, 2, 3, 4, 6, -2, -3, 5))
            gens.append({m: c for m, c in g.items() if c})
        gens += unit_relations(pairs, n)
        try:
            want = reference_strong_groebner(gens, spec)
        except ResourceCapError:
            with pytest.raises(ResourceCapError):
                strong_groebner(gens, spec)
            continue
        gb = strong_groebner(gens, spec)
        assert gb == want, gens
        compared += 1
        for _ in range(5):
            f = {tuple(rng.randint(0, 4) for _ in range(n)): rng.randint(-9, 9) for _ in range(4)}
            assert normal_form_gb(f, gb) == reference_normal_form_gb(f, gb)
    assert compared


def test_normal_form_of_degree_200_monomial():
    # Monomials of degree 200 modulo a basis of degree <= 4 need fields wider
    # than the completion's: x^200 = (x^4)^50 = 2^50 exactly, and a mixed
    # monomial of degree 200 reduces as the reference engine reduces it.
    spec = PolyRingSpec(("x", "y", "z"))
    gens = [{(4, 0, 0): 1, (0, 0, 0): -2}, {(0, 2, 0): 1, (1, 0, 0): -1, (0, 0, 0): -1},
            {(0, 0, 3): 1, (0, 1, 1): -1, (0, 0, 0): 5}]
    gb = strong_groebner(gens, spec)
    assert max(sum(terms[0][0]) for terms in gb.polys) <= 4
    assert normal_form_gb({(200, 0, 0): 1}, gb) == {(0, 0, 0): 2**50}
    f = {(120, 50, 30): 1, (3, 2, 1): -7}
    assert normal_form_gb(f, gb) == reference_normal_form_gb(f, gb)


def test_normal_form_gb_matches_linear_scan():
    spec = PolyRingSpec(("xbar", "x"))
    gen = {(0, 1): 1, (1, 0): 1, (0, 5): -1, (5, 0): -1}
    gb = strong_groebner([gen] + unit_relations([(0, 1)], 2), spec)
    rng = random.Random(0)
    inputs = [{(rng.randint(0, 9), rng.randint(0, 9)): rng.randint(-9, 9) or 1 for _ in range(6)}
              for _ in range(20)]
    inputs.append({(0, 0): 0, (3, 1): 2})  # a zero coefficient on an irreducible term
    for f in inputs:
        nf = normal_form_gb(f, gb)
        assert nf == reference_normal_form(f, gb.as_dicts(), spec)
        assert 0 not in nf.values()


def test_determinism_repeat_runs():
    spec = PolyRingSpec(("xbar", "x"))
    f = {(0, 1): 1, (1, 0): 1, (0, 3): -1, (3, 0): -1}
    a = strong_groebner([f] + unit_relations([(0, 1)], 2), spec)
    b = strong_groebner([f] + unit_relations([(0, 1)], 2), spec)
    assert a.polys == b.polys
    assert a.to_strings() == b.to_strings()


def test_resource_cap_raises(monkeypatch):
    spec = PolyRingSpec(("xbar", "x"))
    gens = [{(0, 1): 1, (1, 0): 1, (0, 3): -1, (3, 0): -1}] + unit_relations([(0, 1)], 2)
    with pytest.raises(ResourceCapError):
        strong_groebner(gens, spec, max_degree=3)
    monkeypatch.setattr(groebner, "DEFAULT_MAX_BASIS", 2)
    with pytest.raises(ResourceCapError):
        strong_groebner(gens, spec)


@pytest.mark.parametrize("engine", [strong_groebner, reference_strong_groebner])
def test_degree_cap_applies_to_reduced_generators(engine):
    # y^3 - 4y (SL2 at mu = 0, p = 3) is already a basis: no pair adds an
    # element, so only the check on the generators themselves can see the cap.
    spec = PolyRingSpec(("y1",))
    gen = {(3,): 1, (1,): -4}
    assert engine([gen], spec, max_degree=3).polys == (((((3,), 1), ((1,), -4))),)
    with pytest.raises(ResourceCapError, match="degree 3 exceeds cap 2"):
        engine([gen], spec, max_degree=2)


def test_strong_groebner_rejects_other_orders():
    # The engine completes in grevlex only; a block order must not be
    # completed in grevlex silently.
    spec = BlockRingSpec(("t", "x"), ((0,), (1,)))
    with pytest.raises(TypeError, match="BlockRingSpec"):
        strong_groebner([{(1, 0): 1, (0, 1): -1}], spec)


# ---------------------------------------------------------------------------
# Windowed brute-force oracle for Laurent quotient modules (rank-1 lattice)


def laurent_box_invariants(gens_exponents, box_radius):
    """Independent oracle: Z-module invariants of Z[x,x^-1]/(gens) truncated
    to the exponent box [-box, box], relations being all shifts of the
    generators whose support stays inside the box.

    gens_exponents: list of {exponent: coeff} Laurent polynomials in Z.
    Returns (free_rank, torsion tuple).
    """
    basis = list(range(-box_radius, box_radius + 1))
    index = {e: i for i, e in enumerate(basis)}
    rows = []
    for g in gens_exponents:
        lo = min(g)
        hi = max(g)
        for shift in range(-box_radius - lo, box_radius - hi + 1):
            row = [0] * len(basis)
            for e, c in g.items():
                row[index[e + shift]] = c
            rows.append(row)
    if not rows:
        return len(basis), ()
    m = IntegerMatrix.from_columns(rows, nrows=len(basis))
    s, _, _ = smith_normal_form(m)
    diag = [d for d in diagonal_of(s) if d != 0]
    free = len(basis) - len(diag)
    torsion = invariant_factors([d for d in diag if d > 1])
    return free, torsion


@pytest.mark.parametrize("p", [2, 3, 5])
def test_oracle_matches_quotient_gm(p):
    # x - x^p in the Laurent ring: rank p - 1.
    spec = PolyRingSpec(("xbar", "x"))
    gens = [{(0, 1): 1, (0, p): -1}, {(1, 0): 1, (p, 0): -1}]
    gb = strong_groebner(gens + unit_relations([(0, 1)], 2), spec)
    rep = quotient_z_module(gb)
    free, torsion = laurent_box_invariants([{1: 1, p: -1}], box_radius=3 * p)
    assert (rep.rank, rep.torsion) == (free, torsion) == (p - 1, ())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_oracle_matches_quotient_sl2_tside(p):
    spec = PolyRingSpec(("xbar", "x"))
    f = {(0, 1): 1, (1, 0): 1, (0, p): -1, (p, 0): -1}
    gb = strong_groebner([f] + unit_relations([(0, 1)], 2), spec)
    rep = quotient_z_module(gb)
    free, torsion = laurent_box_invariants(
        [{1: 1, -1: 1, p: -1, -p: -1}], box_radius=3 * p
    )
    assert (rep.rank, rep.torsion) == (free, torsion) == (2 * p, ())


def test_oracle_matches_mixed_torsion_case():
    # (x^2 - 1, 2x - 2) as a Laurent ideal: x invertible, so Z[x,xbar]/I = Z + Z/2.
    spec = PolyRingSpec(("xbar", "x"))
    gens = [{(0, 2): 1, (0, 0): -1}, {(0, 1): 2, (0, 0): -2}]
    gb = strong_groebner(gens + unit_relations([(0, 1)], 2), spec)
    rep = quotient_z_module(gb)
    free, torsion = laurent_box_invariants([{2: 1, 0: -1}, {1: 2, 0: -2}], box_radius=8)
    assert (rep.rank, rep.torsion) == (free, torsion) == (1, (2,))
