"""Root data, Weyl groups and cocharacter combinatorics.

A reductive group over an algebraically closed field is modelled by its root
datum: the character lattice Z^n with a finite set of roots, the cocharacter
lattice with coroots paired to them by index, and a distinguished simple
system.  The natural pairing is the dot product.  All group elements (Weyl
reflections, twists) are unimodular n x n integer matrices acting on
characters as column vectors.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from ._record import record
from .caps import ResourceCapError
from .lattice import cokernel_invariants, determinant, kernel_basis, solve_linear_diophantine

Vector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]
Cocharacter = tuple[int, ...]


class RootDatumError(ValueError):
    """Invalid root datum; `kind` names the violated axiom."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind


class WeylSizeCapError(ResourceCapError):
    """Weyl group enumeration exceeded WEYL_SIZE_CAP elements."""


WEYL_SIZE_CAP = 10**6


def pairing(chi: Sequence[int], cochar: Sequence[int]) -> int:
    """Natural pairing of a character with a cocharacter (dot product)."""
    return sum(a * b for a, b in zip(chi, cochar))


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(m: Matrix, v: Sequence[int]) -> Vector:
    return tuple(sum(m[i][k] * v[k] for k in range(len(v))) for i in range(len(m)))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def mat_transpose(a: Matrix) -> Matrix:
    n = len(a)
    return tuple(tuple(a[j][i] for j in range(n)) for i in range(n))


def reflection_matrix(root: Vector, coroot: Vector) -> Matrix:
    """s(chi) = chi - <chi, coroot> root, as a matrix on the character lattice."""
    n = len(root)
    return tuple(
        tuple((1 if i == j else 0) - root[i] * coroot[j] for j in range(n))
        for i in range(n)
    )


@record
class RootDatum:
    """Root datum (X*(T), roots, X_*(T), coroots) with a chosen simple system.

    What the datum determines and the pipeline reads more than once, its Weyl
    group, positive roots, positive-coroot sum and fundamental-weight lift,
    is computed on first use and kept on the instance.
    """

    rank: int
    roots: tuple[Vector, ...]
    coroots: tuple[Vector, ...]
    simple_indices: tuple[int, ...]
    twist: Optional[Matrix] = None
    name: str = ""

    @property
    def simple_roots(self) -> tuple[Vector, ...]:
        return tuple(self.roots[i] for i in self.simple_indices)

    @property
    def simple_coroots(self) -> tuple[Vector, ...]:
        return tuple(self.coroots[i] for i in self.simple_indices)

    def cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        """C[i][j] = <alpha_j, alpha_i^vee> over the simple system."""
        return tuple(
            tuple(pairing(self.roots[j], self.coroots[i]) for j in self.simple_indices)
            for i in self.simple_indices
        )

    @cached_property
    def weyl(self) -> WeylGroup:
        return weyl_enumerate(self)

    @cached_property
    def positive_indices(self) -> tuple[int, ...]:
        return positive_root_indices(self)

    @cached_property
    def coroot_sum(self) -> Vector:
        """The sum of the positive coroots, 2 rho^vee: it pairs with each
        positive root to twice its height, so it is a regular cocharacter."""
        pos = [self.coroots[i] for i in self.positive_indices]
        return tuple(sum(cv[i] for cv in pos) for i in range(self.rank))

    @cached_property
    def weight_lift(self) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
        """(lineality basis, integral fundamental weights): see
        fundamental_weight_lift.  Raises SimplyConnectedHypothesisError
        without a simply connected derived group."""
        return fundamental_weight_lift(self)


def make_root_datum(
    rank: int,
    roots: Sequence[Sequence[int]],
    coroots: Sequence[Sequence[int]],
    simple_roots: Sequence[Sequence[int]],
    twist: Optional[Sequence[Sequence[int]]] = None,
    name: str = "",
) -> RootDatum:
    """Build a RootDatum from explicit vectors, resolving simple roots to indices."""
    rts = tuple(tuple(int(x) for x in r) for r in roots)
    crts = tuple(tuple(int(x) for x in r) for r in coroots)
    simples = []
    for s in simple_roots:
        s = tuple(int(x) for x in s)
        if s not in rts:
            raise RootDatumError("simple-root-not-a-root", f"simple root {s} is not a root")
        simples.append(rts.index(s))
    tw = tuple(tuple(int(x) for x in row) for row in twist) if twist is not None else None
    return RootDatum(rank, rts, crts, tuple(simples), tw, name)


def validate(rd: RootDatum) -> None:
    """Check all root datum axioms; raise RootDatumError otherwise."""
    n = rd.rank
    if len(rd.roots) != len(rd.coroots):
        raise RootDatumError("pairing-violation", "roots and coroots must be paired by index")
    for v in rd.roots + rd.coroots:
        if len(v) != n:
            raise RootDatumError("pairing-violation", f"vector {v} does not have rank {n}")
    if len(set(rd.roots)) != len(rd.roots):
        raise RootDatumError("pairing-violation", "duplicate roots")
    for a, av in zip(rd.roots, rd.coroots):
        val = pairing(a, av)
        if val != 2:
            raise RootDatumError(
                "pairing-violation", f"<alpha, alpha^vee> = {val} != 2 for root {a}"
            )
    for a, av in zip(rd.roots, rd.coroots):
        _check_automorphism(rd, reflection_matrix(a, av), "reflection-not-permuting", f"s_{a}")
    # Simple system: distinct, and the Cartan matrix has finite type.
    if len(set(rd.simple_indices)) != len(rd.simple_indices):
        raise RootDatumError("non-finite-type-cartan", "duplicate simple roots")
    # Its zero pattern is symmetric already: the checks above make
    # (x, y) = sum over roots b of <x, b^vee><y, b^vee> a positive
    # semidefinite form invariant under each s_a, whence
    # <x, a^vee>(a, a) = 2(x, a) with (a, a) >= 4, so <b, a^vee> = 0 exactly
    # when <a, b^vee> = 0.  For the same reason C = D^-1 S, with
    # D = diag((a_i, a_i) / 2) > 0 and S the positive semidefinite Gram
    # matrix ((a_i, a_j)) of the simple roots.  So every principal minor of C
    # is positive <=> S is positive definite <=> det S > 0 <=> det C > 0, and
    # one determinant decides finite type.
    cartan = rd.cartan_matrix()
    for i, row in enumerate(cartan):
        for j, c in enumerate(row):
            if i != j and c > 0:
                raise RootDatumError("non-finite-type-cartan", f"off-diagonal Cartan entry {c} > 0")
    if determinant(cartan) <= 0:
        raise RootDatumError(
            "non-finite-type-cartan", "Cartan matrix has a non-positive principal minor"
        )
    # Every root is in the orbit of the simple system.
    orbit = set(rd.simple_roots)
    frontier = list(rd.simple_roots)
    gens = [reflection_matrix(rd.roots[i], rd.coroots[i]) for i in rd.simple_indices]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = mat_vec(g, v)
                if w not in orbit:
                    orbit.add(w)
                    nxt.append(w)
        frontier = nxt
    if orbit != set(rd.roots):
        raise RootDatumError(
            "reflection-not-permuting",
            "roots are not a single Weyl orbit closure of the simple system",
        )
    if rd.twist is not None:
        _validate_twist(rd)


def _validate_twist(rd: RootDatum) -> None:
    tau = rd.twist
    n = rd.rank
    if len(tau) != n or any(len(row) != n for row in tau):
        raise RootDatumError("twist-not-preserving-simple-roots", "twist has wrong shape")
    det = determinant(tau)
    if det not in (1, -1):
        raise RootDatumError(
            "twist-not-preserving-simple-roots", f"twist determinant {det} not unimodular"
        )
    power = tau
    order = 1
    max_order = 60
    while power != identity_matrix(n):
        power = mat_mul(power, tau)
        order += 1
        if order > max_order:
            raise RootDatumError(
                "twist-not-preserving-simple-roots", "twist is not of finite (small) order"
            )
    simple_set = set(rd.simple_roots)
    images = {mat_vec(tau, a) for a in rd.simple_roots}
    if images != simple_set:
        raise RootDatumError(
            "twist-not-preserving-simple-roots",
            "twist does not permute the simple roots",
        )
    _check_automorphism(rd, tau, "twist-not-preserving-simple-roots", "twist")


def _check_automorphism(rd: RootDatum, g: Matrix, kind: str, name: str) -> None:
    """Raise RootDatumError(kind) unless g is an automorphism of the root
    datum (Springer, Linear Algebraic Groups, 7.4): g permutes the roots, and
    g^T maps the coroot of g(alpha) back to alpha^vee, so that the pairing is
    preserved."""
    index = {r: i for i, r in enumerate(rd.roots)}
    gt = mat_transpose(g)
    for a, av in zip(rd.roots, rd.coroots):
        img = mat_vec(g, a)
        if img not in index:
            raise RootDatumError(kind, f"{name} sends root {a} to {img}, not a root")
        if mat_vec(gt, rd.coroots[index[img]]) != av:
            raise RootDatumError(kind, f"{name} does not preserve the pairing at root {a}")


@record
class WeylGroup:
    """Finite Weyl group as explicit matrices with one reduced word each."""

    rank: int
    generators: tuple[Matrix, ...]          # simple reflections, in simple-root order
    elements: tuple[Matrix, ...]
    reduced_words: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.elements)

    def word_matrix(self, word: Sequence[int]) -> Matrix:
        m = identity_matrix(self.rank)
        for i in word:
            m = mat_mul(m, self.generators[i])
        return m


def weyl_enumerate(rd: RootDatum) -> WeylGroup:
    """BFS closure of the simple reflections; BFS depth gives reduced words."""
    gens = tuple(reflection_matrix(a, av) for a, av in zip(rd.simple_roots, rd.simple_coroots))
    ident = identity_matrix(rd.rank)
    elements: list[Matrix] = [ident]
    words: list[tuple[int, ...]] = [()]
    seen = {ident: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for idx in frontier:
            for i, g in enumerate(gens):
                m = mat_mul(elements[idx], g)
                if m not in seen:
                    seen[m] = len(elements)
                    elements.append(m)
                    words.append(words[idx] + (i,))
                    nxt.append(seen[m])
                    if len(elements) > WEYL_SIZE_CAP:
                        raise WeylSizeCapError(
                            f"Weyl group larger than cap {WEYL_SIZE_CAP}"
                        )
        frontier = nxt
    return WeylGroup(rd.rank, gens, tuple(elements), tuple(words))


def weyl_orbit(weyl: WeylGroup, weight: Sequence[int]) -> tuple[Vector, ...]:
    """The orbit of a weight, sorted for determinism (each element once)."""
    v = tuple(int(x) for x in weight)
    return tuple(sorted({mat_vec(m, v) for m in weyl.elements}))


def positive_root_indices(rd: RootDatum) -> tuple[int, ...]:
    """Indices of the roots that are nonnegative combinations of the simple system.

    Every positive root is a simple root plus a positive root or zero
    (Humphreys, Lie algebras, section 10.2), so adding simple roots to the
    simple roots while the sum is a root reaches every positive root.
    """
    index = {r: i for i, r in enumerate(rd.roots)}
    found = set(rd.simple_indices)
    frontier = list(found)
    while frontier:
        nxt = []
        for i in frontier:
            for a in rd.simple_roots:
                k = index.get(tuple(x + y for x, y in zip(rd.roots[i], a)))
                if k is not None and k not in found:
                    found.add(k)
                    nxt.append(k)
        frontier = nxt
    return tuple(sorted(found))


def fundamental_group(rd: RootDatum) -> list[int]:
    """Invariants of X_*(T) / (coroot lattice), 0 per free summand."""
    return cokernel_invariants(rd.coroots, rd.rank)


class SimplyConnectedHypothesisError(ValueError):
    """The construction requires a simply connected derived group."""

    def __init__(self, invariants):
        torsion = [d for d in invariants if d > 1]
        super().__init__(
            "derived group is not simply connected: fundamental group has torsion "
            + " x ".join(f"Z/{d}" for d in torsion)
        )
        self.torsion = torsion


def levi_from_cocharacter(rd: RootDatum, mu: Sequence[int]) -> RootDatum:
    """The Levi L centralising the cocharacter, as a root datum on the same lattice.

    Its roots are the roots with <alpha, mu> = 0, in their order in rd, each
    with its coroot.  Its positive roots are those of rd among them: B cap L
    is a Borel subgroup of L for a Borel B of G containing T (Humphreys,
    Linear Algebraic Groups, 22.4).  They are the Levi roots that pair
    positively with rd.coroot_sum, and the indecomposable ones are their base
    (Humphreys, Introduction to Lie Algebras, 10.1): the simple system.  A
    central mu, with which every root pairs to zero, has L = G: rd is returned.
    """
    mu = tuple(int(x) for x in mu)
    if len(mu) != rd.rank:
        raise RootDatumError("pairing-violation", f"cocharacter {mu} does not have rank {rd.rank}")
    kept = [i for i, a in enumerate(rd.roots) if pairing(a, mu) == 0]
    if len(kept) == len(rd.roots):
        return rd
    roots = tuple(rd.roots[i] for i in kept)
    pos = [rd.roots[i] for i in rd.positive_indices if i in kept]
    pos_set = set(pos)
    simples = tuple(
        roots.index(r)
        for r in pos
        if not any(tuple(x - y for x, y in zip(r, b)) in pos_set for b in pos if b != r)
    )
    levi = RootDatum(rd.rank, roots, tuple(rd.coroots[i] for i in kept), simples)
    # Sanity: the Levi roots are closed under negation, so they are a
    # +-N-combination of the simple system exactly when half are positive.
    if 2 * len(levi.positive_indices) != len(roots):
        raise RootDatumError(
            "reflection-not-permuting",
            "Levi roots are not signed combinations of the Levi simple system",
        )
    return levi


# ---------------------------------------------------------------------------
# Dominant monoids


def _canonical_preimage(v: Vector, lineality: Sequence[Vector]) -> Vector:
    """A small representative of v modulo the lineality lattice: one pass down
    its Hermite rows z subtracts q z, q the integer nearest to <v, z> / <z, z>,
    a tie rounded down to the lexicographically larger vector (a Hermite row
    is zero left of its positive pivot).  Every representative presents the
    same R(L), as m_{eta + z} = e^z m_eta with e^z a unit."""
    cur = v
    for z in lineality:
        zz = sum(x * x for x in z)
        q = (2 * sum(a * b for a, b in zip(cur, z)) + zz - 1) // (2 * zz)
        cur = tuple(a - q * b for a, b in zip(cur, z))
    return cur


def fundamental_weight_lift(rd: RootDatum) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
    """(lin, etas) for the simple system of rd.

    lin is the Hermite basis of the lineality lattice (the characters pairing
    to zero with every simple coroot); etas[k] is an integral fundamental
    weight, <eta_k, alpha_j^vee> = delta_kj, rounded along each row of lin
    (_canonical_preimage).  They exist exactly when chi -> (<chi, alpha_j^vee>)_j
    maps X*(T) onto Z^s, that is when the derived group is simply connected;
    otherwise SimplyConnectedHypothesisError is raised.
    """
    cosimples = rd.simple_coroots
    s = len(cosimples)
    lin = kernel_basis(cosimples, rd.rank)
    etas = []
    for k in range(s):
        x = solve_linear_diophantine(cosimples, [1 if j == k else 0 for j in range(s)], rd.rank)
        if x is None:
            raise SimplyConnectedHypothesisError(cokernel_invariants(cosimples, rd.rank))
        etas.append(_canonical_preimage(x, lin))
    return lin, tuple(etas)


def dominant_hilbert_basis(rd: RootDatum) -> list[Vector]:
    """Generators of the monoid of dominant weights, in closed form.

    With a simply connected derived group (which Levis inherit),
    chi -> (<chi, alpha_k^vee>)_k maps X*(T) onto Z^s, so in those
    coordinates the dominant cone is the orthant plus the lineality lattice.
    The monoid is generated by one integral fundamental weight per simple
    coroot and +/- a basis of the lineality lattice (Steinberg, "On a theorem
    of Pittie", 1975).  Raises SimplyConnectedHypothesisError without the
    hypothesis.
    """
    lin, etas = rd.weight_lift
    return sorted(set(lin) | {tuple(-x for x in z) for z in lin} | set(etas))


def weights_dominant(weight: Sequence[int], cosimples: Sequence[Vector]) -> bool:
    return all(pairing(weight, cv) >= 0 for cv in cosimples)


# ---------------------------------------------------------------------------
# Presets


def _signed(*positive: Vector) -> tuple[Vector, ...]:
    """The given vectors, then their negatives in the same order."""
    return positive + tuple(tuple(-x for x in v) for v in positive)


_GL3_ROOTS = _signed((1, -1, 0), (0, 1, -1), (1, 0, -1))

# name: (rank, roots, coroots paired with them by index, simple roots)
PRESETS = {
    "SL2": (1, _signed((2,)), _signed((1,)), [(2,)]),
    # Fundamental weight coordinates: X*(T) is the weight lattice.
    "SL3": (2, _signed((2, -1), (-1, 2), (1, 1)), _signed((1, 0), (0, 1), (1, 1)),
            [(2, -1), (-1, 2)]),
    "SL4": (3, _signed((2, -1, 0), (-1, 2, -1), (0, -1, 2), (1, 1, -1), (-1, 1, 1), (1, 0, 1)),
            _signed((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)),
            [(2, -1, 0), (-1, 2, -1), (0, -1, 2)]),
    "GL2": (2, _signed((1, -1)), _signed((1, -1)), [(1, -1)]),
    "GL3": (3, _GL3_ROOTS, _GL3_ROOTS, [(1, -1, 0), (0, 1, -1)]),
    # Type C2 in the standard symplectic coordinates; also serves as the
    # B2 Weyl group preset.
    "Sp4": (2, _signed((1, -1), (0, 2), (1, 1), (2, 0)), _signed((1, -1), (0, 1), (1, 1), (1, 0)),
            [(1, -1), (0, 2)]),
    "PGL2": (1, _signed((1,)), _signed((2,)), [(1,)]),
    "Gm": (1, (), (), ()),
    "Gm^2": (2, (), (), ()),
    "A1xA1": (2, ((2, 0), (-2, 0), (0, 2), (0, -2)), ((1, 0), (-1, 0), (0, 1), (0, -1)),
              [(2, 0), (0, 2)]),
}

PRESET_NAMES = tuple(PRESETS)


def preset(name: str) -> RootDatum:
    """Named root datum, the name in any case; see PRESET_NAMES."""
    for key, (rank, roots, coroots, simple_roots) in PRESETS.items():
        if key.lower() == name.lower():
            return make_root_datum(rank, roots, coroots, simple_roots, name=key)
    raise KeyError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
