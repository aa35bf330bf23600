"""The group algebra Z[X*(T)]: Laurent characters with exact integer coefficients.

Elements are finite maps from exponent vectors (characters) to nonzero
integers.  This is the representation ring of the torus; the Weyl action,
Frobenius endomorphism and Demazure operators below make it the workhorse
ring for everything downstream.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Optional, Sequence

from .lattice import kernel_basis
from .rootdata import (
    Matrix,
    RootDatum,
    Vector,
    WeylGroup,
    mat_vec,
    pairing,
    reflection_matrix,
    weyl_orbit,
)


class GroupAlgebraElement:
    """Element of Z[X*(T)]; immutable, hashable, exact."""

    __slots__ = ("rank", "terms", "_hash")

    def __init__(self, rank: int, terms: Mapping[Vector, int]):
        self.rank = rank
        cleaned = {}
        for e, c in terms.items():
            if c:
                e = tuple(int(x) for x in e)
                if len(e) != rank:
                    raise ValueError(f"exponent {e} does not have rank {rank}")
                cleaned[e] = cleaned.get(e, 0) + int(c)
        self.terms = {e: c for e, c in cleaned.items() if c}
        self._hash = None

    # -- basic ring structure ------------------------------------------------

    def _check(self, other: "GroupAlgebraElement") -> None:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return GroupAlgebraElement(self.rank, out)

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return self + (-other)

    def __neg__(self) -> "GroupAlgebraElement":
        return GroupAlgebraElement(self.rank, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupAlgebraElement(self.rank, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        out: dict[Vector, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return GroupAlgebraElement(self.rank, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupAlgebraElement)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.rank, tuple(sorted(self.terms.items()))))
        return self._hash

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exponent: Sequence[int]) -> int:
        return self.terms.get(tuple(exponent), 0)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"e{i}^{k}" if k != 1 else f"e{i}"
                for i, k in enumerate(e)
                if k
            )
            if not mono:
                bits.append(f"{c:+d}")
            elif c == 1:
                bits.append(f"+{mono}")
            elif c == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{c:+d}*{mono}")
        return "".join(bits)


def one(rank: int) -> GroupAlgebraElement:
    return GroupAlgebraElement(rank, {(0,) * rank: 1})


def monomial(rank: int, exponent: Sequence[int]) -> GroupAlgebraElement:
    return GroupAlgebraElement(rank, {tuple(int(x) for x in exponent): 1})


# ---------------------------------------------------------------------------
# Group actions


def weyl_act(w: Matrix, f: GroupAlgebraElement) -> GroupAlgebraElement:
    """e^chi -> e^{w chi}, extended Z-linearly; a ring automorphism."""
    return GroupAlgebraElement(f.rank, {mat_vec(w, e): c for e, c in f.terms.items()})


def orbit_sum(weyl: WeylGroup, weight: Sequence[int]) -> GroupAlgebraElement:
    """m_lambda: the sum of e^nu over the orbit (each orbit element once)."""
    rank = len(weight)
    return GroupAlgebraElement(rank, {nu: 1 for nu in weyl_orbit(weyl, weight)})


def frobenius(
    f: GroupAlgebraElement, p: int, twist: Optional[Matrix] = None
) -> GroupAlgebraElement:
    """e^chi -> e^{p * tau(chi)}: pullback along the (possibly twisted) Frobenius."""
    out: dict[Vector, int] = {}
    for e, c in f.terms.items():
        img = mat_vec(twist, e) if twist is not None else e
        key = tuple(p * x for x in img)
        out[key] = out.get(key, 0) + c
    return GroupAlgebraElement(f.rank, out)


# ---------------------------------------------------------------------------
# Demazure operators


def demazure(rd: RootDatum, simple_index: int, f: GroupAlgebraElement) -> GroupAlgebraElement:
    """delta_alpha(f) = (f - e^{-alpha} s_alpha(f)) / (1 - e^{-alpha}).

    Normalized so delta_alpha(1) = 1; the divided difference attached to the
    simple root alpha.  On a monomial the quotient is a geometric series in
    e^{-alpha}: with n = <lambda, alpha^vee>, delta_alpha(e^lambda) is
    sum_{k=0..n} e^{lambda - k alpha} for n >= 0, 0 for n = -1 and
    -sum_{k=1..-n-1} e^{lambda + k alpha} for n <= -2; it extends Z-linearly.
    """
    if simple_index not in range(len(rd.simple_indices)):
        raise ValueError(f"no simple root with index {simple_index}")
    root_idx = rd.simple_indices[simple_index]
    alpha = rd.roots[root_idx]
    coroot = rd.coroots[root_idx]
    out: dict[Vector, int] = {}
    for e, c in f.terms.items():
        n = pairing(e, coroot)
        ks, sign = (range(-n, 1), c) if n >= 0 else (range(1, -n), -c)
        for k in ks:
            term = tuple(a + k * b for a, b in zip(e, alpha))
            out[term] = out.get(term, 0) + sign
    return GroupAlgebraElement(f.rank, out)


# ---------------------------------------------------------------------------
# Windowed Hecke invariants


def window_box(rank: int, radius: int) -> list[Vector]:
    """All exponents with every coordinate in [-radius, radius], sorted."""
    return sorted(itertools.product(range(-radius, radius + 1), repeat=rank))


def hecke_invariants_window(
    rd: RootDatum, radius: int
) -> list[GroupAlgebraElement]:
    """Z-basis of {f supported in the box: delta_alpha f = f and s_alpha f = f}.

    The conditions generate the annihilator of the augmentation left ideal in
    its finite presentation {delta_alpha - 1} plus Weyl invariance; equality
    with genuine invariants is property-tested elsewhere.
    """
    box = window_box(rd.rank, radius)
    rows: list[list[int]] = []

    def add_condition(images: list[GroupAlgebraElement]):
        # images[i] = (operator - identity) applied to basis monomial i.
        support = sorted({e for img in images for e in img.terms})
        for e in support:
            row = [img.terms.get(e, 0) for img in images]
            if any(row):
                rows.append(row)

    for i in range(len(rd.simple_indices)):
        idx = rd.simple_indices[i]
        s = reflection_matrix(rd.roots[idx], rd.coroots[idx])
        s_images = []
        d_images = []
        for e in box:
            mono = monomial(rd.rank, e)
            s_images.append(weyl_act(s, mono) - mono)
            d_images.append(demazure(rd, i, mono) - mono)
        add_condition(s_images)
        add_condition(d_images)

    return [
        GroupAlgebraElement(rd.rank, {box[i]: c for i, c in enumerate(v) if c})
        for v in kernel_basis(rows, len(box))
    ]
