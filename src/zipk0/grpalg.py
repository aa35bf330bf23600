"""The group algebra Z[X*(T)]: Laurent characters with exact integer coefficients.

Elements are finite maps from exponent vectors (characters) to nonzero
integers.  This is the representation ring of the torus; the Weyl action
and the Frobenius endomorphism below make it the workhorse ring for
everything downstream.
"""

from __future__ import annotations

from operator import add
from typing import Mapping, Optional, Sequence

from .rootdata import Matrix, Vector, WeylGroup, mat_vec, weyl_orbit


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

    @classmethod
    def _trusted(cls, rank: int, terms: Mapping[Vector, int]) -> "GroupAlgebraElement":
        """An element from terms this module built: distinct exponent tuples of
        length `rank`, so only the zero coefficients need dropping."""
        self = object.__new__(cls)
        self.rank = rank
        self.terms = {e: c for e, c in terms.items() if c}
        self._hash = None
        return self

    # -- basic ring structure ------------------------------------------------

    def _check(self, other: "GroupAlgebraElement") -> None:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return GroupAlgebraElement._trusted(self.rank, out)

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return GroupAlgebraElement._trusted(self.rank, out)

    def __neg__(self) -> "GroupAlgebraElement":
        return GroupAlgebraElement._trusted(self.rank, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupAlgebraElement._trusted(self.rank, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        out: dict[Vector, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return GroupAlgebraElement._trusted(self.rank, out)

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
    return GroupAlgebraElement._trusted(rank, {(0,) * rank: 1})


def monomial(rank: int, exponent: Sequence[int]) -> GroupAlgebraElement:
    return GroupAlgebraElement(rank, {tuple(int(x) for x in exponent): 1})


# ---------------------------------------------------------------------------
# Group actions


def weyl_act(w: Matrix, f: GroupAlgebraElement) -> GroupAlgebraElement:
    """e^chi -> e^{w chi}, extended Z-linearly; a ring automorphism."""
    return GroupAlgebraElement._trusted(f.rank, {mat_vec(w, e): c for e, c in f.terms.items()})


def orbit_sum(weyl: WeylGroup, weight: Sequence[int]) -> GroupAlgebraElement:
    """m_lambda: the sum of e^nu over the orbit (each orbit element once)."""
    rank = len(weight)
    return GroupAlgebraElement._trusted(rank, {nu: 1 for nu in weyl_orbit(weyl, weight)})


def frobenius(
    f: GroupAlgebraElement, p: int, twist: Optional[Matrix] = None
) -> GroupAlgebraElement:
    """e^chi -> e^{p * tau(chi)}: pullback along the (possibly twisted) Frobenius."""
    out: dict[Vector, int] = {}
    for e, c in f.terms.items():
        img = mat_vec(twist, e) if twist is not None else e
        key = tuple(p * x for x in img)
        out[key] = out.get(key, 0) + c
    return GroupAlgebraElement._trusted(f.rank, out)
