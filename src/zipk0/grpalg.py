"""The group algebra Z[X*(T)]: Laurent characters with exact integer coefficients.

An element is a dict from exponent vectors (characters) to nonzero integers,
the same sparse shape as groebner.Poly.  This is the representation ring of
the torus; the Weyl action and the Frobenius endomorphism below make it the
workhorse ring for everything downstream.  Every function here returns a new
dict and leaves its arguments as they are, since callers cache and share
elements.
"""

from __future__ import annotations

from operator import add
from typing import Optional, Sequence

from .rootdata import Matrix, Vector, WeylGroup, mat_vec, weyl_orbit

Element = dict[Vector, int]  # {character: nonzero int}


def multiply(f: Element, g: Element) -> Element:
    """The product f*g, without zero coefficients."""
    out: Element = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def subtract(f: Element, g: Element) -> Element:
    """The difference f - g, without zero coefficients."""
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) - c
    return {e: c for e, c in out.items() if c}


# ---------------------------------------------------------------------------
# Group actions


def weyl_act(w: Matrix, f: Element) -> Element:
    """e^chi -> e^{w chi}, extended Z-linearly; a ring automorphism."""
    return {mat_vec(w, e): c for e, c in f.items()}


def orbit_sum(weyl: WeylGroup, weight: Sequence[int]) -> Element:
    """m_lambda: the sum of e^nu over the orbit (each orbit element once)."""
    return {nu: 1 for nu in weyl_orbit(weyl, weight)}


def frobenius(f: Element, p: int, twist: Optional[Matrix] = None) -> Element:
    """e^chi -> e^{p * tau(chi)}: pullback along the (possibly twisted)
    Frobenius.  tau is unimodular (rootdata.validate), so p*tau is injective
    and the images of distinct characters stay distinct."""
    return {
        tuple(p * x for x in (mat_vec(twist, e) if twist is not None else e)): c
        for e, c in f.items()
    }
