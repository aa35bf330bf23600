"""Exact computation of Grothendieck rings of stacks of G-zips.

Given a root datum with simply connected derived group, a cocharacter and a
prime, the pipeline in :mod:`zipk0.zipk` produces a finitely presented ring
isomorphic to R(L)/IR(L), where L is the Levi centralising the cocharacter
and I is the Frobenius-difference ideal of R(G), together with its
Z-module invariants; :mod:`zipk0.checks` holds a battery of structural
cross-checks.
"""

__version__ = "0.1.0"

from .rootdata import (  # noqa: F401
    RootDatum,
    RootDatumError,
    levi_from_cocharacter,
    make_root_datum,
    preset,
    validate,
    weyl_enumerate,
)
from .zipk import CocharacterDatum, compute_k0  # noqa: F401
