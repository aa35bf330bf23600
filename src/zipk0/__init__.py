"""Exact computation of Grothendieck rings of stacks of G-zips.

Given a root datum with simply connected derived group, a cocharacter and a
prime, the pipeline in :mod:`zipk0.zipk` produces a finitely presented ring
isomorphic to R(L)/IR(L), where L is the Levi centralising the cocharacter
and I is the Frobenius-difference ideal of R(G), together with its
Z-module invariants; :mod:`zipk0.checks` holds a battery of structural
cross-checks.

The package root imports no submodule: `python -m zipk0.cli` imports the
package before the CLI, and each command loads only the layers it runs.
Import names from their modules, e.g. `from zipk0.zipk import compute_k0`.
"""

__version__ = "0.1.0"
