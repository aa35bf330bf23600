"""Resource caps: the error a cap raises and the default degree cap.

Every layer that can run away (the Groebner completion, invariant
expression, Weyl enumeration, the Hecke window, the primality test) raises
ResourceCapError or a subclass, and the CLI turns it into exit 4 with a
partial report.  The CLI needs both names before it knows which command it
runs, so they live here rather than in the Groebner engine.
"""


class ResourceCapError(RuntimeError):
    """A configured resource cap was exceeded (never silent)."""


DEFAULT_MAX_DEGREE = 60
