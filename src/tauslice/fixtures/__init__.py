"""Packaged worked examples: bound quiver algebras with named modules.

The ``.alg`` / ``.rep`` files in this directory are in the canonical format
of :mod:`tauslice.formats`.  ``algebra(name)`` and ``module(a, name, rep)`` load
them; ``members(a, name, group)`` loads one of the named compatible families
(slice candidates, summand lists) from :data:`MEMBER_SETS`.

Available algebras:

==============  ============================================================
``a2``          path algebra of 1 -> 2
``a3``          path algebra of 1 -> 2 -> 3
``ex1``         two-cycle ladder on three vertices, four arrows
``ex2``         cycle 1 -> 3 -> 2 -> 1 with a pendant vertex 4
``fig1``        twelve-dimensional algebra on five vertices, two 3-cycles
``fig2``        doubled 3-cycle with radical square zero (infinite type)
``fig3``        two commutativity-free paths into vertex 1, radical bound
``ex5_tilde``   four-vertex algebra with one commutativity relation
``ex5_a``       ``ex5_tilde`` modulo the arrow ``om``
``ex5_aprime``  oriented 3-cycle with radical square zero
``ex5_c``       ``ex5_a`` modulo the arrow ``al`` (a tilted algebra)
==============  ============================================================
"""

from importlib import resources

from ..formats import parse_algebra_text, parse_rep_text

#: named compatible module families, as (algebra, group) -> [rep names]
MEMBER_SETS = {
    ("ex1", "m"): ["m123", "m12", "s1"],
    ("ex2", "m"): ["m1", "m2", "m3", "m4"],
    ("fig1", "sigma"): ["m432", "m43", "m543", "s4", "m14"],
    ("fig1", "sigma_tilde"): ["m432", "m43", "s3", "m53", "m31"],
    ("fig2", "sigma"): ["i2", "s1", "p3"],
    ("fig3", "sigma"): ["m21", "m231", "s2", "m542", "m52"],
    ("ex5_tilde", "sigma"): ["m21", "s2", "m32", "m42"],
    ("ex5_c", "sigma"): ["m21", "s2", "m32", "m42"],
    ("ex5_aprime", "sigma1"): ["m21", "s2", "m32"],
    ("ex5_aprime", "sigma2"): ["m13", "s1", "m21"],
}

ALGEBRAS = [
    "a2", "a3", "ex1", "ex2", "fig1", "fig2", "fig3",
    "ex5_tilde", "ex5_a", "ex5_aprime", "ex5_c",
]


def path(filename):
    """Filesystem path of a packaged fixture file (for CLI invocation)."""
    return resources.files(__package__).joinpath(filename)


def _read(filename):
    return path(filename).read_text()


def algebra(name):
    return parse_algebra_text(_read(f"{name}.alg"))


def module(a, name, rep_name):
    """Load ``<name>_<rep_name>.rep`` as a representation of ``a``."""
    return parse_rep_text(_read(f"{name}_{rep_name}.rep"), a)


def members(a, name, group):
    """Load a named module family over a shared algebra instance."""
    return [module(a, name, r) for r in MEMBER_SETS[(name, group)]]
