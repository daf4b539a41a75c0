"""Exact tau-tilting toolkit for bound quiver algebras.

Everything runs over an exact field (rationals by default), so every
verdict — translate isomorphism, slice completeness, equivalence checks —
is a theorem about the input, not a numerical approximation.

The headline entry points are re-exported here; the submodules hold the
rest:

``exactlin``
    exact matrices over Q and prime fields, and sparse row reduction.
``algebra``
    presented (bound quiver) algebras, quotients, one-point and split
    extensions.
``modrep``
    finite-dimensional representations, Hom/End, decomposition.
``artheory``
    the translate tau, almost split sequences, the AR quiver, Ext.
``tautilt``
    tau-tilting tests, tau-slices, tilted-ness search, equivalence reports.
``formats``
    the on-disk ``.alg`` / ``.rep`` formats: parsers and canonical printers.
``cli``
    the ``tauslice`` command.
"""

from .exactlin import Matrix, QQ, PrimeField
from .algebra import (
    Quiver, Arrow, PresentedAlgebra, CapExceeded,
    quotient, one_point_extension, one_point_coextension,
    ideal_bimodule, split_extension, presentation_isomorphism,
)
from .modrep import (
    Representation, Morphism, simple, projective, injective, dual,
    direct_sum, decompose, is_isomorphic, is_indecomposable,
    hom_basis, hom_dim, annihilator_span, is_faithful, is_sincere,
    fac_member, sub_member,
)
from .artheory import (
    tau, tau_inverse, ar_quiver, almost_split_sequence,
    ext_dim, end_algebra, is_hereditary,
)
from .tautilt import (
    is_tau_rigid, is_tau_tilting, is_support_tau_tilting, is_tilting,
    count_support_tau_tilting, slice_candidate, is_tau_slice,
    is_complete_tau_slice, is_complete_slice, find_complete_tau_slices,
    orbit_graph, is_simply_connected_component, is_tilted, bb_verify,
    bb_verify_dual, quotient_preservation_check, onepoint_slice_extend,
    splitex_check, is_convex_in_mod_a, is_weakly_convex, is_sectionally_convex,
)
from .formats import parse_algebra_text, parse_rep_text, print_algebra, print_rep

__version__ = "0.1.0"

__all__ = [
    "Matrix", "QQ", "PrimeField",
    "Quiver", "Arrow", "PresentedAlgebra", "CapExceeded",
    "quotient", "one_point_extension", "one_point_coextension",
    "ideal_bimodule", "split_extension", "presentation_isomorphism",
    "Representation", "Morphism", "simple", "projective", "injective",
    "dual", "direct_sum", "decompose", "is_isomorphic", "is_indecomposable",
    "hom_basis", "hom_dim", "annihilator_span", "is_faithful", "is_sincere",
    "fac_member", "sub_member",
    "tau", "tau_inverse", "ar_quiver", "almost_split_sequence",
    "ext_dim", "end_algebra", "is_hereditary",
    "is_tau_rigid", "is_tau_tilting", "is_support_tau_tilting",
    "is_tilting", "count_support_tau_tilting", "slice_candidate",
    "is_tau_slice", "is_complete_tau_slice", "is_complete_slice",
    "find_complete_tau_slices", "orbit_graph",
    "is_simply_connected_component", "is_tilted",
    "bb_verify", "bb_verify_dual", "quotient_preservation_check",
    "onepoint_slice_extend", "splitex_check",
    "is_convex_in_mod_a", "is_weakly_convex", "is_sectionally_convex",
    "parse_algebra_text", "parse_rep_text", "print_algebra", "print_rep",
]
