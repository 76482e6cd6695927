"""Exact invariants of group-colored Heegaard diagrams.

Public surface: exact Gaussian-rational scalars, finite groups and
homomorphisms, Hopf group-coalgebras with full axiom validation, colored
Heegaard diagram combinatorics with the move calculus, the contraction
invariant, and the independent lift-counting oracle.
"""

from .scalars import Scalar, parse_scalar, format_scalar
from .groups import (
    GroupTable,
    GroupHom,
    Report,
    cyclic_group,
    symmetric_group,
    trivial_group,
    group_from_table,
    evaluate_word,
    format_word,
    validate_hom,
    sign_hom_s3,
    mod_hom,
    trivial_hom,
)
from .hopf import (
    HopfPiCoalgebra,
    IntegralData,
    validate_hopf,
    derive_integral_data,
    check_structural_lemmas,
    build_function_hopf,
    build_kac_paljutkin,
    dual_variants,
    validate_crossing,
    conjugation_crossing,
)
from .heegaard import (
    Crossing,
    Diagram,
    MoveSpec,
    MoveError,
    validate_diagram,
    extract_words,
    enumerate_colorings,
    lens_diagram,
    connected_sum,
    apply_move,
    mirror_diagram,
    cancelling_pairs,
)
from .invariant import contract_invariant
from .homcount import LiftCountQuery, count_lifts

__version__ = "0.1.0"
