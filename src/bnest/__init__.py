"""b-nested common and conserved intervals of permutation sets.

The library renumbers every input so the first permutation is the identity,
builds the PQ-tree of common intervals or the strong-interval inclusion tree
of conserved intervals, and enumerates or counts the b-nested members in
time proportional to tree size plus output size.  A brute-force oracle
(bnest.oracle) provides independent ground truth for small instances.
"""

from .core import (
    BadFrame,
    DuplicateElement,
    Interval,
    LengthMismatch,
    NotAPermutation,
    Permutation,
    PermutationError,
    PermutationSet,
    SignedPermutation,
    apply_frame,
    is_common_interval,
    is_conserved_interval,
    normalize,
    parse_permutations,
    validate_conserved_frame,
)
from .pqtree import InternalStructureError, PQNode, PQTree, build_pqtree
from .common_enum import (
    ScanStats,
    annotate,
    count_b_nested_common,
    enumerate_b_nested_common,
)
from .conserved_tree import (
    ConservedNode,
    ConservedTree,
    build_conserved_tree,
    irreducible_conserved_intervals,
)
from .conserved_enum import (
    annotate_conserved,
    count_b_nested_conserved,
    enumerate_b_nested_conserved,
)

__version__ = "0.1.0"

__all__ = [
    "BadFrame",
    "ConservedNode",
    "ConservedTree",
    "DuplicateElement",
    "InternalStructureError",
    "Interval",
    "LengthMismatch",
    "NotAPermutation",
    "PQNode",
    "PQTree",
    "Permutation",
    "PermutationError",
    "PermutationSet",
    "ScanStats",
    "SignedPermutation",
    "annotate",
    "annotate_conserved",
    "apply_frame",
    "build_conserved_tree",
    "build_pqtree",
    "count_b_nested_common",
    "count_b_nested_conserved",
    "enumerate_b_nested_common",
    "enumerate_b_nested_conserved",
    "irreducible_conserved_intervals",
    "is_common_interval",
    "is_conserved_interval",
    "normalize",
    "parse_permutations",
    "validate_conserved_frame",
]
