"""Exact permutation pattern counting via corner trees and double posets."""

from .core import (
    Classification,
    DoublePoset,
    Permutation,
    StrictPoset,
    anti,
    are_isomorphic,
    canonical_form,
    classify,
    double_poset,
    dp_to_perm,
    naive_pattern_count,
    perm,
    perm_to_dp,
    std,
    swap,
    transitive_closure,
    transitive_reduction,
)
from .indexstructs import DuplicateColumn, ProductTree, SumTree
from .trees import (
    CornerTree,
    SNPolytree,
    ct_to_snpolytree,
    dp_to_snpolytree,
    enumerate_snpolytrees,
    snpolytree_to_ct,
    snpolytree_to_dp,
)
from .counting import (
    Inapplicable,
    StreamWestCounter,
    count,
    count_all_west,
    count_corner_tree,
    count_corner_trees,
    naive_morphism_count,
)
from .gen3214 import (
    ArboDecomposition,
    ArboNE,
    bare_3214,
    build_arbo,
    count_box,
    count_gen_3214,
    count_type_a,
    count_type_b_not_a,
    decompose,
    level5_arbos,
    validate_arbo,
)
from .algebra import (
    DPVector,
    MorphismClassCounts,
    PatternVector,
    check_factorization,
    enumerate_morphisms,
    morphism_class_counts,
    new_direction_family,
    new_direction_vectors,
    pattern_vector,
    phi_mono_from_mor,
    phi_regmono_from_mor,
    rank_of_family,
    twin_tree_family,
)

__version__ = "0.1.0"
