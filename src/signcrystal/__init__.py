"""Exact-arithmetic signature crystals: sign-word combinatorics, charged
multipartition and dominant-weight realizations, depth and support
computation, crystal graphs, and exhaustive verification suites."""

from .engine import (
    CrystalGraph,
    GraphEdge,
    SupportDescriptor,
    VerifyReport,
    build_graph,
    depth,
    string_decomposition,
    support,
    verify,
)
from .errors import (
    CrystalError,
    DegenerateClassError,
    DTieError,
    InvariantViolationError,
    ResourceCeilingError,
    ValidationError,
)
from .params import IRRATIONAL, Params, ZClass, cyclotomic_c, hecke_parameters
from .realizations import (
    ZBoundary,
    boundaries,
    boundary,
    class_member,
    class_representative,
    crystal_add,
    crystal_remove,
    gl_crystal_add,
    gl_crystal_remove,
    gl_positions,
    gl_sign_string,
    kgroup_induction,
    kgroup_restriction,
)
from .signstrings import (
    e_tilde,
    f_tilde,
    h_minus,
    h_plus,
    minus_flips,
    plus_flips,
    reduced_form,
    succ_compare,
    suffix_h_minus,
    weight,
)
from .young import (
    BoxRef,
    Multipartition,
    addable_corners,
    multipartitions_of,
    multipartitions_up_to,
    partitions_of,
    removable_corners,
)

__version__ = "0.1.0"
