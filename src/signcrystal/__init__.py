"""Exact-arithmetic signature crystals: sign-word combinatorics, charged
multipartition and dominant-weight realizations, depth and support
computation, crystal graphs, and exhaustive verification suites.

The public names below are re-exported lazily (PEP 562): importing the
package loads no submodule, and the first use of a name imports the one
submodule that defines it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "engine": (
        "CrystalGraph",
        "GraphEdge",
        "SupportDescriptor",
        "VerifyReport",
        "build_graph",
        "depth",
        "string_decomposition",
        "support",
        "verify",
    ),
    "errors": (
        "CrystalError",
        "ResourceCeilingError",
        "ValidationError",
    ),
    "params": ("IRRATIONAL", "Params", "ZClass", "cyclotomic_c", "hecke_parameters"),
    "realizations": (
        "ZBoundary",
        "boundaries",
        "boundary",
        "class_member",
        "class_representative",
        "crystal_add",
        "crystal_remove",
        "gl_crystal_add",
        "gl_crystal_remove",
        "gl_word",
        "kgroup_induction",
        "kgroup_restriction",
    ),
    "signstrings": (
        "e_tilde",
        "f_tilde",
        "h_minus",
        "h_plus",
        "minus_flips",
        "plus_flips",
        "reduced_form",
        "succ_compare",
        "suffix_h_minus",
        "weight",
    ),
    "young": (
        "BoxRef",
        "Multipartition",
        "corners",
        "multipartitions_of",
        "multipartitions_up_to",
        "partitions_of",
    ),
}

# public name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
