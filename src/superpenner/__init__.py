"""Penner-type coordinates on decorated super-Teichmueller space.

Trivalent fatgraphs with half-edge combinatorics, spin structures as
orientation classes modulo fatgraph reflections, Grassmann-valued
lambda-lengths / mu-invariants, and the super Ptolemy flip.
"""

from .grassmann import (
    FLOAT,
    RATIONAL,
    GrassmannAlgebra,
    GrassmannElement,
    GrassmannError,
    ginv,
    ginvsqrt,
    glog,
    gmul,
    gsqrt,
)
from .fatgraph import (
    FatGraph,
    FatGraphError,
    FlipRecord,
    NonGenericFlipError,
    boundary_cycles,
    find_isomorphisms,
    parse_fatgraph,
    topology,
    whitehead_flip,
)
from .spin import (
    OrientationState,
    SpinError,
    brute_force_spin_classes,
    classify_punctures,
    enumerate_spin_classes,
    flip_orientation,
    reflect,
    same_spin_class,
    spin_class_count,
)
from .decorated import (
    DecoratedState,
    check_puncture_relation,
    classical_limit,
    default_state,
    shear_coordinates,
    states_equal_mod_sign,
    superflip,
)

__all__ = [
    "FLOAT",
    "RATIONAL",
    "GrassmannAlgebra",
    "GrassmannElement",
    "GrassmannError",
    "ginv",
    "ginvsqrt",
    "glog",
    "gmul",
    "gsqrt",
    "FatGraph",
    "FatGraphError",
    "FlipRecord",
    "NonGenericFlipError",
    "boundary_cycles",
    "find_isomorphisms",
    "parse_fatgraph",
    "topology",
    "whitehead_flip",
    "OrientationState",
    "SpinError",
    "brute_force_spin_classes",
    "classify_punctures",
    "enumerate_spin_classes",
    "flip_orientation",
    "reflect",
    "same_spin_class",
    "spin_class_count",
    "DecoratedState",
    "check_puncture_relation",
    "classical_limit",
    "default_state",
    "shear_coordinates",
    "states_equal_mod_sign",
    "superflip",
]

__version__ = "0.1.0"
