"""Entanglement sharing among qudits: constructions, measures, and numerics."""

from .linalg import (
    SPECTRUM_CLIP,
    partial_trace,
    reduced_density_matrix,
    schmidt_spectrum,
    swap_operator,
)
from .measures import (
    Decomposition,
    WernerParams,
    binary_entropy,
    eof_from_concurrence,
    pure_entanglement,
    qubit_concurrence,
    qubit_eof,
    shannon_entropy,
    werner_concurrence,
    werner_eof,
    werner_fit,
)
from .optimize import (
    PAIR_CUT,
    PAIR_DIMS,
    OptimizationConfig,
    OptimizationResult,
    ScanResult,
    average_entanglement,
    maximize_pair_eof,
    min_span_entanglement,
    min_span_entanglements,
    orbit_certificate,
    pair_eof,
    span_entanglement,
)
from .states import (
    MODULUS,
    ResidueFamily,
    SymmetryOps,
    cyclic_permute,
    gauge_fix,
    orbit_decomposition,
    quadratic_residues,
    singlet_pair_reduced,
    singlet_state,
    symmetry_operators,
    w_state,
)

__version__ = "0.1.0"
