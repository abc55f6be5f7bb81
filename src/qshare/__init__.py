"""Entanglement sharing among qudits: constructions, measures, and numerics.

Every public name is loaded from its module on first use (PEP 562), so
``import qshare`` alone loads no numpy and leaves the BLAS library unstarted.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "linalg": ("SPECTRUM_CLIP", "partial_trace", "reduced_density_matrix", "schmidt_spectrum", "swap_operator"),
    "measures": (
        "Decomposition",
        "WernerParams",
        "binary_entropy",
        "eof_from_concurrence",
        "pure_entanglement",
        "qubit_concurrence",
        "qubit_eof",
        "shannon_entropy",
        "werner_concurrence",
        "werner_eof",
        "werner_fit",
    ),
    "optimize": (
        "PAIR_CUT",
        "PAIR_DIMS",
        "OptimizationConfig",
        "OptimizationResult",
        "ScanResult",
        "average_entanglement",
        "maximize_pair_eof",
        "min_span_entanglement",
        "min_span_entanglements",
        "orbit_certificate",
        "pair_eof",
        "span_entanglement",
    ),
    "states": (
        "MODULUS",
        "ResidueFamily",
        "SymmetryOps",
        "cyclic_permute",
        "gauge_fix",
        "orbit_decomposition",
        "quadratic_residues",
        "singlet_pair_reduced",
        "singlet_state",
        "symmetry_operators",
        "w_state",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_HOME]


def __getattr__(name):
    # Importing a submodule binds it on the package, so a module name comes here only once.
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
