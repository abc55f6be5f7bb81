"""Entanglement measures.

Entropies of Schmidt spectra for pure states, the two-qubit concurrence and
its closed-form entanglement of formation, and the corresponding quantities
for exchange-symmetric (Werner) pair states.  All entanglement values are in
bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    SPECTRUM_CLIP,
    check_density_matrix,
    check_integer,
    check_pure_state,
    row_blocks,
    schmidt_spectrum,
)

__all__ = [
    "shannon_entropy",
    "binary_entropy",
    "eof_from_concurrence",
    "pure_entanglement",
    "qubit_concurrence",
    "qubit_eof",
    "WERNER_TOLERANCE",
    "WernerParams",
    "werner_concurrence",
    "werner_fit",
    "werner_eof",
    "Decomposition",
]

# Largest max-norm residual at which a pair state still counts as Werner.
WERNER_TOLERANCE = 1e-10

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SIGMA_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def shannon_entropy(p):
    """Entropy of a probability vector in bits, with 0 log 0 := 0.

    Entries below the spectrum clip count as exact zeros.  The sum is not
    required to be exactly 1, so rounded spectra can be evaluated directly.
    A stack of vectors (outcomes along the last axis) gives an array with
    one entropy per vector.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim == 0 or p.shape[-1] == 0:
        raise ValueError("expected a non-empty probability vector")
    if not np.all(np.isfinite(p)):
        raise ValueError("probability vector contains non-finite entries")
    if np.any(p < -1e-10):
        raise ValueError("probability vector has negative entries")
    kept = p > SPECTRUM_CLIP
    terms = np.zeros_like(p)
    terms[kept] = p[kept] * np.log2(p[kept])
    # + 0.0 turns a negative zero from -sum into plain 0.0
    h = -np.sum(terms, axis=-1) + 0.0
    return float(h) if p.ndim == 1 else h


def binary_entropy(x) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x), with h(0) = h(1) = 0."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy argument must lie in [0, 1], got {x}")
    return shannon_entropy(np.array([x, 1.0 - x]))


def eof_from_concurrence(c):
    """Map a concurrence in [0, 1] to the pair entanglement of formation, elementwise over an array.

    The curve is monotonically increasing with value 0 at c = 0 and 1 at
    c = 1.  Arguments outside [0, 1] are rejected (round-off within 1e-9 of
    the endpoints is snapped in).  A scalar gives a float.
    """
    c = np.asarray(c, dtype=float)
    if (outside := ~((c >= -1e-9) & (c <= 1.0 + 1e-9))).any():  # NaN is outside
        raise ValueError(f"concurrence must lie in [0, 1], got {c[outside].flat[0]}")
    x = 0.5 * (1.0 + np.sqrt(1.0 - np.clip(c, 0.0, 1.0) ** 2))
    h = shannon_entropy(np.stack([x, 1.0 - x], axis=-1))
    return float(h) if c.ndim == 0 else h


def pure_entanglement(psi, dims, cut):
    """Entropy of either reduced state across ``cut`` in bits, per row for a stack of states."""
    return shannon_entropy(schmidt_spectrum(psi, dims, cut))


def qubit_concurrence(rho):
    """Concurrence of a two-qubit mixed state via the spin-flipped spectrum, or one per matrix of a (..., 4, 4) stack.

    Uses the descending square roots lambda_i of the eigenvalues of rho (sy x sy) rho* (sy x sy), conjugation taken
    in the computational basis, and returns max(0, l1 - l2 - l3 - l4).  The lambda_i are computed as the singular
    values of sqrt(rho) (sy x sy) conj(sqrt(rho)), which keeps the near-zero ones at round-off instead of
    sqrt(round-off).  Each matrix is validated alone; one matrix gives a float.
    """
    rho = np.asarray(rho, dtype=complex if np.iscomplexobj(rho) else float)
    for matrix in rho.reshape(-1, *rho.shape[-2:]):
        check_density_matrix(matrix, 4)
    w, v = np.linalg.eigh(rho)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    lam = np.linalg.svd(sqrt_rho @ _SIGMA_YY @ sqrt_rho.conj(), compute_uv=False)
    c = np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])
    return float(c) if rho.ndim == 2 else c


def qubit_eof(rho):
    """Entanglement of formation of a two-qubit mixed state, or one per matrix of a (..., 4, 4) stack."""
    return eof_from_concurrence(qubit_concurrence(rho))


@dataclass(frozen=True)
class WernerParams:
    """Coefficients of rho = a_w * I + b_w * F on a d x d pair.

    ``residual`` is the max-norm misfit of the least-squares reconstruction.
    Unit trace forces a_w * d^2 + b_w * d = 1.
    """

    a_w: float
    b_w: float
    d: int
    residual: float


def _trace_with_swap(rho, d):
    """Tr(rho F) without materializing F."""
    return complex(np.einsum("ijji->", rho.reshape(d, d, d, d)))


def _concurrence(rho, d) -> float:
    """-Tr(rho F) of a checked d x d pair state; ``ValueError`` if its imaginary part exceeds 1e-10."""
    if abs((c := -_trace_with_swap(rho, d)).imag) > 1e-10:
        raise ValueError(f"Tr(rho F) has a non-real part {c.imag:.3e}")
    return float(c.real)


def werner_concurrence(rho, d) -> float:
    """-Tr(rho F); plays the concurrence role for Werner states when >= 0."""
    d = check_integer(d, "d", 2)
    return _concurrence(check_density_matrix(rho, d * d), d)


def werner_fit(rho, d):
    """Least-squares (a_w, b_w) for rho ~ a_w I + b_w F on a d x d pair.

    Returns a :class:`WernerParams` when the max-norm residual is at most ``WERNER_TOLERANCE``, otherwise ``None``
    (an explicit not-Werner verdict).  No F is mapped: row r's one is read by index, at column (r mod d) d + r div d,
    and the residual rounds exactly as the dense rho - b_w F - a_w I.
    """
    d = check_integer(d, "d", 2)
    rho = check_density_matrix(rho, d * d)
    t_id = float(np.trace(rho).real)
    t_sw = float(_trace_with_swap(rho, d).real)
    # Gram system over span{I, F}: <I,I> = <F,F> = d^2, <I,F> = d.
    den = float(d * d) * float(d * d - 1)
    a_w = (d * d * t_id - d * t_sw) / den
    b_w = (d * d * t_sw - d * t_id) / den
    rows, residual = np.arange(d * d), 0.0
    ones = rows * (d * d) + (rows % d) * d + rows // d  # flat index of F's one in row r of rho
    for start, stop in row_blocks(rho):  # rho - a_w I - b_w F, one row block at a time
        misfit, at = rho[start:stop].copy(), ones[start:stop] - start * d * d
        np.put(misfit, at, np.take(misfit, at) - b_w)  # not a 2-D fancy index: that raised a table's peak RSS 0.13 MB
        misfit.flat[start :: d * d + 1] -= a_w
        residual = max(residual, float(np.max(np.abs(misfit, out=misfit).real)))
    if residual > WERNER_TOLERANCE:
        return None
    return WernerParams(a_w=a_w, b_w=b_w, d=d, residual=residual)


def werner_values(fit, rho) -> tuple[float, float]:
    """-Tr(rho F) and E_f of ``rho``, reusing the validation of ``fit = werner_fit(rho, d)``; raises as werner_eof."""
    if fit is None:
        raise ValueError(f"state is not of the form a*I + b*F within tolerance {WERNER_TOLERANCE:g}")
    c = _concurrence(rho, fit.d)
    return c, eof_from_concurrence(min(1.0, max(0.0, c)))


def werner_eof(rho, d) -> float:
    """Entanglement of formation of a Werner pair state.

    Equals the concurrence curve at max(0, -Tr(rho F)); states with a negative value are separable and score 0.
    ``ValueError`` if ``rho`` is not Werner within ``WERNER_TOLERANCE``.  One ``werner_fit`` validates ``rho``.
    """
    rho = np.asarray(rho, dtype=complex if np.iscomplexobj(rho) else float)
    return werner_values(werner_fit(rho, d), rho)[1]


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Weighted pure states realizing a density matrix.

    ``weights`` are positive and sum to 1; ``states`` holds one unit-norm
    amplitude row per element, validated by ``check_pure_state``.
    """

    weights: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        states = np.asarray(self.states, dtype=complex)
        if weights.ndim != 1 or states.ndim != 2 or weights.size != states.shape[0]:
            raise ValueError("need one weight per state row")
        if not np.all(weights > 0.0):
            raise ValueError("weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-10:
            raise ValueError("weights must sum to 1")
        check_pure_state(states, states.shape[1:], name="element state")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "states", states)

    def __len__(self):
        return self.weights.size

    def mixture(self) -> np.ndarray:
        """Density matrix sum_j w_j |phi_j><phi_j| realized by the elements.

        With R, I the real and imaginary parts of the state rows and W = diag(w), the real part is
        R^T W R + I^T W I and the imaginary part P - P^T with P = I^T W R, exactly antisymmetric.  Real
        products of a 49-element orbit stay below OpenBLAS's threading threshold, where one complex
        product would wake its helper threads for every call.
        """
        real, imag = self.states.real, self.states.imag
        weighted_real, weighted_imag = real.T * self.weights, imag.T * self.weights
        cross = weighted_imag @ real
        return (weighted_real @ real + weighted_imag @ imag) + 1j * (cross - cross.T)
