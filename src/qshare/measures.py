"""Entanglement measures.

Entropies of Schmidt spectra for pure states, the two-qubit concurrence and
its closed-form entanglement of formation, the corresponding quantities for
exchange-symmetric (Werner) pair states, and the symmetric sharing bound for
n qubits.  All entanglement values are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    SPECTRUM_CLIP,
    check_density_matrix,
    check_pure_state,
    schmidt_spectrum,
    swap_operator,
)

__all__ = [
    "shannon_entropy",
    "binary_entropy",
    "eof_from_concurrence",
    "pure_entanglement",
    "qubit_concurrence_pure",
    "qubit_concurrence",
    "qubit_eof",
    "WernerParams",
    "werner_concurrence",
    "werner_fit",
    "werner_eof",
    "pairwise_sharing_bound",
    "Decomposition",
]

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


def eof_from_concurrence(c) -> float:
    """Map a concurrence in [0, 1] to the pair entanglement of formation.

    The curve is monotonically increasing with value 0 at c = 0 and 1 at
    c = 1.  Arguments outside [0, 1] are rejected (round-off within 1e-9 of
    the endpoints is snapped in).
    """
    c = float(c)
    if not 0.0 <= c <= 1.0:
        if -1e-9 <= c <= 1.0 + 1e-9:
            c = min(1.0, max(0.0, c))
        else:
            raise ValueError(f"concurrence must lie in [0, 1], got {c}")
    return binary_entropy(0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c))))


def pure_entanglement(psi, dims, cut):
    """Entropy of either reduced state across ``cut`` in bits, per row for a stack of states."""
    return shannon_entropy(schmidt_spectrum(psi, dims, cut))


def qubit_concurrence_pure(psi) -> float:
    """Concurrence of a two-qubit pure state: twice the root of det(rho_A)."""
    psi, _ = check_pure_state(psi, (2, 2))
    if psi.ndim != 1:
        raise ValueError("state must be a flat amplitude vector")
    m = psi.reshape(2, 2)
    rho_a = m @ m.conj().T
    det = float(np.linalg.det(rho_a).real)
    return 2.0 * math.sqrt(max(det, 0.0))


def qubit_concurrence(rho) -> float:
    """Concurrence of a two-qubit mixed state via the spin-flipped spectrum.

    Uses the descending square roots lambda_i of the eigenvalues of
    rho (sy x sy) rho* (sy x sy), conjugation taken in the computational
    basis, and returns max(0, l1 - l2 - l3 - l4).  The lambda_i are computed
    as the singular values of sqrt(rho) (sy x sy) conj(sqrt(rho)), which
    keeps the near-zero ones at round-off instead of sqrt(round-off).
    """
    rho = check_density_matrix(rho, 4)
    w, v = np.linalg.eigh(rho)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    lam = np.linalg.svd(sqrt_rho @ _SIGMA_YY @ sqrt_rho.conj(), compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def qubit_eof(rho) -> float:
    """Entanglement of formation of a two-qubit mixed state."""
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


def werner_concurrence(rho, d) -> float:
    """-Tr(rho F); plays the concurrence role for Werner states when >= 0."""
    d = int(d)
    rho = check_density_matrix(rho, d * d)
    c = -_trace_with_swap(rho, d)
    if abs(c.imag) > 1e-10:
        raise ValueError(f"Tr(rho F) has a non-real part {c.imag:.3e}")
    return float(c.real)


def werner_fit(rho, d, tol=1e-10):
    """Least-squares (a_w, b_w) for rho ~ a_w I + b_w F on a d x d pair.

    Returns a :class:`WernerParams` when the max-norm residual is at most
    ``tol``, otherwise ``None`` (an explicit not-Werner verdict).  Raises
    ``ValueError`` unless ``tol`` is a finite non-negative number.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite non-negative number, got {tol!r}")
    d = int(d)
    rho = check_density_matrix(rho, d * d)
    t_id = float(np.trace(rho).real)
    t_sw = float(_trace_with_swap(rho, d).real)
    # Gram system over span{I, F}: <I,I> = <F,F> = d^2, <I,F> = d.
    den = float(d * d) * float(d * d - 1)
    a_w = (d * d * t_id - d * t_sw) / den
    b_w = (d * d * t_sw - d * t_id) / den
    fitted = a_w * np.identity(d * d) + b_w * swap_operator(d)
    residual = float(np.max(np.abs(rho - fitted)))
    if residual > tol:
        return None
    return WernerParams(a_w=a_w, b_w=b_w, d=d, residual=residual)


def werner_eof(rho, d, tol=1e-10) -> float:
    """Entanglement of formation of a Werner pair state.

    Equals the concurrence curve evaluated at max(0, -Tr(rho F)); states with
    a negative value are separable and score 0.  Raises if ``rho`` is not
    Werner within ``tol``.
    """
    if werner_fit(rho, d, tol) is None:
        raise ValueError(f"state is not of the form a*I + b*F within tolerance {tol:g}")
    c = werner_concurrence(rho, d)
    return eof_from_concurrence(min(1.0, max(0.0, c)))


def pairwise_sharing_bound(n) -> float:
    """Largest symmetric pairwise E_f for n qubits: the curve at 2/n."""
    n = int(n)
    if n < 2:
        raise ValueError("n must be at least 2")
    return eof_from_concurrence(min(1.0, 2.0 / n))


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
        """Density matrix sum_j w_j |phi_j><phi_j| realized by the elements."""
        return np.einsum("j,ja,jb->ab", self.weights, self.states, self.states.conj())
