"""Dense complex linear algebra for small tensor-product systems.

Composite indices are big-endian on ket labels: |i1 ... in> maps to the flat
index sum_k i_k * prod_{m>k} d_m, so the first subsystem is the most
significant digit.  This is numpy's C-order reshape convention, which lets
amplitude vectors round-trip through ``reshape(dims)`` without relabeling.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SPECTRUM_CLIP",
    "swap_operator",
    "partial_trace",
    "reduced_density_matrix",
    "hermitian_eigensystem",
    "schmidt_spectrum",
    "check_pure_state",
    "check_density_matrix",
]

# Eigenvalues below this are treated as exact zeros before any logarithm,
# so round-off negatives never reach a log.
SPECTRUM_CLIP = 1e-12


def _as_square_matrix(m, name="matrix"):
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _subsystems(keep, n, name="keep"):
    """Normalize a subsystem selection to a sorted tuple of valid indices."""
    keep = tuple(sorted({int(k) for k in keep}))
    if not keep:
        raise ValueError(f"{name} must select at least one subsystem")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"{name}={keep} out of range for {n} subsystems")
    return keep


def check_pure_state(psi, dims, *, atol=1e-10, name="state"):
    """Validate a flat amplitude vector, or a 2-D stack of them as rows.

    Returns the amplitudes as a complex array of the input's shape together
    with the dimension tuple.  Rejects wrong lengths, non-finite entries, and
    any vector whose Euclidean norm deviates from 1 by more than ``atol``.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim not in (1, 2):
        raise ValueError(f"{name} must be a flat amplitude vector or a stack of them as rows")
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"invalid subsystem dimensions {dims}")
    total = math.prod(dims)
    if psi.shape[-1] != total:
        raise ValueError(f"{name} has {psi.shape[-1]} amplitudes, expected {total} for dims {dims}")
    if not np.all(np.isfinite(psi)):
        raise ValueError(f"{name} contains non-finite amplitudes")
    norm_dev = np.abs(np.linalg.norm(psi, axis=-1) - 1.0)
    if np.any(norm_dev > atol):
        raise ValueError(f"{name} is not normalized: |norm - 1| = {np.max(norm_dev):.3e}")
    return psi, dims


def check_density_matrix(rho, dim=None, *, atol=1e-10, psd=True, name="rho"):
    """Validate Hermiticity, unit trace and (optionally) positivity.

    ``psd`` costs an eigendecomposition, so callers on hot paths may skip it.
    """
    rho = _as_square_matrix(rho, name)
    if dim is not None and rho.shape[0] != int(dim):
        raise ValueError(f"{name} must be {dim} x {dim}, got shape {rho.shape}")
    herm_dev = float(np.max(np.abs(rho - rho.conj().T)))
    if herm_dev > atol:
        raise ValueError(f"{name} is not Hermitian: max deviation {herm_dev:.3e}")
    trace_dev = abs(np.trace(rho) - 1.0)
    if trace_dev > atol:
        raise ValueError(f"{name} does not have unit trace: deviation {trace_dev:.3e}")
    if psd:
        lowest = float(np.linalg.eigvalsh(rho)[0])
        if lowest < -1e-10:
            raise ValueError(f"{name} has a negative eigenvalue {lowest:.3e}")
    return rho


def swap_operator(d):
    """Pair-exchange operator F = sum_ij |ij><ji| on two d-level systems.

    F is Hermitian, F @ F = I, and trace(F) = d.
    """
    d = int(d)
    if d < 1:
        raise ValueError("d must be a positive integer")
    rows = np.arange(d * d)
    cols = (rows % d) * d + rows // d
    f = np.zeros((d * d, d * d), dtype=complex)
    f[rows, cols] = 1.0
    return f


def partial_trace(rho, dims, keep):
    """Trace out every subsystem not listed in ``keep``.

    Kept subsystems stay in ascending index order; the trace is preserved.
    """
    rho = _as_square_matrix(rho, "rho")
    dims = tuple(int(d) for d in dims)
    total = math.prod(dims)
    if rho.shape[0] != total:
        raise ValueError(f"dims {dims} do not match a {rho.shape[0]}-dimensional matrix")
    keep = _subsystems(keep, len(dims))
    traced = [k for k in range(len(dims)) if k not in keep]
    t = rho.reshape(dims + dims)
    m = len(dims)
    for k in reversed(traced):
        t = np.trace(t, axis1=k, axis2=k + m)
        m -= 1
    kept_dim = math.prod(dims[k] for k in keep)
    return t.reshape(kept_dim, kept_dim)


def reduced_density_matrix(psi, dims, keep):
    """Reduced state of ``keep`` from a pure state, without the full projector.

    Equivalent to ``partial_trace`` of |psi><psi| but needs only
    O(dim * kept_dim) memory, which matters for the larger collective states.
    """
    psi, dims = check_pure_state(psi, dims)
    if psi.ndim != 1:
        raise ValueError("state must be a flat amplitude vector")
    keep = _subsystems(keep, len(dims))
    traced = [k for k in range(len(dims)) if k not in keep]
    t = psi.reshape(dims)
    if traced:
        rho = np.tensordot(t, t.conj(), axes=(traced, traced))
    else:
        flat = t.reshape(-1)
        rho = np.outer(flat, flat.conj())
    kept_dim = math.prod(dims[k] for k in keep)
    return rho.reshape(kept_dim, kept_dim)


def hermitian_eigensystem(h, *, atol=1e-10):
    """Eigenvalues (descending) and matching orthonormal eigenvector columns.

    Rejects matrices whose Hermitian deviation exceeds ``atol``.  The output
    satisfies H = V diag(w) V^dagger to the solver's accuracy.
    """
    h = _as_square_matrix(h, "H")
    dev = float(np.max(np.abs(h - h.conj().T)))
    if dev > atol:
        raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e}")
    w, v = np.linalg.eigh(h)
    return w[::-1].copy(), v[:, ::-1].copy()


def schmidt_spectrum(psi, dims, cut):
    """Squared Schmidt coefficients of a pure state across a bipartition.

    ``cut`` lists the subsystem indices of one side.  The spectrum is the
    squared singular values of the (cut side) x (other side) amplitude matrix:
    min(d_cut, d_other) entries, descending, those below ``SPECTRUM_CLIP`` set
    to 0.  A 2-D stack of states as rows gives one spectrum per row.
    """
    psi, dims = check_pure_state(psi, dims)
    cut = _subsystems(cut, len(dims), name="cut")
    if len(cut) == len(dims):
        raise ValueError("cut must leave at least one subsystem on each side")
    other = tuple(k for k in range(len(dims)) if k not in cut)
    rows = psi.reshape((-1,) + dims).transpose((0,) + tuple(1 + k for k in cut + other))
    m = rows.reshape(len(rows), math.prod(dims[k] for k in cut), -1)
    w = np.linalg.svd(m, compute_uv=False) ** 2
    w[w < SPECTRUM_CLIP] = 0.0
    return w if psi.ndim == 2 else w[0]
