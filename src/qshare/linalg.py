"""Dense linear algebra for small tensor-product systems.

Composite indices are big-endian on ket labels: |i1 ... in> maps to the flat
index sum_k i_k * prod_{m>k} d_m, so the first subsystem is the most
significant digit.  This is numpy's C-order reshape convention, which lets
amplitude vectors round-trip through ``reshape(dims)`` without relabeling.
"""

from __future__ import annotations

import math
import mmap
import numbers

import numpy as np

__all__ = [
    "SPECTRUM_CLIP",
    "PSD_TOLERANCE",
    "swap_operator",
    "partial_trace",
    "reduced_density_matrix",
    "schmidt_spectrum",
    "check_integer",
    "check_real",
    "check_pure_state",
    "check_density_matrix",
]

# Eigenvalues below this are treated as exact zeros before any logarithm,
# so round-off negatives never reach a log.
SPECTRUM_CLIP = 1e-12

# A density matrix may show a lowest eigenvalue down to -PSD_TOLERANCE and
# still count as positive semidefinite: exactly singular states come out of
# round-off with small negative eigenvalues.
PSD_TOLERANCE = 1e-10

# Round-off allowed in a state's norm, a matrix's Hermiticity and a density
# matrix's trace before the checks below reject it.
_ROUND_OFF = 1e-10

# Bytes of entries per row block: a block-sized temporary stays below glibc's
# default 128 KiB mmap threshold, so it is never mapped and never moves it.
_BLOCK_BYTES = 120 << 10


def _as_square_matrix(m, name="matrix"):
    arr = np.asarray(m, dtype=complex if np.iscomplexobj(m) else float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not arr.size:
        raise ValueError(f"{name} must be non-empty, got shape {arr.shape}")
    return arr


def row_blocks(m):
    """(start, stop) of the row blocks of square ``m``: ``_BLOCK_BYTES`` of entries each, at least one row."""
    step = max(1, _BLOCK_BYTES // (len(m) * m.itemsize))
    return [(start, min(start + step, len(m))) for start in range(0, len(m), step)]


def _scan(m, name):
    """Max |m - m^dagger| and the Gershgorin bound min_i (m_ii - sum_{j != i} |m_ij|), by row blocks.

    ``ValueError`` naming ``name`` at a non-finite entry, sought where a row sum is not finite.  The lower
    triangle holds the maximum of the symmetric |m_ij - conj(m_ji)| and reads only rows already tested.
    """
    dev, bound = 0.0, math.inf
    for start, stop in row_blocks(m):
        rows = m[start:stop]
        magnitudes = np.abs(rows)
        sums = magnitudes.sum(axis=1)
        if not np.isfinite(sums).all() and not np.isfinite(rows).all():
            raise ValueError(f"{name} contains non-finite entries")
        bound = min(bound, (rows[:, start:stop].diagonal().real - (sums - magnitudes[:, start:stop].diagonal())).min())
        diff = rows[:, :stop] - m[:stop, start:stop].conj().T
        dev = max(dev, np.abs(diff, out=diff).real.max())  # in place: one temporary
    return float(dev), float(bound)


def _subsystems(keep, n, name="keep"):
    """Normalize a subsystem selection to a sorted tuple of valid indices."""
    keep = tuple(sorted({check_integer(k, name, 0, n - 1) for k in keep}))
    if not keep:
        raise ValueError(f"{name} must select at least one subsystem")
    return keep


def _check_dims(dims):
    """Subsystem dimensions as a non-empty tuple of ints, each at least 1."""
    dims = tuple(check_integer(d, "dims", 1) for d in dims)
    if not dims:
        raise ValueError("dims must list at least one subsystem")
    return dims


def check_integer(value, name, low, high=None) -> int:
    """``value`` as an int; ``ValueError`` naming ``name`` unless it is an integer, not a bool, in [low, high]."""
    return int(_check_number(value, name, numbers.Integral, "an integer", low, high))


def check_real(value, name, low, high) -> float:
    """``value`` as a float, -0.0 as 0.0; ``ValueError`` naming ``name`` unless real, not a bool, in [low, high]."""
    return float(_check_number(value, name, numbers.Real, "a real number", low, high)) + 0.0


def _check_number(value, name, kind, noun, low, high):
    valid = isinstance(value, kind) and not isinstance(value, bool)
    if not (valid and low <= value and (high is None or value <= high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be {noun} {bounds}, got {value!r}")
    return value


def check_pure_state(psi, dims, *, name="state"):
    """Validate a flat amplitude vector, or a 2-D stack of them as rows.

    Returns the amplitudes as an array of the input's shape, complex if the
    input is complex and float otherwise, together with the dimension tuple.
    Rejects wrong lengths, non-finite entries, and any vector whose Euclidean
    norm deviates from 1 by more than ``_ROUND_OFF``.
    """
    psi = np.asarray(psi, dtype=complex if np.iscomplexobj(psi) else float)
    if psi.ndim not in (1, 2):
        raise ValueError(f"{name} must be a flat amplitude vector or a stack of them as rows")
    dims = _check_dims(dims)
    total = math.prod(dims)
    if psi.shape[-1] != total:
        raise ValueError(f"{name} has {psi.shape[-1]} amplitudes, expected {total} for dims {dims}")
    if not np.all(np.isfinite(psi)):
        raise ValueError(f"{name} contains non-finite amplitudes")
    norm_dev = np.abs(np.linalg.norm(psi, axis=-1) - 1.0)
    if np.any(norm_dev > _ROUND_OFF):
        raise ValueError(f"{name} is not normalized: |norm - 1| = {np.max(norm_dev):.3e}")
    return psi, dims


def check_density_matrix(rho, dim=None):
    """Validate Hermiticity and unit trace to ``_ROUND_OFF``, and positivity.

    Positivity is accepted in O(n^2) when the Gershgorin bound on the lowest
    eigenvalue, min_i (rho_ii - sum_{j != i} |rho_ij|), is at least
    -PSD_TOLERANCE / 2; for every Werner state a I + b F the bound is the
    lowest eigenvalue.  Otherwise the lowest eigenvalue decides, against
    -PSD_TOLERANCE.  Returns ``rho``, complex if it is complex-typed and
    float otherwise.
    """
    rho = _as_square_matrix(rho, "rho")
    dev, bound = _scan(rho, "rho")
    if dim is not None and rho.shape[0] != check_integer(dim, "dim", 1):
        raise ValueError(f"rho must be {dim} x {dim}, got shape {rho.shape}")
    if dev > _ROUND_OFF:
        raise ValueError(f"rho is not Hermitian: max deviation {dev:.3e}")
    trace_dev = abs(rho.trace() - 1.0)
    if trace_dev > _ROUND_OFF:
        raise ValueError(f"rho does not have unit trace: deviation {trace_dev:.3e}")
    if bound >= -PSD_TOLERANCE / 2:
        return rho
    lowest = float(np.linalg.eigvalsh(rho)[0])
    if lowest < -PSD_TOLERANCE:
        raise ValueError(f"rho has a negative eigenvalue {lowest:.3e}")
    return rho


def swap_operator(d):
    """Pair-exchange operator F = sum_ij |ij><ji| on two d-level systems.

    F is real symmetric, F @ F = I, and trace(F) = d.  Its own memory map, populated in
    one call where mmap has MAP_POPULATE, goes back to the system with F, not to the heap.
    """
    d = check_integer(d, "d", 1)
    try:
        flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)
        f = np.frombuffer(mmap.mmap(-1, size := d**4 * np.dtype(float).itemsize, flags=flags)).reshape(d * d, d * d)
    except (OSError, OverflowError) as exc:
        raise MemoryError(f"cannot map the swap operator for d={d}: {size} bytes ({exc})") from exc
    rows = np.arange(d * d)
    f[rows, (rows % d) * d + rows // d] = 1.0
    return f


def partial_trace(rho, dims, keep):
    """Trace out every subsystem not listed in ``keep``.

    Kept subsystems stay in ascending index order; the trace is preserved.
    """
    rho = _as_square_matrix(rho, "rho")
    _scan(rho, "rho")  # rejects non-finite entries
    dims = _check_dims(dims)
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


def hermitian_eigensystem(h):
    """Eigenvalues (descending) and matching orthonormal eigenvector columns.

    Rejects matrices whose Hermitian deviation exceeds ``_ROUND_OFF``.  The
    output satisfies H = V diag(w) V^dagger to the solver's accuracy.
    No caller in qshare: it stays only because ``perfbench/spans.py`` traces it, until ROADMAP item 1.
    """
    h = _as_square_matrix(h, "H")
    if (dev := _scan(h, "H")[0]) > _ROUND_OFF:
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
