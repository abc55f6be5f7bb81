import numpy as np
import pytest

from qshare.linalg import (
    hermitian_eigensystem,
    partial_trace,
    reduced_density_matrix,
    schmidt_spectrum,
    swap_operator,
)

SINGLET2 = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)


def random_state(rng, dim):
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    psi_a, psi_b = random_state(rng, 3), random_state(rng, 4)
    rho_a = np.outer(psi_a, psi_a.conj())
    rho_b = np.outer(psi_b, psi_b.conj())
    joint = np.kron(rho_a, rho_b)
    assert np.max(np.abs(partial_trace(joint, (3, 4), (0,)) - rho_a)) < 1e-12
    assert np.max(np.abs(partial_trace(joint, (3, 4), (1,)) - rho_b)) < 1e-12


def test_partial_trace_singlet_marginal_is_maximally_mixed():
    rho = np.outer(SINGLET2, SINGLET2.conj())
    marginal = partial_trace(rho, (2, 2), (0,))
    assert np.max(np.abs(marginal - np.eye(2) / 2)) < 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(11)
    psi = random_state(rng, 12)
    rho = np.outer(psi, psi.conj())
    reduced = partial_trace(rho, (2, 3, 2), (1,))
    assert abs(np.trace(reduced) - 1.0) < 1e-12


def test_partial_trace_qutrit_singlet_pair():
    from qshare.states import singlet_state

    psi = singlet_state(3)
    rho = np.outer(psi, psi.conj())
    marginal = partial_trace(rho, (3, 3, 3), (0, 1))
    expected = (np.eye(9) - swap_operator(3)) / 6.0
    assert np.max(np.abs(marginal - expected)) < 1e-12


def test_partial_trace_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4) / 4, (2, 3), (0,))
    with pytest.raises(ValueError):
        partial_trace(np.eye(4) / 4, (2, 2), (2,))
    with pytest.raises(ValueError):
        partial_trace(np.eye(4) / 4, (2, 2), ())


def test_reduced_density_matrix_matches_partial_trace():
    rng = np.random.default_rng(5)
    psi = random_state(rng, 24)
    rho = np.outer(psi, psi.conj())
    for keep in [(0,), (1, 2), (0, 2)]:
        direct = reduced_density_matrix(psi, (2, 3, 4), keep)
        routed = partial_trace(rho, (2, 3, 4), keep)
        assert np.max(np.abs(direct - routed)) < 1e-12


def test_eigensystem_identity():
    w, v = hermitian_eigensystem(np.eye(3))
    assert np.allclose(w, [1.0, 1.0, 1.0], atol=1e-14)
    assert np.max(np.abs(v.conj().T @ v - np.eye(3))) < 1e-12


def test_eigensystem_swap_multiplicities():
    w, _ = hermitian_eigensystem(swap_operator(3))
    assert np.allclose(w[:6], 1.0, atol=1e-12)
    assert np.allclose(w[6:], -1.0, atol=1e-12)


def test_eigensystem_antisymmetric_projector_spectrum():
    werner = (np.eye(9) - swap_operator(3)) / 6.0
    w, _ = hermitian_eigensystem(werner)
    assert np.allclose(w[:3], 1.0 / 3.0, atol=1e-12)
    assert np.allclose(w[3:], 0.0, atol=1e-12)


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigensystem_reconstruction_up_to_dim_49():
    rng = np.random.default_rng(17)
    for dim in (2, 3, 8, 21, 49):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (z + z.conj().T) / 2
        w, v = hermitian_eigensystem(h)
        assert np.all(np.diff(w) <= 1e-12)
        assert np.max(np.abs(h - (v * w) @ v.conj().T)) < 1e-10
        assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-10


def test_schmidt_spectrum_singlet():
    spec = schmidt_spectrum(SINGLET2, (2, 2), (0,))
    assert np.allclose(spec, [0.5, 0.5], atol=1e-12)


def test_schmidt_spectrum_product_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    spec = schmidt_spectrum(psi, (2, 2), (0,))
    assert np.allclose(spec, [1.0, 0.0], atol=1e-12)


def test_schmidt_spectrum_rejects_bad_cut():
    with pytest.raises(ValueError):
        schmidt_spectrum(SINGLET2, (2, 2), (0, 1))
    with pytest.raises(ValueError):
        schmidt_spectrum(SINGLET2, (2, 2), ())


def test_schmidt_spectrum_sums_to_one_and_matches_both_sides():
    rng = np.random.default_rng(23)
    for dims in [(2, 5), (3, 3), (2, 2, 3)]:
        psi = random_state(rng, int(np.prod(dims)))
        left = schmidt_spectrum(psi, dims, (0,))
        right = schmidt_spectrum(psi, dims, tuple(range(1, len(dims))))
        assert abs(left.sum() - 1.0) < 1e-10
        assert abs(right.sum() - 1.0) < 1e-10
        k = min(left.size, right.size)
        assert np.max(np.abs(left[:k] - right[:k])) < 1e-10
