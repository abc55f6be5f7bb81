import errno
import math

import numpy as np
import pytest

from qshare import linalg
from qshare.linalg import (
    PSD_TOLERANCE,
    check_density_matrix,
    check_pure_state,
    hermitian_eigensystem,
    partial_trace,
    reduced_density_matrix,
    row_blocks,
    schmidt_spectrum,
    swap_operator,
)
from qshare.measures import pure_entanglement
from qshare.states import ResidueFamily, cyclic_permute, orbit_decomposition, singlet_pair_reduced

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


@pytest.mark.parametrize(
    "check",
    [lambda dims: partial_trace(np.eye(1), dims, (0,)), lambda dims: check_pure_state(np.ones(1), dims)],
    ids=["partial_trace", "check_pure_state"],
)
def test_empty_dims_are_refused_by_name(check):
    with pytest.raises(ValueError, match=r"^dims must list at least one subsystem$"):
        check(())


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


# The Gram route takes the smaller side; a cut side of 4 against 3 or 7 covers both orientations.
SVD_CASES = [((2, 3), (0,)), ((3, 4), (1,)), ((4, 7), (1,)), ((4, 7), (0,)), ((7, 7), (0,)), ((2, 2, 3), (0, 2))]


def svd_spectrum(psi, dims, cut):
    """Squared singular values of the (cut side) x (other side) amplitudes: the SVD oracle."""
    other = [k for k in range(len(dims)) if k not in cut]
    m = psi.reshape(dims).transpose(list(cut) + other).reshape(math.prod(dims[k] for k in cut), -1)
    return np.linalg.svd(m, compute_uv=False) ** 2


@pytest.mark.parametrize("dims, cut", SVD_CASES)
@pytest.mark.parametrize("kind", [float, complex])
def test_schmidt_spectrum_matches_squared_singular_values(dims, cut, kind):
    rng, side = np.random.default_rng(41), math.prod(dims[k] for k in cut)
    for _ in range(20):
        psi = random_state(rng, math.prod(dims))
        psi = psi if kind is complex else psi.real / np.linalg.norm(psi.real)
        spectrum = schmidt_spectrum(psi, dims, cut)
        assert spectrum.dtype == np.float64 and spectrum.shape == (min(side, math.prod(dims) // side),)
        assert np.all(np.diff(spectrum) <= 0.0)
        assert np.max(np.abs(spectrum - svd_spectrum(psi, dims, cut))) <= 1e-14


def test_orbit_stack_spectra_match_squared_singular_values():
    rng = np.random.default_rng(43)
    for a in (0.0, 0.461, 0.5, 1.0):
        states = orbit_decomposition(random_state(rng, 7), ResidueFamily.from_a(a)).states
        spectra = schmidt_spectrum(states, (7, 7), (0,))
        assert spectra.shape == (49, 7)
        oracle = np.array([svd_spectrum(psi, (7, 7), (0,)) for psi in states])
        assert np.max(np.abs(spectra - oracle)) <= 1e-14


def test_rank_deficient_spectra_have_exact_zeros():
    product = np.kron(random_state(np.random.default_rng(47), 3), random_state(np.random.default_rng(53), 4))
    for cut in ((0,), (1,)):
        spectrum = schmidt_spectrum(product, (3, 4), cut)
        assert abs(spectrum[0] - 1.0) <= 1e-14
        assert np.array_equal(spectrum[1:], np.zeros(2))
    # A pair basis state has four Schmidt coefficients, a^2 and three b^2, and three exact zeros.
    family = ResidueFamily.from_a(0.461)
    spectrum = schmidt_spectrum(family.pair_state(2), (7, 7), (0,))
    assert np.max(np.abs(spectrum[:4] - np.sort([family.a**2] + 3 * [family.b**2])[::-1])) <= 1e-15
    assert np.array_equal(spectrum[4:], np.zeros(3))


STACK_CASES = [((7, 7), (0,)), ((2, 3, 4), (0, 2)), ((3, 5), (1,))]


def random_stack(rng, rows, dim):
    z = rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


@pytest.mark.parametrize("dims, cut", STACK_CASES)
def test_stacked_spectra_equal_per_row_calls(dims, cut):
    stack = random_stack(np.random.default_rng(31), 49, math.prod(dims))
    spectra = schmidt_spectrum(stack, dims, cut)
    assert np.array_equal(spectra, np.array([schmidt_spectrum(psi, dims, cut) for psi in stack]))
    entanglements = pure_entanglement(stack, dims, cut)
    assert np.array_equal(entanglements, np.array([pure_entanglement(psi, dims, cut) for psi in stack]))


@pytest.mark.parametrize("dims, cut", STACK_CASES)
def test_stack_with_one_bad_row_is_rejected(dims, cut):
    stack = random_stack(np.random.default_rng(37), 5, math.prod(dims))
    off_norm = stack.copy()
    off_norm[3] *= 1.0 + 1e-6
    nan_row = stack.copy()
    nan_row[2, 0] = np.nan
    for bad in (off_norm, nan_row):
        with pytest.raises(ValueError):
            check_pure_state(bad, dims)
        with pytest.raises(ValueError):
            schmidt_spectrum(bad, dims, cut)


def test_pure_state_check_rejects_bad_shapes_and_dims():
    psi = np.full(4, 0.5)
    with pytest.raises(ValueError, match="flat amplitude vector or a stack"):
        check_pure_state(psi.reshape(1, 2, 2), (2, 2))
    with pytest.raises(ValueError, match=r"dims must be an integer >= 1, got 0"):
        check_pure_state(psi, (4, 0))
    with pytest.raises(ValueError, match="has 4 amplitudes, expected 8"):
        check_pure_state(psi, (2, 2, 2))


def test_checks_keep_real_input_real():
    # Float input is validated and returned as it is, not copied to complex.
    rho = singlet_pair_reduced(3)
    assert check_density_matrix(rho, 9) is rho
    assert np.array_equal(rho, singlet_pair_reduced(3))  # the Hermiticity test works on a copy
    psi = np.full(4, 0.5)
    assert check_pure_state(psi, (2, 2))[0] is psi
    assert check_density_matrix(np.diag([1, 0]), 2).dtype == np.float64
    # Complex input stays complex, even with no imaginary part.
    complex_rho = rho.astype(complex)
    assert check_density_matrix(complex_rho, 9).dtype == np.complex128
    assert np.array_equal(complex_rho, rho)
    assert check_pure_state(psi.astype(complex), (2, 2))[0].dtype == np.complex128


def test_single_state_functions_reject_a_stack():
    # A one-row stack has the right number of amplitudes, so only the shape
    # tells it apart from a flat state.
    cases = [
        (lambda psi: reduced_density_matrix(psi, (2, 2), (0,)), SINGLET2),
        (lambda psi: cyclic_permute(psi, (2, 2, 2)), np.eye(8)[0]),
    ]
    for single, psi in cases:
        single(psi)
        with pytest.raises(ValueError, match="flat amplitude vector"):
            single(psi[None, :])


def planted_density(rng, n, lowest, complex_entries=False):
    """Random n x n density matrix whose lowest eigenvalue is ``lowest``."""
    z = rng.standard_normal((n, n))
    if complex_entries:
        z = z + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(z)
    rest = rng.uniform(0.5, 1.5, n - 1)
    w = np.concatenate([[lowest], rest * (1.0 - lowest) / rest.sum()])
    rho = (q * w) @ q.conj().T
    return (rho + rho.conj().T) / 2


@pytest.mark.parametrize("d", range(2, 13))
def test_density_check_accepts_singlet_marginals(d):
    # (I - F) / (d(d-1)) has d(d+1)/2 exactly zero eigenvalues.
    rho = singlet_pair_reduced(d)
    assert np.array_equal(check_density_matrix(rho, d * d), rho)


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("n", [4, 49])
@pytest.mark.parametrize("lowest", [-0.3e-10, -0.7e-10])
def test_density_check_accepts_small_negative_eigenvalues(lowest, n, complex_entries):
    rho = planted_density(np.random.default_rng(n), n, lowest, complex_entries)
    assert bool(np.any(rho.imag)) == complex_entries
    assert np.linalg.eigvalsh(rho)[0] == pytest.approx(lowest, rel=1e-4)
    check_density_matrix(rho, n)


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("n", [4, 49])
def test_density_check_rejects_a_negative_eigenvalue(n, complex_entries):
    rho = planted_density(np.random.default_rng(n), n, -1.3e-10, complex_entries)
    with pytest.raises(ValueError, match=r"rho has a negative eigenvalue -1\.300e-10"):
        check_density_matrix(rho, n)


def test_density_check_rejects_non_hermitian_wrong_trace_and_wrong_size():
    rho = planted_density(np.random.default_rng(5), 4, 0.1, complex_entries=True)
    skewed = rho.copy()
    skewed[0, 1] += 1e-8
    with pytest.raises(ValueError, match="not Hermitian"):
        check_density_matrix(skewed)
    with pytest.raises(ValueError, match="unit trace"):
        check_density_matrix(1.01 * rho)
    with pytest.raises(ValueError, match="must be 9 x 9"):
        check_density_matrix(rho, 9)
    with pytest.raises(ValueError, match="must be a square matrix"):
        check_density_matrix(np.eye(3)[:2])
    with pytest.raises(ValueError, match="non-finite"):
        check_density_matrix(np.where(np.eye(4) > 0.0, 0.25, np.nan))


@pytest.fixture
def diagonalized(monkeypatch):
    """Shapes passed to np.linalg.eigvalsh."""
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    return shapes


def test_density_check_diagonalizes_only_when_the_bound_fails(diagonalized):
    for d in range(2, 13):
        check_density_matrix(singlet_pair_reduced(d))
    assert diagonalized == []
    # Planted spectra are not diagonally dominant.
    check_density_matrix(planted_density(np.random.default_rng(1), 49, -0.3e-10, True))
    check_density_matrix(planted_density(np.random.default_rng(1), 49, -0.7e-10, True))
    assert diagonalized == [(49, 49)] * 2


def test_density_check_certifies_dominant_matrices_without_factoring(diagonalized):
    # (I - F) / (d(d-1)): each row holds 1/(d(d-1)) on the diagonal against one
    # off-diagonal -1/(d(d-1)), or is zero, so the Gershgorin bound is exactly 0.
    for d in range(2, 31):
        check_density_matrix(singlet_pair_reduced(d), d * d)
    for n in (1, 2, 49, 900):
        check_density_matrix(np.eye(n) / n, n)
    # A Werner state a I + b F meets the bound with equality, a - |b|.
    for d in (2, 3, 7):
        flip = swap_operator(d)
        sym, anti = (np.eye(d * d) + flip) / (d * (d + 1)), (np.eye(d * d) - flip) / (d * (d - 1))
        for p in (0.0, 0.3, 1.0):
            check_density_matrix(p * sym + (1.0 - p) * anti, d * d)
    assert diagonalized == []


def test_density_check_diagonalizes_what_the_bound_cannot_certify(diagonalized):
    accepted = planted_density(np.random.default_rng(49), 49, -0.3e-10, True)
    check_density_matrix(accepted, 49)
    assert diagonalized == [(49, 49)]
    rejected = planted_density(np.random.default_rng(49), 49, -1.3e-10, True)
    with pytest.raises(ValueError, match=r"rho has a negative eigenvalue -1\.300e-10"):
        check_density_matrix(rejected, 49)
    assert diagonalized == [(49, 49)] * 2


def test_density_check_bound_accepts_only_at_half_the_tolerance(diagonalized):
    # One diagonal entry lowered below zero: the Gershgorin bound is that entry.
    for lowest, diagonalizations in [(-0.4e-10, 0), (-0.6e-10, 1)]:
        rho = np.diag([0.5 - lowest, 0.5, lowest])
        check_density_matrix(rho, 3)
        assert len(diagonalized) == diagonalizations
        diagonalized.clear()


def dense_scan(m):
    """The unblocked formulas: max |m - m^dagger| and the Gershgorin bound min_i (m_ii - sum_{j != i} |m_ij|)."""
    diff = m - m.conj().T
    magnitudes = np.abs(m)
    radii = magnitudes.sum(axis=1) - magnitudes.diagonal()
    return float(np.max(np.abs(diff).real)), float(np.min(m.diagonal().real - radii))


def block_edge_sizes(dtype):
    """The largest n in one row block, the largest in two, the next n (a third, short block), and 900."""
    blocks = {n: row_blocks(np.empty((n, n), dtype)) for n in range(1, 300)}
    one = max(n for n, b in blocks.items() if len(b) == 1)
    two = max(n for n, b in blocks.items() if len(b) == 2)
    assert len(blocks[two + 1]) == 3 and blocks[two + 1][-1][1] - blocks[two + 1][-1][0] < 3
    return one, two, two + 1, 900


def hermitian_density(rng, n, dtype, dominant):
    """Random n x n PSD density matrix, Hermitian to round-off; ``dominant`` makes it diagonally dominant."""
    z = rng.standard_normal((n, n)).astype(dtype)
    if dtype is complex:
        z += 1j * rng.standard_normal((n, n))
    m = 4.0 * n * np.eye(n) + z + z.conj().T if dominant else z @ z.conj().T + n * np.eye(n)
    m = m + 1e-14 * rng.standard_normal((n, n))  # a round-off asymmetry for the deviation to measure
    return m / np.trace(m).real


BLOCK_EDGES = [(dtype, n) for dtype in (float, complex) for n in block_edge_sizes(dtype)]


@pytest.mark.parametrize(("dtype", "n"), BLOCK_EDGES)
def test_blocked_scan_equals_the_dense_formulas(dtype, n, diagonalized):
    rng = np.random.default_rng(n)
    for dominant in (True, False):
        rho = hermitian_density(rng, n, dtype, dominant)
        assert linalg._scan(rho, "rho") == dense_scan(rho)
        assert check_density_matrix(rho, n) is rho
    # Only the matrix the Gershgorin bound cannot certify is diagonalized.
    assert diagonalized == [(n, n)]


@pytest.mark.parametrize(("dtype", "n"), BLOCK_EDGES)
def test_blocked_scan_finds_a_deviation_below_the_diagonal_in_the_last_block(dtype, n):
    rho = hermitian_density(np.random.default_rng(n), n, dtype, dominant=True)
    rho[n - 1, 0] += 3e-9
    dev = dense_scan(rho)[0]
    assert linalg._scan(rho, "rho")[0] == dev > 1e-10
    with pytest.raises(ValueError, match=f"^rho is not Hermitian: max deviation {dev:.3e}$"):
        check_density_matrix(rho)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(("dtype", "n"), BLOCK_EDGES)
def test_non_finite_last_block_is_reported_before_an_asymmetric_first_block(dtype, n, bad):
    rho = hermitian_density(np.random.default_rng(n), n, dtype, dominant=True)
    rho[0, 1] += 1e-3
    rho[n - 1, n - 1] = rho[n - 1, 0] = bad
    # No arithmetic on the non-finite entries: under -W error a RuntimeWarning would fail this.
    for check in (check_density_matrix, hermitian_eigensystem):
        with pytest.raises(ValueError, match="contains non-finite entries"):
            check(rho)


def test_overflowing_row_sums_are_not_taken_for_non_finite_entries():
    # Finite entries whose absolute row sums overflow pass the finiteness test
    # and fail on their trace, as they did before the row blocks.
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="^rho does not have unit trace: deviation inf$"):
        check_density_matrix(np.full((2, 2), 1e308))


def test_swap_operators_are_writable_and_independent():
    # Each call maps a buffer of its own, which callers may scale in place.
    f, g = swap_operator(3), swap_operator(3)
    f *= 2.0
    assert f.dtype == np.float64 and f.flags.writeable and f.flags.c_contiguous
    assert not np.shares_memory(f, g)
    assert np.array_equal(g, f / 2.0)


@pytest.mark.parametrize("error", [OSError(errno.ENOMEM, "Cannot allocate memory"), OverflowError("too large")])
def test_refused_swap_map_raises_memory_error(monkeypatch, error):
    # A map the system refuses is a MemoryError naming d and the bytes asked
    # for; the refusal is simulated, so nothing large is ever mapped.
    def refuse(fileno, length, flags):
        raise error

    monkeypatch.setattr("qshare.linalg.mmap.mmap", refuse)
    with pytest.raises(MemoryError, match=r"d=5: 5000 bytes") as info:
        swap_operator(5)
    assert info.value.__cause__ is error
