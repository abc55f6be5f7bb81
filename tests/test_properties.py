"""Property tests over randomly drawn inputs (derandomized; see conftest.py)."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given
from hypothesis import strategies as st

from qshare.linalg import (
    PSD_TOLERANCE,
    check_density_matrix,
    partial_trace,
    reduced_density_matrix,
    schmidt_spectrum,
    swap_operator,
)
from qshare.measures import werner_fit
from qshare.optimize import span_entanglement
from test_linalg import planted_density

unit_interval = st.floats(0.0, 1.0)


@st.composite
def unit_vectors(draw, size):
    """Complex unit vectors of the given size, away from zero before normalizing."""
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * size, max_size=2 * size))
    z = np.array(parts[:size]) + 1j * np.array(parts[size:])
    norm = np.linalg.norm(z)
    assume(norm > 0.1)
    return z / norm


@given(coeffs=unit_vectors(7), a=unit_interval)
def test_conjugate_coefficients_keep_the_span_entanglement(coeffs, a):
    # Every pair state is real, so conj(c) conjugates the marginal; the
    # optimizer's search of the real span rests on this.
    assert span_entanglement(coeffs.conj(), a) == pytest.approx(span_entanglement(coeffs, a), abs=1e-12)


@given(coeffs=unit_vectors(7), a=unit_interval, shift=st.integers(0, 6), power=st.integers(0, 6))
def test_symmetry_orbit_keeps_the_span_entanglement(coeffs, a, shift, power):
    # The orbit operators map pair state j to j + 1 and multiply it by omega^j.
    moved = np.roll(coeffs * np.exp(2j * np.pi * power * np.arange(7) / 7), shift)
    assert span_entanglement(moved, a) == pytest.approx(span_entanglement(coeffs, a), abs=1e-12)


@st.composite
def pure_states_with_kept_parts(draw):
    dims = tuple(draw(st.lists(st.integers(2, 3), min_size=2, max_size=3)))
    keep = draw(st.lists(st.sampled_from(range(len(dims))), min_size=1, unique=True))
    return draw(unit_vectors(math.prod(dims))), dims, tuple(sorted(keep))


@given(case=pure_states_with_kept_parts())
def test_reduced_density_matrix_matches_partial_trace(case):
    psi, dims, keep = case
    projector = np.outer(psi, psi.conj())
    assert np.allclose(reduced_density_matrix(psi, dims, keep), partial_trace(projector, dims, keep), atol=1e-12)


@given(case=pure_states_with_kept_parts())
def test_schmidt_spectrum_matches_the_partial_trace_spectrum(case):
    # The SVD route and the projector-plus-partial-trace route share no code.
    psi, dims, cut = case
    assume(len(cut) < len(dims))
    spectrum = schmidt_spectrum(psi, dims, cut)
    marginal = np.linalg.eigvalsh(partial_trace(np.outer(psi, psi.conj()), dims, cut))[::-1]
    assert np.allclose(spectrum, marginal[: spectrum.size], rtol=0.0, atol=1e-12)
    assert np.allclose(marginal[spectrum.size :], 0.0, rtol=0.0, atol=1e-12)


@given(d=st.integers(2, 5), p=unit_interval)
def test_werner_fit_round_trips(d, p):
    # p on the antisymmetric projector (I - F)/2, 1 - p on the symmetric one.
    anti, sym = p / (d * (d - 1)), (1.0 - p) / (d * (d + 1))
    a_w, b_w = anti + sym, sym - anti
    fit = werner_fit(a_w * np.identity(d * d) + b_w * swap_operator(d), d)
    assert fit is not None
    assert fit.a_w == pytest.approx(a_w, abs=1e-12)
    assert fit.b_w == pytest.approx(b_w, abs=1e-12)
    assert fit.residual <= 1e-12


@given(
    n=st.integers(2, 9),
    complex_entries=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    lowest=st.floats(-3e-10, 1e-10).filter(lambda x: abs(x + PSD_TOLERANCE) >= 1e-12),
)
def test_density_check_accepts_exactly_the_spectra_above_tolerance(n, complex_entries, seed, lowest):
    rho = planted_density(np.random.default_rng(seed), n, lowest, complex_entries)
    assert_accepted_exactly_above_tolerance(rho)


@given(
    n=st.integers(2, 9),
    complex_entries=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    lowest=st.floats(-3e-10, 1e-10),
    coupling=st.floats(0.0, 1e-10),
)
def test_density_check_of_diagonally_dominant_matrices(n, complex_entries, seed, lowest, coupling):
    # A diagonal with one entry near zero plus couplings up to 1e-10: the
    # Gershgorin bound straddles -PSD_TOLERANCE / 2, so some draws are
    # certified by it and the rest go on to the eigenvalues.
    rng = np.random.default_rng(seed)
    rest = rng.uniform(0.5, 1.5, n - 1)
    rho = np.diag(np.concatenate([[lowest], rest * (1.0 - lowest) / rest.sum()])).astype(complex)
    off = rng.uniform(-1.0, 1.0, (n, n)) + (1j * rng.uniform(-1.0, 1.0, (n, n)) if complex_entries else 0.0)
    off = coupling * np.triu(off, 1)
    rho += off + off.conj().T
    order = rng.permutation(n)
    rho = rho[np.ix_(order, order)]
    assume(abs(np.linalg.eigvalsh(rho)[0] + PSD_TOLERANCE) >= 1e-12)
    assert_accepted_exactly_above_tolerance(rho)


def assert_accepted_exactly_above_tolerance(rho):
    try:
        check_density_matrix(rho, rho.shape[0])
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == (np.linalg.eigvalsh(rho)[0] >= -PSD_TOLERANCE)
