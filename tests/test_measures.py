import math
import sys
import tracemalloc

import numpy as np
import pytest

from qshare.linalg import check_density_matrix, reduced_density_matrix, swap_operator
from qshare.measures import (
    Decomposition,
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
from qshare.states import ResidueFamily, singlet_pair_reduced, w_state

# Frozen independent-oracle values (40-digit evaluation of the defining
# formulas; see the formula definitions in the docstrings).
H_FIVE_SIXTHS = 0.6500224216483542
CURVE_TWO_THIRDS = 0.5500477595827574

SINGLET2 = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)


def random_state(rng, dim):
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def qubit_concurrence_pure(psi):
    """Concurrence of a two-qubit pure state, twice the root of det(rho_A):
    the oracle that ``qubit_concurrence`` is checked against."""
    m = np.asarray(psi).reshape(2, 2)
    det = float(np.linalg.det(m @ m.conj().T).real)
    return 2.0 * math.sqrt(max(det, 0.0))


class TestShannonEntropy:
    def test_uniform_over_four(self):
        assert shannon_entropy([0.25, 0.25, 0.25, 0.25]) == pytest.approx(2.0, abs=1e-12)

    def test_pure(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0

    def test_pair_state_spectrum_at_optimal_weight(self):
        # The exact spectrum (a^2, b^2, b^2, b^2) at a = 0.461, and the same
        # spectrum rounded to four decimals then renormalized, both land on
        # the reported 1.9944.
        a2 = 0.461**2
        b2 = (1.0 - a2) / 3.0
        assert shannon_entropy([a2, b2, b2, b2]) == pytest.approx(1.9944, abs=5e-4)
        rounded = np.array([0.2125, 0.2621, 0.2621, 0.2621])
        assert shannon_entropy(rounded / rounded.sum()) == pytest.approx(1.9944, abs=5e-4)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            shannon_entropy([0.5, -0.5])
        # A NaN compares False against the sign test, so it has its own.
        with pytest.raises(ValueError, match="non-finite"):
            shannon_entropy([0.5, np.nan])

    def test_stack_gives_one_entropy_per_row(self):
        stack = np.array([[0.25, 0.25, 0.25, 0.25], [1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 1e-13, 0.0]])
        values = shannon_entropy(stack)
        assert values.shape == (3,)
        assert values == pytest.approx([shannon_entropy(row) for row in stack], abs=1e-15)
        assert values == pytest.approx([2.0, 0.0, 1.0], abs=1e-12)
        with pytest.raises(ValueError):
            shannon_entropy(np.zeros((2, 0)))


class TestPureEntanglement:
    def test_singlet_is_one_ebit(self):
        assert pure_entanglement(SINGLET2, (2, 2), (0,)) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_is_zero(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        assert pure_entanglement(psi, (2, 2), (0,)) == 0.0

    def test_rejects_invalid_cut(self):
        with pytest.raises(ValueError):
            pure_entanglement(SINGLET2, (2, 2), (0, 1))


class TestBinaryEntropy:
    def test_half(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-12)

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_five_sixths(self):
        assert binary_entropy(5.0 / 6.0) == pytest.approx(H_FIVE_SIXTHS, abs=1e-12)
        assert binary_entropy(5.0 / 6.0) == pytest.approx(0.650, abs=1e-3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(1.5)


class TestConcurrenceCurve:
    def test_endpoints(self):
        assert eof_from_concurrence(0.0) == 0.0
        assert eof_from_concurrence(1.0) == pytest.approx(1.0, abs=1e-12)
        # Round-off within 1e-9 of an endpoint is snapped onto it.
        assert eof_from_concurrence(1.0 + 5e-10) == eof_from_concurrence(1.0)
        assert eof_from_concurrence(-5e-10) == 0.0

    def test_two_thirds(self):
        assert eof_from_concurrence(2.0 / 3.0) == pytest.approx(CURVE_TWO_THIRDS, abs=1e-12)
        assert eof_from_concurrence(2.0 / 3.0) == pytest.approx(0.550, abs=5e-4)

    def test_monotone_on_grid(self):
        grid = np.linspace(0.0, 1.0, 1000)
        values = [eof_from_concurrence(c) for c in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            eof_from_concurrence(1.5)
        with pytest.raises(ValueError):
            eof_from_concurrence(-0.2)

    def test_array_equals_the_scalar_loop_bit_for_bit(self):
        grid = np.linspace(0.0, 1.0, 1000)
        values = eof_from_concurrence(grid)
        assert values.shape == grid.shape
        assert values.tobytes() == np.array([eof_from_concurrence(c) for c in grid]).tobytes()
        assert type(eof_from_concurrence(0.25)) is float and type(eof_from_concurrence(np.float64(0.25))) is float

    def test_array_snaps_each_entry_within_round_off(self):
        snapped = eof_from_concurrence(np.array([[-1e-9, 0.5], [1.0 + 1e-9, -5e-10]]))
        assert snapped.tolist() == [[0.0, eof_from_concurrence(0.5)], [eof_from_concurrence(1.0), 0.0]]

    @pytest.mark.parametrize("bad", [-1.1e-9, 1.0 + 1.1e-9, 1.5, np.nan, -np.inf])
    def test_array_rejects_any_entry_out_of_range(self, bad):
        with pytest.raises(ValueError, match="concurrence must lie in \\[0, 1\\]"):
            eof_from_concurrence(np.array([0.0, 0.5, bad, 1.0]))


class TestPureConcurrence:
    def test_singlet(self):
        assert qubit_concurrence_pure(SINGLET2) == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        assert qubit_concurrence_pure(psi) == 0.0

    def test_three_term_superposition(self):
        # 2 sqrt(det rho_A) with rho_A = [[2, 1], [1, 1]] / 3, det = 1/9.
        psi = np.array([1.0, 1.0, 1.0, 0.0]) / np.sqrt(3.0)
        assert qubit_concurrence_pure(psi) == pytest.approx(2.0 / 3.0, abs=1e-12)


class TestMixedConcurrence:
    def test_singlet_projector(self):
        rho = np.outer(SINGLET2, SINGLET2.conj())
        assert qubit_concurrence(rho) == pytest.approx(1.0, abs=1e-9)

    def test_maximally_mixed(self):
        assert qubit_concurrence(np.eye(4) / 4.0) == 0.0

    def test_w_state_pair(self):
        pair = reduced_density_matrix(w_state(3), (2, 2, 2), (0, 1))
        assert qubit_concurrence(pair) == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_agrees_with_pure_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            psi = random_state(rng, 4)
            rho = np.outer(psi, psi.conj())
            assert qubit_concurrence(rho) == pytest.approx(qubit_concurrence_pure(psi), abs=1e-9)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            qubit_concurrence(np.eye(9) / 9.0)


class TestQubitEof:
    def test_w_state_pair(self):
        pair = reduced_density_matrix(w_state(3), (2, 2, 2), (0, 1))
        assert qubit_eof(pair) == pytest.approx(0.550, abs=5e-4)

    def test_singlet(self):
        rho = np.outer(SINGLET2, SINGLET2.conj())
        assert qubit_eof(rho) == pytest.approx(1.0, abs=1e-9)

    def test_maximally_mixed(self):
        assert qubit_eof(np.eye(4) / 4.0) == 0.0

    def test_matches_pure_entanglement(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            psi = random_state(rng, 4)
            rho = np.outer(psi, psi.conj())
            assert qubit_eof(rho) == pytest.approx(pure_entanglement(psi, (2, 2), (0,)), abs=1e-8)

    def test_stack_matches_loop_to_the_bit(self):
        # Projectors and two-qubit Werner states, stacked (2, 50, 4, 4): one
        # eigh and one SVD call serve the stack, each matrix as it would alone.
        rng = np.random.default_rng(5)
        psi = np.array([random_state(rng, 4) for _ in range(50)])
        c = rng.uniform(0.0, 1.0, size=50)[:, None, None]
        werner = (2.0 + c) / 6.0 * np.identity(4) - (1.0 + 2.0 * c) / 6.0 * swap_operator(2)
        stack = np.stack([psi[:, :, None] * psi[:, None, :].conj(), werner])
        for measure in (qubit_concurrence, qubit_eof):
            stacked = measure(stack)
            assert stacked.shape == (2, 50)
            assert np.array_equal(stacked, [[measure(rho) for rho in row] for row in stack])
        assert type(qubit_eof(stack[0, 0])) is float and type(qubit_concurrence(stack[1, 0])) is float

    def test_stack_validates_every_matrix(self):
        stack = np.stack([np.eye(4) / 4.0, np.diag([1.0, 0.0, 0.0, 0.0]), np.eye(4) / 2.0])
        with pytest.raises(ValueError, match="unit trace"):
            qubit_eof(stack)
        with pytest.raises(ValueError, match=r"rho must be 4 x 4, got shape \(9, 9\)"):
            qubit_eof(np.stack([np.eye(9) / 9.0] * 2))


class TestWernerQuantities:
    def test_antisymmetric_marginal_has_unit_concurrence(self):
        for d in range(2, 11):
            assert werner_concurrence(singlet_pair_reduced(d), d) == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed_concurrence(self):
        for d in (2, 3, 5):
            rho = np.eye(d * d) / (d * d)
            assert werner_concurrence(rho, d) == pytest.approx(-1.0 / d, abs=1e-12)

    def test_two_qubit_singlet(self):
        rho = np.outer(SINGLET2, SINGLET2.conj())
        assert werner_concurrence(rho, 2) == pytest.approx(1.0, abs=1e-12)

    def test_fit_antisymmetric_marginal(self):
        fit = werner_fit(singlet_pair_reduced(3), 3)
        assert fit is not None
        assert fit.a_w == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert fit.b_w == pytest.approx(-1.0 / 6.0, abs=1e-12)
        assert fit.residual < 1e-12

    def test_fit_maximally_mixed(self):
        for d in (2, 4):
            fit = werner_fit(np.eye(d * d) / (d * d), d)
            assert fit is not None
            assert fit.a_w == pytest.approx(1.0 / (d * d), abs=1e-12)
            assert fit.b_w == pytest.approx(0.0, abs=1e-12)

    def test_fit_unit_trace_constraint(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            b_w = float(rng.uniform(-1.0 / (d * (d - 1)), 1.0 / (d * (d + 1))))
            a_w = (1.0 - b_w * d) / (d * d)
            fit = werner_fit(a_w * np.eye(d * d) + b_w * swap_operator(d), d)
            assert fit is not None
            assert fit.a_w * d * d + fit.b_w * d == pytest.approx(1.0, abs=1e-10)
            linear = -(fit.a_w * d + fit.b_w * d * d)
            assert werner_concurrence(a_w * np.eye(d * d) + b_w * swap_operator(d), d) == pytest.approx(
                linear, abs=1e-10
            )

    def test_fit_residual_matches_the_dense_misfit(self):
        # The dense misfit rounds as rho - b_w F, then - a_w on the diagonal, as
        # the blocked residual does, so the two agree to the bit.
        rng = np.random.default_rng(21)
        for d in [int(rng.integers(2, 8)) for _ in range(20)] + [12, 30]:
            b_w = float(rng.uniform(-1.0 / (d * (d - 1)), 1.0 / (d * (d + 1))))
            a_w = (1.0 - b_w * d) / (d * d)
            swap = swap_operator(d)
            rho = a_w * np.identity(d * d) + b_w * swap
            fit = werner_fit(rho, d)
            assert fit is not None
            dense = swap * -fit.b_w + rho
            dense.flat[:: d * d + 1] -= fit.a_w
            assert fit.residual == float(np.max(np.abs(dense)))

    def test_dense_path_makes_no_matrix_sized_temporary(self):
        # A 900 x 900 float matrix is 6.5 MB; the walks stay within small row blocks.
        rho = singlet_pair_reduced(30)
        for m in (rho, rho.astype(complex)):
            for call in (check_density_matrix, lambda m: werner_fit(m, 30), lambda m: werner_eof(m, 30)):
                tracemalloc.start()
                try:
                    call(m)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 1 << 20, (m.dtype, peak)

    def test_complex_typed_input_gives_the_float_results(self):
        for d in (2, 3, 8):
            rho = singlet_pair_reduced(d)
            for measure in (werner_concurrence, werner_eof):
                assert measure(rho.astype(complex), d) == measure(rho, d)
            # A complex trace is summed in another order, so a_w may move by an ulp.
            fit, complex_fit = werner_fit(rho, d), werner_fit(rho.astype(complex), d)
            assert (complex_fit.a_w, complex_fit.b_w) == pytest.approx((fit.a_w, fit.b_w), rel=1e-15, abs=0.0)
            assert complex_fit.d == d and complex_fit.residual <= 1e-17
            # The misfit is built in a copy of each row block, not in rho.
            assert np.array_equal(rho, singlet_pair_reduced(d))

    def test_complex_non_werner_state_is_rejected(self):
        psi = random_state(np.random.default_rng(3), 9)
        rho = np.outer(psi, psi.conj())
        assert np.any(rho.imag)
        assert werner_fit(rho, 3) is None
        with pytest.raises(ValueError, match="not of the form"):
            werner_eof(rho, 3)

    def test_concurrence_rejects_a_non_real_swap_trace(self):
        # i eps on every off-diagonal entry that F picks out keeps rho
        # Hermitian to 2 eps and its trace at 1, but adds i eps d(d - 1) to
        # Tr(rho F).
        d, eps = 3, 0.4e-10
        rho = singlet_pair_reduced(d).astype(complex)
        flipped = swap_operator(d) - np.eye(d * d) > 0.0
        rho[flipped] += 1j * eps
        with pytest.raises(ValueError, match=r"non-real part -2\.400e-10"):
            werner_concurrence(rho, d)
        # The fit accepts it, so E_f reaches the same refusal after fitting.
        assert werner_fit(rho, d) is not None
        with pytest.raises(ValueError, match=r"non-real part -2\.400e-10"):
            werner_eof(rho, d)
        with pytest.raises(ValueError, match=r"non-real part -2\.400e-10"):
            werner_eof(rho.tolist(), d)

    def test_fit_maps_no_swap_operator(self):
        # F's ones are read by index, so fitting the d = 30 marginal faults only the
        # pages of its row-block temporaries: about 110, where mapping F took 1,725.
        # The marginal is checked first, because the first read of each of its 305
        # never-written pages faults too, on hosts that map the zero page per page.
        if not sys.platform.startswith("linux"):
            pytest.skip("minor page faults are counted as on Linux")
        import resource

        werner_fit(singlet_pair_reduced(2), 2)
        rho = check_density_matrix(singlet_pair_reduced(30), 900)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        fit = werner_fit(rho, 30)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 300
        assert fit is not None and fit.residual <= 1e-15

    def test_fit_rejects_a_perturbed_werner_state(self):
        rho = np.eye(9) / 9
        rho[0, 1] = rho[1, 0] = 1e-8
        assert werner_fit(rho, 3) is None

    def test_rejects_fewer_than_two_levels(self):
        # The Gram system over span{I, F} is singular at d = 1, where I = F.
        for d in (1, 0, -1):
            for measure in (werner_fit, werner_concurrence, werner_eof):
                with pytest.raises(ValueError, match=r"d must be an integer >= 2"):
                    measure(np.eye(1), d)

    def test_fit_rejects_w_state_pair(self):
        pair = reduced_density_matrix(w_state(3), (2, 2, 2), (0, 1))
        assert werner_fit(pair, 2) is None

    def test_eof_of_antisymmetric_marginal(self):
        for d in range(2, 11):
            assert werner_eof(singlet_pair_reduced(d), d) == pytest.approx(1.0, abs=1e-9)

    def test_eof_clamps_negative_concurrence(self):
        for d in (2, 3):
            assert werner_eof(np.eye(d * d) / (d * d), d) == 0.0

    def test_eof_agrees_with_qubit_formula(self):
        # d = 2 exchange-symmetric state with concurrence 2/3.
        a_w, b_w = (2.0 + 2.0 / 3.0) / 6.0, -(1.0 + 4.0 / 3.0) / 6.0
        rho = a_w * np.eye(4) + b_w * swap_operator(2)
        assert werner_eof(rho, 2) == pytest.approx(0.550, abs=5e-4)
        assert werner_eof(rho, 2) == pytest.approx(qubit_eof(rho), abs=1e-9)

    def test_eof_rejects_non_werner(self):
        pair = reduced_density_matrix(w_state(3), (2, 2, 2), (0, 1))
        with pytest.raises(ValueError):
            werner_eof(pair, 2)


class TestDecomposition:
    def test_mixture_reconstructs(self):
        rng = np.random.default_rng(12)
        states = np.stack([random_state(rng, 4) for _ in range(3)])
        weights = np.array([0.5, 0.3, 0.2])
        dec = Decomposition(weights=weights, states=states)
        expected = sum(w * np.outer(s, s.conj()) for w, s in zip(weights, states))
        assert np.max(np.abs(dec.mixture() - expected)) < 1e-12

    def test_mixture_of_49_complex_states(self):
        # The size of a symmetry orbit, with unequal weights.  The imaginary
        # part is one real product minus its transpose: antisymmetric to the bit.
        rng = np.random.default_rng(49)
        states = np.stack([random_state(rng, 49) for _ in range(49)])
        weights = rng.uniform(0.5, 1.5, 49)
        dec = Decomposition(weights=weights / weights.sum(), states=states)
        mixture = dec.mixture()
        expected = sum(w * np.outer(s, s.conj()) for w, s in zip(dec.weights, dec.states))
        assert np.max(np.abs(mixture - expected)) < 1e-15
        assert np.array_equal(mixture.imag, -mixture.imag.T)

    def test_average_entanglement_upper_bounds_eof(self):
        # Uniform mixture of the pair basis: average entanglement of any
        # valid decomposition cannot fall below the mixture's E_f.
        family = ResidueFamily.from_a(0.461)
        dec = Decomposition(weights=np.full(7, 1.0 / 7.0), states=family.pair_basis())
        average = sum(
            w * pure_entanglement(s, (7, 7), (0,)) for w, s in zip(dec.weights, dec.states)
        )
        assert np.max(np.abs(dec.mixture() - family.pair_density())) < 1e-12
        assert average >= 1.9944 - 5e-4

    def test_rejects_bad_weights(self):
        rng = np.random.default_rng(13)
        states = np.stack([random_state(rng, 4) for _ in range(2)])
        with pytest.raises(ValueError):
            Decomposition(weights=np.array([0.7, 0.7]), states=states)
        with pytest.raises(ValueError):
            Decomposition(weights=np.array([1.2, -0.2]), states=states)
        with pytest.raises(ValueError, match="one weight per state row"):
            Decomposition(weights=np.array([0.5, 0.3, 0.2]), states=states)

    def test_rejects_unnormalized_states(self):
        with pytest.raises(ValueError):
            Decomposition(weights=np.array([1.0]), states=np.array([[1.0, 1.0, 0.0, 0.0]]))

    def test_rejects_non_finite_states_and_weights(self):
        # A NaN norm or weight compares False against every bound, so the
        # checks must be phrased to fail on it.
        with pytest.raises(ValueError):
            Decomposition(weights=[0.5, 0.5], states=[[np.nan, 0, 0, 0], [1, 0, 0, 0]])
        with pytest.raises(ValueError):
            Decomposition(weights=[np.nan, 1.0], states=[[0, 1, 0, 0], [1, 0, 0, 0]])
