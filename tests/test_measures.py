import numpy as np
import pytest

from qshare.linalg import reduced_density_matrix, swap_operator
from qshare.measures import (
    Decomposition,
    binary_entropy,
    eof_from_concurrence,
    pairwise_sharing_bound,
    pure_entanglement,
    qubit_concurrence,
    qubit_concurrence_pure,
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
CURVE_ONE_HALF = 0.3545789026652699

SINGLET2 = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)


def random_state(rng, dim):
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


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

    def test_fit_rejects_w_state_pair(self):
        pair = reduced_density_matrix(w_state(3), (2, 2, 2), (0, 1))
        assert werner_fit(pair, 2) is None

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
    def test_rejects_tolerance_that_is_not_finite_and_non_negative(self, tol):
        # With tol = nan this state, 0.4 away from Werner form, used to fit
        # and score E_f = 0.
        rho = np.diag([0.7, 0.1, 0.1, 0.1])
        with pytest.raises(ValueError, match="tol"):
            werner_fit(rho, 2, tol)
        with pytest.raises(ValueError, match="tol"):
            werner_eof(rho, 2, tol)

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


class TestSharingBound:
    def test_two_parties_saturate(self):
        assert pairwise_sharing_bound(2) == pytest.approx(1.0, abs=1e-12)

    def test_three_parties(self):
        assert pairwise_sharing_bound(3) == pytest.approx(0.550, abs=5e-4)

    def test_four_parties(self):
        assert pairwise_sharing_bound(4) == pytest.approx(CURVE_ONE_HALF, abs=1e-12)
        assert pairwise_sharing_bound(4) == pytest.approx(0.3546, abs=1e-3)

    def test_rejects_single_party(self):
        with pytest.raises(ValueError):
            pairwise_sharing_bound(1)


class TestDecomposition:
    def test_mixture_reconstructs(self):
        rng = np.random.default_rng(12)
        states = np.stack([random_state(rng, 4) for _ in range(3)])
        weights = np.array([0.5, 0.3, 0.2])
        dec = Decomposition(weights=weights, states=states)
        expected = sum(w * np.outer(s, s.conj()) for w, s in zip(weights, states))
        assert np.max(np.abs(dec.mixture() - expected)) < 1e-12

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
