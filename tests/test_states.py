import math
import re
import sys

import numpy as np
import pytest

from qshare.linalg import reduced_density_matrix, schmidt_spectrum
from qshare.measures import pure_entanglement, qubit_concurrence
from qshare.states import (
    OMEGA,
    ResidueFamily,
    cyclic_permute,
    gauge_fix,
    orbit_decomposition,
    quadratic_residues,
    singlet_pair_reduced,
    singlet_state,
    swap_operator,
    symmetry_operators,
    w_state,
)

# Coefficient vector reported for the optimal aligned weight; its span state
# must evaluate to the same minimum as the pair basis states there.
REPORTED_COEFFS = np.array([0.120, 0.197, 0.689, 0.259, -0.468, -0.275, -0.332])


class CorruptedFamily(ResidueFamily):
    # Three distinct labels that are not the quadratic residues mod 7.
    residues = (1, 2, 3)


CORRUPTED = CorruptedFamily(a=0.5)


def random_coeffs(rng):
    z = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    return z / np.linalg.norm(z)


class TestQuadraticResidues:
    def test_mod_seven(self):
        assert quadratic_residues(7) == frozenset({1, 2, 4})

    def test_mod_three(self):
        assert quadratic_residues(3) == frozenset({1})

    def test_mod_eleven_brute_force(self):
        brute = {(x * x) % 11 for x in range(1, 11)}
        assert quadratic_residues(11) == frozenset(brute) == frozenset({1, 3, 4, 5, 9})

    def test_rejects_non_prime_and_even(self):
        for bad in (9, 15, 4, 2, 1):
            with pytest.raises(ValueError):
                quadratic_residues(bad)


class TestSingletState:
    def test_two_qubits(self):
        expected = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        assert np.max(np.abs(singlet_state(2) - expected)) < 1e-15

    def test_three_qutrits_amplitudes(self):
        psi = singlet_state(3)
        scale = 1.0 / np.sqrt(6.0)
        signs = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1, (0, 2, 1): -1, (1, 0, 2): -1, (2, 1, 0): -1}
        nonzero = {}
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    amp = psi[9 * i + 3 * j + k]
                    if abs(amp) > 1e-15:
                        nonzero[(i, j, k)] = amp

        assert set(nonzero) == set(signs)
        for idx, sign in signs.items():
            assert nonzero[idx] == pytest.approx(sign * scale, abs=1e-15)

    def test_repeated_labels_vanish(self):
        for d in (2, 3, 4):
            psi = singlet_state(d)
            assert psi[0] == 0.0  # |0,0,...,0>

    def test_unit_norm(self):
        for d in (2, 3, 4, 5, 6):
            assert abs(np.linalg.norm(singlet_state(d)) - 1.0) < 1e-12

    def test_antisymmetry_under_transposition(self):
        d = 3
        psi = singlet_state(d).reshape(d, d, d)
        swapped = np.transpose(psi, (1, 0, 2))
        assert np.max(np.abs(psi + swapped)) < 1e-15

    def test_rejects_out_of_range(self):
        for bad in (1, 8):
            with pytest.raises(ValueError):
                singlet_state(bad)


class TestSwapOperator:
    def test_two_level_matrix(self):
        expected = np.eye(4)[[0, 2, 1, 3]]
        assert np.array_equal(swap_operator(2), expected)

    def test_rejects_no_levels(self):
        with pytest.raises(ValueError, match=r"d must be an integer >= 1, got 0"):
            swap_operator(0)

    def test_trace_and_involution(self):
        f = swap_operator(3)
        assert np.trace(f) == pytest.approx(3.0)
        assert np.max(np.abs(f @ f - np.eye(9))) == 0.0


class TestSingletPairReduced:
    def test_three_levels_closed_form(self):
        expected = (np.eye(9) - swap_operator(3)) / 6.0
        assert np.array_equal(singlet_pair_reduced(3), expected)

    def test_bitwise_equal_to_the_dense_form(self):
        # Written into F's map at its nonzeros alone; every bit, signed zeros included,
        # matches the three whole-matrix passes (0 - F + I) / (d(d-1)).
        for d in range(2, 31):
            dense = (np.subtract(0.0, swap_operator(d)) + np.identity(d * d)) / (d * (d - 1))
            assert np.array_equal(singlet_pair_reduced(d).view(np.uint64), dense.view(np.uint64))

    def test_faults_each_resident_page_once(self):
        # The d = 30 marginal's nonzeros lie on 1,278 pages of its map.  Adding to the
        # diagonal instead of assigning it read each diagonal-only page first: 1,684 faults.
        if not sys.platform.startswith("linux"):
            pytest.skip("minor page faults are counted as on Linux")
        import resource

        singlet_pair_reduced(2)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        singlet_pair_reduced(30)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 1_400

    def test_rejects_one_level(self):
        with pytest.raises(ValueError, match=r"d must be an integer >= 2, got 1"):
            singlet_pair_reduced(1)

    def test_two_levels_is_singlet_projector(self):
        psi = singlet_state(2)
        assert np.max(np.abs(singlet_pair_reduced(2) - np.outer(psi, psi.conj()))) < 1e-15

    def test_matches_full_state_marginals(self):
        for d in (2, 3, 4, 5):
            psi = singlet_state(d)
            closed = singlet_pair_reduced(d)
            dims = (d,) * d
            for pair in [(0, 1), (d - 2, d - 1)]:
                marginal = reduced_density_matrix(psi, dims, pair)
                assert np.max(np.abs(marginal - closed)) < 1e-10


class TestResidueFamily:
    def test_from_a_computes_b(self):
        family = ResidueFamily.from_a(0.461)
        assert family.b == pytest.approx(0.5123407069519267, abs=1e-15)
        assert family.b == pytest.approx(0.512, abs=5e-4)
        assert family.residues == (1, 2, 4)

    def test_normalization_invariant(self):
        for a in (0.0, 0.25, 0.5, 0.461, 1.0):
            family = ResidueFamily.from_a(a)
            assert abs(family.a**2 + 3 * family.b**2 - 1.0) < 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match=r"a must be a real number in \[0, 1\]"):
            ResidueFamily.from_a(1.5)
        with pytest.raises(TypeError):
            ResidueFamily(a=0.5, b=0.5)  # b follows from a; it is not a field
        with pytest.raises(TypeError):
            ResidueFamily(a=0.5, residues=(1, 2, 4))  # a class attribute, not a field
        for bad in (1.5, -0.1, math.nan):
            with pytest.raises(ValueError, match=r"a must be a real number in \[0, 1\]"):
                ResidueFamily(a=bad)
        with pytest.raises(ValueError, match=r"j must be an integer in \[0, 6\], got 7"):
            ResidueFamily.from_a(0.5).pair_state(7)

    def test_aligned_member_is_diagonal_superposition(self):
        member = ResidueFamily.from_a(1.0).state()
        expected = np.zeros(343, dtype=complex)
        for j in range(7):
            expected[j * 49 + j * 7 + j] = 1.0 / np.sqrt(7.0)
        assert np.max(np.abs(member - expected)) < 1e-15

    def test_member_unit_norm(self):
        for a in (0.0, 0.3, 0.461, 0.9):
            assert abs(np.linalg.norm(ResidueFamily.from_a(a).state()) - 1.0) < 1e-12

    def test_member_cyclic_invariance(self):
        rng = np.random.default_rng(1)
        for a in rng.uniform(0.0, 1.0, size=4):
            member = ResidueFamily.from_a(float(a)).state()
            permuted = cyclic_permute(member, (7, 7, 7))
            assert abs(abs(np.vdot(member, permuted)) ** 2 - 1.0) < 1e-12

    def test_equivalent_index_patterns(self):
        # The doubled-residue and shifted-label rewrites permute which term
        # lands where, but every amplitude is a single assignment, so the
        # three builds must agree exactly, and with the member built from the
        # pair basis, for a corrupted residue set too.
        def build(family, pattern):
            amp = np.zeros(343, dtype=complex)
            for j in range(7):
                amp[j * 49 + j * 7 + j] += family.a / math.sqrt(7.0)
                for k in family.residues:
                    x, y, z = pattern(j, k)
                    amp[(x % 7) * 49 + (y % 7) * 7 + (z % 7)] += family.b / math.sqrt(7.0)
            return amp

        def residue_terms(j, k):
            return j + k, j + 2 * k, j + 4 * k

        for family in [ResidueFamily.from_a(a) for a in (0.0, 0.37, 0.461, 0.5, 1.0)] + [CORRUPTED]:
            assert np.array_equal(build(family, residue_terms), family.state())
        family = ResidueFamily.from_a(0.37)
        base = build(family, residue_terms)
        doubled = build(family, lambda j, k: (j + 2 * k, j + 4 * k, j + k))
        shifted = build(family, lambda j, k: (j, j + k, j + 3 * k))
        assert np.array_equal(base, doubled)
        assert np.array_equal(base, shifted)

    def test_pair_marginals_share_a_spectrum(self):
        rng = np.random.default_rng(2)
        for a in rng.uniform(0.0, 1.0, size=4):
            member = ResidueFamily.from_a(float(a)).state()
            spectra = [
                np.sort(np.linalg.eigvalsh(reduced_density_matrix(member, (7, 7, 7), keep)))
                for keep in [(0, 1), (1, 2), (0, 2)]
            ]
            assert np.max(np.abs(spectra[0] - spectra[1])) < 1e-10
            assert np.max(np.abs(spectra[0] - spectra[2])) < 1e-10


class TestPairStates:
    def test_orthonormal(self):
        family = ResidueFamily.from_a(0.461)
        basis = family.pair_basis()
        gram = basis @ basis.conj().T
        assert np.max(np.abs(gram - np.eye(7))) < 1e-12
        assert abs(np.vdot(family.pair_state(0), family.pair_state(1))) < 1e-15

    def test_balanced_weight_spectrum(self):
        family = ResidueFamily.from_a(0.5)
        spec = schmidt_spectrum(family.pair_state(2), (7, 7), (0,))
        assert np.allclose(spec[:4], 0.25, atol=1e-12)
        assert np.allclose(spec[4:], 0.0, atol=1e-12)
        assert pure_entanglement(family.pair_state(2), (7, 7), (0,)) == pytest.approx(2.0, abs=1e-12)

    def test_pair_density_routes_agree(self):
        family = ResidueFamily.from_a(0.461)
        traced = reduced_density_matrix(family.state(), (7, 7, 7), (1, 2))
        assert np.max(np.abs(family.pair_density() - traced)) < 1e-12

    def test_aligned_pair_density(self):
        family = ResidueFamily.from_a(1.0)
        expected = np.zeros((49, 49), dtype=complex)
        for j in range(7):
            expected[j * 7 + j, j * 7 + j] = 1.0 / 7.0
        assert np.max(np.abs(family.pair_density() - expected)) < 1e-15

    def test_pair_density_unit_trace(self):
        assert np.trace(ResidueFamily.from_a(0.3).pair_density()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("family", [ResidueFamily.from_a(a) for a in (0.0, 0.2, 0.461, 0.5, 0.9, 1.0)] + [CORRUPTED])
    def test_pair_state_entanglement_is_each_pair_states_entanglement(self, family):
        for j in range(7):
            value = pure_entanglement(family.pair_state(j), (7, 7), (0,))
            assert abs(value - family.pair_state_entanglement) <= 1e-12


class TestSpanState:
    def test_basis_coefficients_recover_pair_states(self):
        family = ResidueFamily.from_a(0.7)
        for j in range(7):
            coeffs = np.zeros(7, dtype=complex)
            coeffs[j] = 1.0
            assert np.array_equal(family.span_state(coeffs), family.pair_state(j))

    def test_uniform_coefficients_are_unit_norm(self):
        family = ResidueFamily.from_a(0.5)
        state = family.span_state(np.full(7, 1.0 / np.sqrt(7.0)))
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12

    def test_reported_coefficients_hit_the_minimum(self):
        family = ResidueFamily.from_a(0.461)
        coeffs = gauge_fix(REPORTED_COEFFS / np.linalg.norm(REPORTED_COEFFS))
        state = family.span_state(coeffs)
        assert pure_entanglement(state, (7, 7), (0,)) == pytest.approx(1.9944, abs=5e-4)

    @pytest.mark.parametrize("scale", [2.0, 1.0 + 1e-9, 1.0 - 1e-6, 0.5j])
    def test_rejects_unnormalized(self, scale):
        family = ResidueFamily.from_a(0.5)
        with pytest.raises(ValueError, match="not normalized"):
            family.span_state(np.ones(7))
        with pytest.raises(ValueError, match="need 7 span coefficients"):
            family.span_state(np.ones(6) / np.sqrt(6.0))
        # orbit_decomposition validates its seed with span_state's rules, to the message.
        coeffs = scale * random_coeffs(np.random.default_rng(9))
        with pytest.raises(ValueError, match=r"^span coefficient vector is not normalized") as expected:
            family.span_state(coeffs)
        with pytest.raises(ValueError) as raised:
            orbit_decomposition(coeffs, family)
        assert str(raised.value) == str(expected.value)

    def test_stack_gives_one_state_per_row(self):
        family = ResidueFamily.from_a(0.461)
        rng = np.random.default_rng(6)
        coeffs = rng.standard_normal((20, 7)) + 1j * rng.standard_normal((20, 7))
        coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
        for stack in (coeffs, coeffs.real / np.linalg.norm(coeffs.real, axis=1, keepdims=True)):
            assert np.array_equal(family.span_state(stack), [family.span_state(c) for c in stack])

    @pytest.mark.parametrize("shape", [(7, 7, 7), (3, 6), (6,), (8,), (), (2, 7, 1)])
    def test_rejects_wrong_shapes(self, shape):
        family = ResidueFamily.from_a(0.5)
        for build in (family.span_state, lambda coeffs: orbit_decomposition(coeffs, family)):
            with pytest.raises(ValueError, match=rf"^need 7 span coefficients, got shape {re.escape(str(shape))}$"):
                build(np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite(self, bad):
        # A NaN norm compares False against the unit-norm tolerance, so it
        # needs its own check.
        family = ResidueFamily.from_a(0.5)
        coeffs = np.eye(7, dtype=complex)[0]
        coeffs[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            family.span_state(coeffs)
        with pytest.raises(ValueError, match="non-finite"):
            orbit_decomposition(coeffs, family)


class TestGaugeFix:
    def test_makes_leading_coefficient_real(self):
        rng = np.random.default_rng(3)
        coeffs = random_coeffs(rng)
        fixed = gauge_fix(np.exp(1.3j) * coeffs)
        lead = fixed[np.flatnonzero(np.abs(fixed) > 1e-12)[0]]
        assert abs(lead.imag) < 1e-12
        assert lead.real >= 0.0

    def test_phase_only_changes_nothing_physical(self):
        rng = np.random.default_rng(4)
        coeffs = random_coeffs(rng)
        fixed1 = gauge_fix(coeffs)
        fixed2 = gauge_fix(np.exp(-0.7j) * coeffs)
        assert np.max(np.abs(fixed1 - fixed2)) < 1e-12

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero vector"):
            gauge_fix(np.zeros(7))
        with pytest.raises(ValueError, match="zero vector"):
            gauge_fix(np.stack([np.eye(7)[0], np.zeros(7)]))

    def test_real_stack_is_gauged_row_by_row(self):
        stack = np.random.default_rng(5).standard_normal((6, 7))
        stack[1, 0] = 0.0
        stack[2, :2] = [5e-13, -0.4]  # a lead below 1e-12 is skipped
        stack[3] = -np.eye(7)[4]
        fixed = gauge_fix(stack)
        assert fixed.dtype == np.float64
        assert np.array_equal(fixed, np.array([gauge_fix(row) for row in stack]))
        leads = [row[np.flatnonzero(np.abs(row) > 1e-12)[0]] for row in fixed]
        assert all(lead > 0.0 for lead in leads)
        assert np.array_equal(np.abs(fixed), np.abs(stack))

    def test_nan_row_stays_nan(self):
        stack = np.stack([np.full(7, np.nan), -np.eye(7)[3]])
        fixed = gauge_fix(stack)
        assert np.isnan(fixed[0]).all()
        assert np.array_equal(fixed[1], np.eye(7)[3])


class TestSymmetryOperators:
    def test_pair_operators_are_unitary(self):
        ops = symmetry_operators()
        for u in (ops.pair_phase, ops.pair_shift):
            assert np.max(np.abs(u @ u.conj().T - np.eye(49))) < 1e-12

    def test_eigenrelation_on_pair_basis(self):
        ops = symmetry_operators()
        family = ResidueFamily.from_a(0.461)
        for j in range(7):
            s_j = family.pair_state(j)
            assert np.max(np.abs(ops.pair_phase @ s_j - OMEGA**j * s_j)) < 1e-12
            assert np.max(np.abs(ops.pair_shift @ s_j - family.pair_state((j + 1) % 7))) < 1e-12

    def test_shift_wraps_around(self):
        family = ResidueFamily.from_a(0.3)
        ops = symmetry_operators()
        assert np.max(np.abs(ops.pair_shift @ family.pair_state(6) - family.pair_state(0))) < 1e-12

    def test_commutation_phase(self):
        # pair_phase pair_shift = OMEGA * pair_shift pair_phase, by direct product.
        ops = symmetry_operators()
        lhs = ops.pair_phase @ ops.pair_shift
        rhs = OMEGA * (ops.pair_shift @ ops.pair_phase)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestOrbitDecomposition:
    def test_basis_seed_reconstructs(self):
        family = ResidueFamily.from_a(0.461)
        coeffs = np.zeros(7, dtype=complex)
        coeffs[0] = 1.0
        dec = orbit_decomposition(coeffs, family)
        assert len(dec) == 49
        assert np.allclose(dec.weights, 1.0 / 49.0)
        assert np.max(np.abs(dec.mixture() - family.pair_density())) < 1e-10
        # Every element is a pair basis state up to phase.
        basis = family.pair_basis()
        overlaps = np.abs(dec.states @ basis.conj().T)
        assert np.allclose(np.max(overlaps, axis=1), 1.0, atol=1e-12)

    def test_random_seeds_reconstruct_and_share_entanglement(self):
        rng = np.random.default_rng(5)
        for a in rng.uniform(0.0, 1.0, size=3):
            family = ResidueFamily.from_a(float(a))
            for _ in range(5):
                coeffs = random_coeffs(rng)
                dec = orbit_decomposition(coeffs, family)
                assert np.max(np.abs(dec.mixture() - family.pair_density())) < 1e-10
                values = [pure_entanglement(s, (7, 7), (0,)) for s in dec.states]
                assert max(values) - min(values) < 1e-10

    def test_matches_operator_orbit(self):
        # Element 7m + p is pair_shift^p pair_phase^m |seed>, applied as
        # matrices; the span-coefficient build must agree for any residue set.
        ops = symmetry_operators()
        rng = np.random.default_rng(8)
        families = [ResidueFamily.from_a(a) for a in (0.0, 0.3, 0.461, 0.5, 1.0)] + [CORRUPTED]
        for family in families:
            coeffs = random_coeffs(rng)
            expected = []
            phased = family.span_state(coeffs)
            for _ in range(7):
                shifted = phased
                for _ in range(7):
                    expected.append(shifted)
                    shifted = ops.pair_shift @ shifted
                phased = ops.pair_phase @ phased
            assert np.max(np.abs(orbit_decomposition(coeffs, family).states - np.array(expected))) < 1e-14

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_roll_construction_to_the_bit(self, seed):
        # The old build: 7 np.roll calls and a np.stack of the phased coefficients, kept here as the oracle.
        rng = np.random.default_rng(seed)
        levels = np.arange(7)
        for family in [ResidueFamily.from_a(a) for a in (0.0, 0.3, 0.461, 0.5, 1.0)] + [CORRUPTED]:
            for coeffs in (random_coeffs(rng), np.eye(7)[seed], REPORTED_COEFFS / np.linalg.norm(REPORTED_COEFFS)):
                phased = np.asarray(coeffs, dtype=complex) * OMEGA ** (np.outer(levels, levels) % 7)
                rolled = np.stack([np.roll(phased, p, axis=1) for p in range(7)], axis=1)
                expected = rolled.reshape(49, 7) @ family.pair_basis()
                assert np.array_equal(orbit_decomposition(coeffs, family).states, expected)


class TestCyclicPermute:
    def test_basis_relabeling(self):
        psi = np.zeros(8, dtype=complex)
        psi[1] = 1.0  # |0,0,1>
        permuted = cyclic_permute(psi, (2, 2, 2))
        expected = np.zeros(8, dtype=complex)
        expected[4] = 1.0  # |1,0,0>
        assert np.array_equal(permuted, expected)

    def test_period_three(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal(27) + 1j * rng.standard_normal(27)
        psi = z / np.linalg.norm(z)
        out = psi
        for _ in range(3):
            out = cyclic_permute(out, (3, 3, 3))
        assert np.max(np.abs(out - psi)) < 1e-15

    def test_rejects_unequal_dims(self):
        with pytest.raises(ValueError):
            cyclic_permute(np.ones(8) / np.sqrt(8.0), (2, 2, 2, 1))


class TestWState:
    def test_three_qubits(self):
        expected = np.zeros(8, dtype=complex)
        expected[[4, 2, 1]] = 1.0 / np.sqrt(3.0)  # |100>, |010>, |001>
        assert np.max(np.abs(w_state(3) - expected)) < 1e-15

    def test_two_qubits_maximally_entangled(self):
        psi = w_state(2)
        expected = np.zeros(4, dtype=complex)
        expected[[2, 1]] = 1.0 / np.sqrt(2.0)
        assert np.max(np.abs(psi - expected)) < 1e-15
        rho = np.outer(psi, psi.conj())
        assert qubit_concurrence(rho) == pytest.approx(1.0, abs=1e-9)

    def test_four_qubit_pair_concurrence(self):
        pair = reduced_density_matrix(w_state(4), (2, 2, 2, 2), (0, 1))
        assert qubit_concurrence(pair) == pytest.approx(0.5, abs=1e-9)

    def test_rejects_single_qubit(self):
        with pytest.raises(ValueError):
            w_state(1)


def test_real_constructors_build_float_arrays():
    # Real operators and states stay real: no complex buffer is allocated.
    family = ResidueFamily.from_a(0.461)
    for built in (
        swap_operator(3),
        singlet_pair_reduced(3),
        singlet_state(3),
        w_state(3),
        family.pair_basis(),
        family.pair_state(0),
        family.state(),
        family.pair_density(),
    ):
        assert built.dtype == np.float64
