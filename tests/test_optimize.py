import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest

import qshare.optimize
from qshare.linalg import SPECTRUM_CLIP, schmidt_spectrum
from qshare.measures import Decomposition, pure_entanglement, shannon_entropy
from qshare.optimize import (
    PAIR_CUT,
    PAIR_DIMS,
    _CROSSING_TOLERANCE,
    _GOLDEN_GAMMA,
    _MAX_ITERATIONS,
    _MIXED_SEED,
    _STEP_TOLERANCE,
    _TRACE_STEP,
    _VALUE_TOLERANCE,
    _VERTEX_WEIGHT,
    _WITNESS_TIE,
    OptimizationConfig,
    _continue_mixed_branch,
    _lbfgs,
    _mix,
    _SpanObjective,
    _starts,
    _tangent_hessian,
    average_entanglement,
    maximize_pair_eof,
    min_span_entanglement,
    pair_eof,
    span_entanglement,
)
from qshare.states import MODULUS, ResidueFamily, orbit_decomposition

FAST = OptimizationConfig(restarts=20, seed=0)
SCAN_SEEDS = (0, 1, 2, 3, 5, 7, 11, 12345)
SOLVERS = (min_span_entanglement, _continue_mixed_branch)


@functools.cache
def fast_scan(seed):
    # The cache lives for the whole session, so a scan run under a patched
    # solver would become every later test's reference: refuse it.
    solvers = (qshare.optimize.min_span_entanglement, qshare.optimize._continue_mixed_branch)
    assert solvers == SOLVERS, "fast_scan called under a patched solver"
    return maximize_pair_eof(dataclasses.replace(FAST, seed=seed))


def difference_hessian(objective, x, step=1e-5):
    """Tangent Hessian from central differences of the exact gradient, all 15 rows in one call."""
    probes = step * np.eye(MODULUS)
    _, grads = objective.value_and_grad(np.concatenate([x[None], x + probes, x - probes]))
    tangent = np.eye(MODULUS) - np.outer(x, x)
    hessian = (grads[1 : MODULUS + 1] - grads[MODULUS + 1 :]) / (2.0 * step)
    return tangent @ (0.5 * (hessian + hessian.T)) @ tangent


def vertex_value(a):
    return ResidueFamily.from_a(a).pair_state_entanglement


def random_coeffs(rng):
    z = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    return z / np.linalg.norm(z)


def basis_coeffs(j):
    coeffs = np.zeros(7, dtype=complex)
    coeffs[j] = 1.0
    return coeffs


def uniform_orbit(coeffs, family):
    """Orbit of the uniform span state, whatever minimizer it is asked for."""
    return orbit_decomposition(np.ones(7) / np.sqrt(7), family)


def rotated_orbit(coeffs, family):
    """The right orbit moved by a local unitary on the first particle: every
    element keeps its entanglement, but the mixture is no longer the marginal."""
    dec = orbit_decomposition(coeffs, family)
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((7, 7)))
    return Decomposition(dec.weights, dec.states @ np.kron(q, np.eye(7)).T)


def never_at_vertex(self, x):
    """A vertex test that never fires: every row runs to the rest of the stopping rule."""
    return np.zeros(len(x), dtype=bool)


# The complex problem over all 14 real coordinates of the span coefficients,
# kept as an oracle: the optimizer's search of the real span must lose
# nothing against it.
class ComplexSpanObjective:
    """Pair entanglement as a function of 14 real span coordinates.

    The first seven coordinates are the real parts of the coefficients and
    the last seven the imaginary parts.  The value is invariant under scaling,
    so the unit-norm constraint never needs explicit projection.
    """

    def __init__(self, family: ResidueFamily):
        # Pair state j reshaped to the 7x7 amplitude matrix across the cut.
        self.basis_mats = family.pair_basis().reshape(MODULUS, MODULUS, MODULUS)
        self.vertex_value = family.pair_state_entanglement

    def entanglement(self, coeffs):
        """Entanglement (R,) at each row of unit-norm complex coefficients (R, 7)."""
        m = np.einsum("rj,jab->rab", coeffs, self.basis_mats)
        return shannon_entropy(np.linalg.eigvalsh(m @ m.conj().transpose(0, 2, 1)))

    def value_and_grad(self, x):
        """Values (R,) and gradients (R, 14) at the rows of ``x`` (R, 14).

        Every row is computed by the same operations whatever the other rows
        are, so a row's result does not depend on the batch it is in.
        """
        n2 = np.einsum("ri,ri->r", x, x)
        # Scale-free objective; a zero row (unreachable in practice from unit
        # starts) gets a value above every feasible one, a non-finite row NaN.
        zero = n2 < 1e-18
        finite = np.isfinite(n2)
        usable = finite & ~zero
        x = np.where(usable[:, None], x, 0.0)
        n2 = np.where(usable, n2, 1.0)
        v = x[:, :MODULUS] + 1j * x[:, MODULUS:]
        m = np.einsum("rj,jab->rab", v, self.basis_mats)
        m_h = m.conj().transpose(0, 2, 1)
        w, p = np.linalg.eigh((m @ m_h) / n2[:, None, None])
        w = np.clip(w, 0.0, None)
        f = shannon_entropy(w)
        # dE = -Tr(log2(rho) drho); the spectral log uses the clipped spectrum.
        log_w = np.log2(np.where(w > SPECTRUM_CLIP, w, 1.0))
        lmat = (p * log_w[:, None, :]) @ p.conj().transpose(0, 2, 1)
        g = np.einsum("jab,rba->rj", self.basis_mats, m_h @ lmat)
        scale = 2.0 / n2[:, None]
        grad = np.concatenate([-scale * g.real, scale * g.imag], axis=1) - (scale * f[:, None]) * x
        f[zero] = 3.0
        f[~finite] = np.nan
        grad[~usable] = 0.0
        return f, grad

    at_vertex = never_at_vertex


class TestConfig:
    def test_defaults(self):
        config = OptimizationConfig()
        assert tuple(field.name for field in dataclasses.fields(config)) == ("restarts", "seed")
        assert config.restarts == 200
        assert config.seed == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizationConfig(restarts=0)
        # The stopping rule is fixed in the solver, not set per config.
        with pytest.raises(TypeError):
            OptimizationConfig(value_tolerance=2.0)
        with pytest.raises(ValueError):
            OptimizationConfig(seed=-1)
        for field in ("restarts", "seed"):
            for bad in (2.5, 3.0, True, np.True_, "3", None):
                with pytest.raises(ValueError, match=f"{field} must be an integer"):
                    OptimizationConfig(**{field: bad})
        config = OptimizationConfig(restarts=np.int64(3), seed=np.uint8(2))
        assert (config.restarts, config.seed) == (3, 2)


class TestSpanEntanglement:
    def test_basis_at_balanced_weight(self):
        assert span_entanglement(basis_coeffs(0), 0.5) == pytest.approx(2.0, abs=1e-12)

    def test_basis_at_optimal_weight(self):
        value = span_entanglement(basis_coeffs(3), 0.461)
        assert value == pytest.approx(1.9943986707286864, abs=1e-12)
        assert value == pytest.approx(1.9944, abs=5e-4)

    def test_basis_at_aligned_weight_is_product(self):
        assert span_entanglement(basis_coeffs(0), 1.0) == 0.0

    def test_gauge_invariance(self):
        rng = np.random.default_rng(0)
        coeffs = random_coeffs(rng)
        phase = np.exp(0.9j)
        assert span_entanglement(phase * coeffs, 0.5) == pytest.approx(
            span_entanglement(coeffs, 0.5), abs=1e-12
        )


class TestObjectiveGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(1)
        step = 1e-6
        for a in (0.3, 0.5, 0.461):
            objective = _SpanObjective(ResidueFamily.from_a(a))
            for _ in range(5):
                x = rng.standard_normal(7)
                x /= np.linalg.norm(x)
                _, grad = objective.value_and_grad(x[None])
                for i in rng.choice(7, size=5, replace=False):
                    probe = x.copy()
                    probe[i] += step
                    up, _ = objective.value_and_grad(probe[None])
                    probe[i] -= 2 * step
                    down, _ = objective.value_and_grad(probe[None])
                    numeric = (up[0] - down[0]) / (2 * step)
                    assert grad[0, i] == pytest.approx(numeric, abs=5e-7)

    def test_value_is_the_entropy_of_the_clipped_spectrum(self):
        # The value takes 0 log 0 := 0 from the clipped log the gradient uses;
        # it equals shannon_entropy of the spectrum bit for bit, on random rows
        # and on rank-deficient ones (vertices, few-term rows, vertices nudged
        # 1e-8 off) whose spectra hold exact zeros and entries below the clip.
        rng = np.random.default_rng(5)
        exact_zero = below_clip = 0
        for a in (0.0, 0.3, 0.461, 0.5, 1.0):
            objective = _SpanObjective(ResidueFamily.from_a(a))
            few = rng.random((40, MODULUS)) < 0.3
            few[np.arange(40), rng.integers(MODULUS, size=40)] = True
            few = few * rng.standard_normal(few.shape)
            nudged = np.eye(MODULUS) + 1e-8 * rng.standard_normal((MODULUS, MODULUS))
            x = np.concatenate([rng.standard_normal((40, MODULUS)), np.eye(MODULUS), few, nudged])
            w, _, _, f, _ = objective._evaluate(x)
            assert f.tobytes() == shannon_entropy(w).tobytes()
            exact_zero += np.count_nonzero((w == 0.0).any(axis=1))
            below_clip += np.count_nonzero(((w > 0.0) & (w <= SPECTRUM_CLIP)).any(axis=1))
        assert exact_zero > 0 and below_clip > 0

    def test_scale_invariance(self):
        objective = _SpanObjective(ResidueFamily.from_a(0.461))
        rng = np.random.default_rng(2)
        x = rng.standard_normal(7)
        f, _ = objective.value_and_grad(np.array([x, 2.5 * x]))
        assert f[0] == pytest.approx(f[1], abs=1e-12)

    def test_rows_do_not_depend_on_the_batch(self):
        objective = _SpanObjective(ResidueFamily.from_a(0.5))
        x = np.random.default_rng(4).standard_normal((40, 7))
        f, grad = objective.value_and_grad(x)
        for lo, hi in [(i, i + 1) for i in range(40)] + [(0, 2), (3, 6), (5, 12), (1, 28), (13, 40)]:
            f_part, grad_part = objective.value_and_grad(x[lo:hi])
            assert np.array_equal(f_part, f[lo:hi])
            assert np.array_equal(grad_part, grad[lo:hi])


class TestNewtonCorrector:
    @pytest.mark.parametrize("a", [0.3, 0.461, 0.5])
    def test_tangent_hessian_matches_second_differences(self, a):
        # x^T g = 0 for the scale-free value, so along a tangent u the
        # Riemannian Hessian form u^T H u is the second derivative of
        # f(x + t u); polarization gives the off-diagonal forms.
        objective = _SpanObjective(ResidueFamily.from_a(a))
        rng = np.random.default_rng(5)
        x = rng.standard_normal(7)
        x /= np.linalg.norm(x)
        value, grad, hessian = _tangent_hessian(objective, x)
        (f,), (full,) = objective.value_and_grad(x[None])
        assert value == f and np.allclose(grad, full, atol=1e-15)
        assert np.allclose(hessian @ x, 0.0, atol=1e-12)
        tangent = np.eye(7) - np.outer(x, x)
        step = 1e-4

        def curvature(u):
            values, _ = objective.value_and_grad(np.array([x + step * u, x, x - step * u]))
            return (values[0] - 2.0 * values[1] + values[2]) / step**2

        for _ in range(3):
            u, v = (tangent @ rng.standard_normal((7, 2))).T
            u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
            assert u @ hessian @ u == pytest.approx(curvature(u), abs=1e-6)
            assert u @ hessian @ v == pytest.approx((curvature(u + v) - curvature(u - v)) / 4.0, abs=2e-6)

    @pytest.mark.parametrize("a", [0.461, 0.5, 0.539])
    def test_tangent_hessian_matches_gradient_differences(self, a):
        # At the mixed minimizer the exact Hessian agrees with central
        # differences of the gradient to their own truncation error.
        x, _, converged = _continue_mixed_branch(min_span_entanglement(0.5, FAST).argmin, a)
        assert converged and np.max(x**2) <= _VERTEX_WEIGHT
        objective = _SpanObjective(ResidueFamily.from_a(a))
        hessian = _tangent_hessian(objective, x)[2]
        assert np.array_equal(hessian, hessian.T)
        assert np.max(np.abs(hessian - difference_hessian(objective, x))) <= 1e-7

    def test_tangent_hessian_is_symmetric(self):
        rng = np.random.default_rng(7)
        for a in (0.0, 0.3, 0.461, 0.5, 1.0):
            x = rng.standard_normal(7)
            hessian = _tangent_hessian(_SpanObjective(ResidueFamily.from_a(a)), x / np.linalg.norm(x))[2]
            assert np.array_equal(hessian, hessian.T)

    def test_tangent_hessian_at_a_vertex(self):
        # At a = 1/2 a basis vertex has Schmidt spectrum (1/4, 1/4, 1/4, 1/4,
        # 0, 0, 0): four equal eigenvalues take the limit L_aa = 1/w_a, and
        # three zeros are clipped, so no division or log meets a 0.
        objective = _SpanObjective(ResidueFamily.from_a(0.5))
        x = np.eye(MODULUS)[3]
        assert np.allclose(objective.value_and_grad(x[None])[0], 2.0, atol=1e-15)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, grad, hessian = _tangent_hessian(objective, x)
        assert np.all(np.isfinite(hessian)) and np.array_equal(hessian, hessian.T)
        assert np.allclose(grad, 0.0, atol=1e-15) and np.allclose(hessian @ x, 0.0, atol=1e-12)

    def test_iteration_cap_fails_the_solve(self, monkeypatch):
        start = min_span_entanglement(0.5, FAST).argmin
        x, gap, converged = _continue_mixed_branch(start, 0.495)
        assert converged and gap < 0.0
        monkeypatch.setattr("qshare.optimize._NEWTON_ITERATIONS", 1)
        capped, capped_gap, converged = _continue_mixed_branch(start, 0.495)
        assert not converged
        assert np.all(np.isfinite(capped)) and capped_gap < 0.0

    @pytest.mark.parametrize("a", [0.461, 0.495, 0.53])
    def test_one_evaluation_per_iteration(self, monkeypatch, a):
        # Every Newton iteration evaluates the objective once, in
        # _tangent_hessian, and the returned gap is that evaluation's: no
        # extra value is taken after the last step, and the Hessian is built
        # from the evaluation's own eigenpairs, so an iteration makes one
        # eigendecomposition.
        start = min_span_entanglement(0.5, FAST).argmin
        calls = {}

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            return wrapper

        monkeypatch.setattr(_SpanObjective, "_evaluate", counted("evaluations", _SpanObjective._evaluate))
        monkeypatch.setattr("qshare.optimize._tangent_hessian", counted("iterations", _tangent_hessian))
        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigh", np.linalg.eigvalsh))
        for cap in (1, 2, 10):
            monkeypatch.setattr("qshare.optimize._NEWTON_ITERATIONS", cap)
            calls.update(evaluations=0, iterations=0, eigh=0)
            _, _, converged = _continue_mixed_branch(start, a)
            assert 1 <= calls["evaluations"] == calls["iterations"] <= cap
            assert calls["eigh"] == calls["iterations"]
            assert converged or calls["iterations"] == cap

    @pytest.mark.parametrize("a", [0.0, 0.461, 0.495, 1.0])
    def test_gap_is_taken_at_the_returned_point(self, monkeypatch, a):
        start = min_span_entanglement(0.5, FAST).argmin
        objective = _SpanObjective(ResidueFamily.from_a(a))
        for cap in (1, 3, 10):
            monkeypatch.setattr("qshare.optimize._NEWTON_ITERATIONS", cap)
            x, gap, _ = _continue_mixed_branch(start, a)
            assert gap == objective.value_and_grad(x[None])[0][0] - objective.vertex_value

    @pytest.mark.parametrize("a", (0.0, 1.0))
    def test_evaluates_only_at_its_own_weight(self, a):
        # g is taken at a alone, so the ends of [0, 1] are valid weights.
        start = min_span_entanglement(0.5, FAST).argmin
        x, gap, _ = _continue_mixed_branch(start, a)
        assert np.all(np.isfinite(x)) and np.isfinite(gap)


class _Quadratic:
    """|x - centre|^2 per row: a stand-in objective with a known minimizer."""

    def __init__(self, centre):
        self.centre = centre

    def value_and_grad(self, x):
        diff = x - self.centre
        return np.einsum("ri,ri->r", diff, diff), 2.0 * diff

    at_vertex = never_at_vertex


class _Plateau:
    """A constant value with a nonzero gradient: no step lowers the value."""

    def value_and_grad(self, x):
        return np.ones(len(x)), np.ones_like(x)

    at_vertex = never_at_vertex


class TestRestarts:
    def test_seeds_share_no_start(self):
        # 2**64 + 5 differs from 5 only above the lowest 64-bit word.
        first = _starts(OptimizationConfig(restarts=40, seed=5))
        for other in (6, 2**64 + 5):
            second = _starts(OptimizationConfig(restarts=40, seed=other))
            shared = (first[:, None, :] == second[None, :, :]).all(axis=2)
            assert not shared.any()

    def test_start_does_not_depend_on_restart_count(self):
        many = _starts(OptimizationConfig(restarts=40, seed=5))
        assert np.array_equal(_starts(OptimizationConfig(restarts=7, seed=5)), many[:7])
        assert np.allclose(np.linalg.norm(many, axis=1), 1.0)

    def test_generator_is_splitmix64(self):
        # The first two outputs of SplitMix64 from state 0, as published with the generator.
        outputs = _mix(np.arange(1, 3, dtype=np.uint64) * _GOLDEN_GAMMA)
        assert [int(z) for z in outputs] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]

    @pytest.mark.parametrize(
        "seed", [0, 5, 2**63, 2**64 - 1, 2**64 + 5, 3**200], ids=["0", "5", "2**63", "2**64-1", "2**64+5", "3**200"]
    )
    def test_starts_match_the_loop_reference(self, seed):
        # Python integers and the math module; only log, cos and sin may
        # round differently, by an ulp or two.  The uint64 products wrap
        # without the overflow warning that numpy scalars would raise.
        mask = 2**64 - 1

        def mix(z):
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)

        key = 0
        for shift in range(0, max(seed.bit_length(), 1), 64):
            key = mix(key ^ ((seed >> shift) & mask))
        rows = []
        for i in range(5):
            u = [((mix((key + (8 * i + j + 1) * _GOLDEN_GAMMA) & mask) >> 11) + 0.5) / 2**53 for j in range(8)]
            radius = [math.sqrt(-2.0 * math.log(u[j])) for j in range(4)]
            normals = [radius[j] * f(2.0 * math.pi * u[j + 4]) for f in (math.cos, math.sin) for j in range(4)]
            rows.append(np.array(normals[:MODULUS]) / math.hypot(*normals[:MODULUS]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            starts = _starts(OptimizationConfig(restarts=5, seed=seed))
        assert np.max(np.abs(starts - np.array(rows))) <= 8 * np.finfo(float).eps

    def test_golden_start(self):
        # Seed 0, restart 0: a change of the stream shows here first.
        golden = [
            0.12894152799370398, -0.19963598628973916, 0.4091709927888308, 0.01081982040619498,
            0.10177638510882865, 0.3780469817874685, 0.78911572819132,
        ]
        start = _starts(OptimizationConfig(restarts=1, seed=0))[0]
        assert np.max(np.abs(start - golden)) <= 1e-15

    def test_starts_are_isotropic(self):
        # On the unit sphere in R^7 a coordinate has mean 0 and variance 1/7, and its square
        # has mean 1/7 and variance E[x^4] - 1/49 = 1/21 - 1/49 = 4/147.
        x = _starts(OptimizationConfig(restarts=20_000, seed=0))
        count = len(x)
        assert np.all(np.abs(x.mean(axis=0)) <= 5.0 * np.sqrt(1.0 / 7.0 / count))
        assert np.all(np.abs((x * x).mean(axis=0) - 1.0 / 7.0) <= 5.0 * np.sqrt(4.0 / 147.0 / count))

    def test_no_start_is_shared_across_seeds(self):
        rows = np.concatenate([_starts(OptimizationConfig(restarts=200, seed=seed)) for seed in range(100)])
        assert len(np.unique(rows, axis=0)) == len(rows) == 20_000

    def test_restart_at_a_minimizer_converges(self):
        objective = _SpanObjective(ResidueFamily.from_a(0.461))
        argmin = min_span_entanglement(0.461, FAST).argmin
        vertex = np.zeros(7)
        vertex[3] = 1.0
        starts = np.array([vertex, argmin])
        start_values, _ = objective.value_and_grad(starts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, _, _, converged = _lbfgs(objective, starts)
        assert converged.all()
        final_values, _ = objective.value_and_grad(x)
        assert np.all(final_values <= start_values + _VALUE_TOLERANCE)

    def test_stationary_start_converges_in_place(self):
        centre = np.linspace(-1.0, 1.0, 14)
        x, _, iterations, converged = _lbfgs(_Quadratic(centre), np.array([centre, centre + 0.5]))
        assert converged.all()
        assert iterations[0] == 0 and np.array_equal(x[0], centre)
        assert np.allclose(x[1], centre, atol=1e-4)

    def test_round_off_gradient_start_converges_in_place(self):
        # At the basis vertex e_3 the gradient is round-off along x itself; a
        # unit step there would land on 2 e_3 at an unchanged value.
        objective = _SpanObjective(ResidueFamily.from_a(0.461))
        vertex = np.zeros((1, 7))
        vertex[0, 3] = 1.0
        _, grad = objective.value_and_grad(vertex)
        assert 0.0 < np.linalg.norm(grad) < 1e-14
        x, _, iterations, converged = _lbfgs(objective, vertex)
        assert converged[0] and iterations[0] == 0
        assert np.array_equal(x, vertex)

    def test_failed_line_search_converges_in_place(self):
        # The steepest descent descends, but backtracking reaches the step
        # floor without lowering the value: the restart stops at its start.
        starts = _starts(OptimizationConfig(restarts=3, seed=0))
        x, _, iterations, converged = _lbfgs(_Plateau(), starts)
        assert converged.all()
        assert np.array_equal(iterations, [0, 0, 0])
        assert np.array_equal(x, starts)

    def test_non_finite_start_fails_alone(self):
        objective = _SpanObjective(ResidueFamily.from_a(0.5))
        starts = _starts(OptimizationConfig(restarts=2, seed=0))
        starts[0] = np.nan
        x, values, iterations, converged = _lbfgs(objective, starts)
        assert not converged[0] and iterations[0] == 0 and np.isnan(values[0])
        assert converged[1] and np.all(np.isfinite(x[1])) and np.isfinite(values[1])

    def test_iteration_limit_fails_the_restart(self, monkeypatch):
        monkeypatch.setattr("qshare.optimize._MAX_ITERATIONS", 1)
        result = min_span_entanglement(0.5, OptimizationConfig(restarts=5, seed=0))
        assert result.failed_restarts == tuple(range(5))
        assert np.all(np.isfinite(result.restart_values))

    def test_solve_with_no_usable_restart_raises(self, monkeypatch):
        monkeypatch.setattr("qshare.optimize._starts", lambda config: np.full((config.restarts, 7), np.nan))
        with pytest.raises(RuntimeError, match="all 3 restarts failed at a=0.5"):
            min_span_entanglement(0.5, OptimizationConfig(restarts=3, seed=0))

    @pytest.mark.parametrize("a", [0.3, 0.461, 0.5, 0.75])
    def test_merged_minimum_matches_scipy_from_same_starts(self, a):
        minimize = pytest.importorskip("scipy.optimize").minimize
        objective = _SpanObjective(ResidueFamily.from_a(a))

        def fun(x):
            f, grad = objective.value_and_grad(x[None])
            return f[0], grad[0]

        options = {"maxiter": _MAX_ITERATIONS, "ftol": _VALUE_TOLERANCE, "gtol": _STEP_TOLERANCE}
        runs = [minimize(fun, x0, jac=True, method="L-BFGS-B", options=options) for x0 in _starts(FAST)]
        ends = np.array([res.x for res in runs])
        values, _ = objective.value_and_grad(ends)
        # Each end above V(a) or on a vertex's cap counts at V(a), as in a solve.
        snapped = objective.at_vertex(ends) | (values > objective.vertex_value)
        oracle = np.where(snapped, objective.vertex_value, values).min()
        assert min_span_entanglement(a, FAST).value == pytest.approx(oracle, abs=_VALUE_TOLERANCE)


@pytest.fixture
def lbfgs_ends(monkeypatch):
    """(objective, ends, values) of each solve's L-BFGS run, recorded before the solve snaps its values."""
    ends = []

    def recorded(objective, x0):
        x, f, iterations, converged = _lbfgs(objective, x0)
        ends.append((objective, x, f.copy()))
        return x, f, iterations, converged

    monkeypatch.setattr("qshare.optimize._lbfgs", recorded)
    return ends


def copysign_gauge(coeffs):
    """Sign rule for the witness, written out as an oracle for the solve's call to ``gauge_fix``."""
    lead = np.argmax(np.abs(coeffs) > 1e-12, axis=1)
    return coeffs * np.copysign(1.0, coeffs[np.arange(len(coeffs)), lead])[:, None]


class _Unsnapped:
    """A constant objective with no vertex, NaN at a non-finite point: a solve then only normalizes and gauges."""

    vertex_value = np.inf
    at_vertex = never_at_vertex

    def __init__(self, family):
        pass

    def value_and_grad(self, x):
        return np.where(np.isfinite(x).all(axis=1), 0.0, np.nan), np.zeros_like(x)


class TestSolveEnds:
    def test_witness_follows_the_sign_rule(self, monkeypatch):
        x = np.random.default_rng(9).standard_normal((6, MODULUS))
        x[0, 0] = -abs(x[0, 0])  # negative lead
        x[1, :3] = [5e-13, -0.6, 0.8]  # a lead below 1e-12 is skipped
        x[2] = -np.eye(MODULUS)[4]  # an exact basis vector
        x[3] = np.nan
        unit = copysign_gauge(x / np.linalg.norm(x, axis=1, keepdims=True))
        # Every finite end is stationary where it starts and ties at 0; Newton is held off.
        monkeypatch.setattr("qshare.optimize._SpanObjective", _Unsnapped)
        monkeypatch.setattr("qshare.optimize._newton", lambda objective, x: (x, np.nan, False))
        for row in (0, 1, 2, 4, 5):
            # The non-finite end ahead of the witness reports +inf and is passed over.
            monkeypatch.setattr("qshare.optimize._starts", lambda config: x[[3, row]])
            result = min_span_entanglement(0.5, OptimizationConfig(restarts=2, seed=0))
            assert np.array_equal(result.restart_values, [np.inf, 0.0])
            assert result.restart_index == 1 and result.value == 0.0
            assert result.argmin.dtype == np.float64
            assert np.array_equal(result.argmin, unit[row]), row

    @pytest.mark.parametrize("a", [0.0, 0.3, 0.43, 0.461, 0.5, 0.53, 0.8])
    def test_end_values_are_the_values_of_the_normalized_ends(self, lbfgs_ends, a):
        # The objective is scale-free, so L-BFGS's own value at an end off
        # the unit sphere is the value at the normalized end, to round-off;
        # a solve keeps it, or reports exactly V(a) for a snapped end.
        norms = []
        for seed in range(5):
            result = min_span_entanglement(a, OptimizationConfig(restarts=40, seed=seed))
            objective, x, f = lbfgs_ends.pop()
            norms.append(np.linalg.norm(x, axis=1))
            unit_values, _ = objective.value_and_grad(x / norms[-1][:, None])
            assert np.max(np.abs(f - unit_values)) <= 1e-13
            snapped = (f > objective.vertex_value) | objective.at_vertex(x)
            assert np.all(result.restart_values[snapped] == objective.vertex_value)
            assert np.array_equal(result.restart_values[~snapped], f[~snapped])
        # The ends are not on the unit sphere.
        assert np.max(np.abs(np.concatenate(norms) - 1.0)) > 0.1


class TestIndexSymmetry:
    @pytest.mark.parametrize("a", [0.3, 0.461, 0.5, 0.8])
    def test_residue_multipliers_keep_the_objective(self, a):
        # Relabelling the span coefficients by j -> u j + t (mod 7) keeps the
        # value at every point for u in {1, 2, 4} and each t, 21 maps; for
        # u in {3, 5, 6} some of 500 random points move by more than 0.1.
        objective = _SpanObjective(ResidueFamily.from_a(a))
        x = np.random.default_rng(0).standard_normal((500, MODULUS))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        values, _ = objective.value_and_grad(x)
        j = np.arange(MODULUS)
        for u in range(1, MODULUS):
            for t in range(MODULUS):
                moved = np.empty_like(x)
                moved[:, (u * j + t) % MODULUS] = x
                change = np.max(np.abs(objective.value_and_grad(moved)[0] - values))
                if u in (1, 2, 4):
                    assert change <= 1e-14, (u, t)
                else:
                    assert change > 0.1, (u, t)


class TestComplexOracle:
    @pytest.mark.parametrize("a", [0.3, 0.461, 0.5, 0.53, 0.75])
    def test_real_minimum_matches_complex_search(self, a):
        config = OptimizationConfig(restarts=40, seed=0)
        objective = ComplexSpanObjective(ResidueFamily.from_a(a))
        starts = np.random.default_rng(0).standard_normal((config.restarts, 14))
        starts /= np.linalg.norm(starts, axis=1, keepdims=True)
        _, values, _, _ = _lbfgs(objective, starts)
        oracle = np.minimum(values, objective.vertex_value).min()
        assert min_span_entanglement(a, config).value == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("a", [0.47, 0.5, 0.53])
    def test_real_minimizer_is_a_complex_local_minimum(self, a):
        result = min_span_entanglement(a, OptimizationConfig(restarts=40, seed=0))
        assert result.nontrivial_minimizer
        objective = ComplexSpanObjective(ResidueFamily.from_a(a))
        x = np.concatenate([result.argmin, np.zeros(7)])
        _, grad = objective.value_and_grad(x[None])
        assert np.all(grad[0, 7:] == 0.0)
        # Imaginary-direction Hessian by central differences of the gradient.
        step = 1e-5
        imaginary = np.eye(14)[7:]
        _, up = objective.value_and_grad(x + step * imaginary)
        _, down = objective.value_and_grad(x - step * imaginary)
        hessian = (up[:, 7:] - down[:, 7:]) / (2 * step)
        curvatures = np.linalg.eigvalsh((hessian + hessian.T) / 2)
        # One flat direction, the global phase; every other one curves up.
        assert abs(curvatures[0]) < 1e-6
        assert curvatures[1] >= 0.1


class TestMinSpanEntanglement:
    def test_aligned_weight_reaches_zero(self):
        result = min_span_entanglement(1.0, FAST)
        assert abs(result.value) <= 1e-9

    def test_witness_and_ordering_invariants(self):
        result = min_span_entanglement(0.5, FAST)
        # The value is the entanglement of the reported point, at most the witness restart's raw value.
        assert abs(span_entanglement(result.argmin, 0.5) - result.value) <= 1e-14
        assert result.restart_values.shape == (FAST.restarts,)
        assert result.value <= result.restart_values[result.restart_index]
        # The witness is the first restart that ties the best to within 1e-11.
        ties = np.flatnonzero(result.restart_values <= result.restart_values.min() + 1e-11)
        assert result.restart_index == ties[0]

    @pytest.mark.parametrize(
        ("a", "seed"),
        [pytest.param(0.461, 0, id="0.461"), pytest.param(0.5, 0, id="0.5")]
        + [pytest.param(0.5, seed, id=f"0.5-seed{seed}") for seed in range(1, 10)],
    )
    def test_witness_does_not_follow_the_basis_layout(self, monkeypatch, a, seed):
        # The same basis values held contiguous, or as the strided real part
        # of a complex array, change only the round-off of each restart's
        # value: the witness must not move with it.  Unpolished, the L-BFGS
        # end of seed 8's witness at a = 1/2 moved 2.7e-11.
        init = _SpanObjective.__init__
        config = OptimizationConfig(restarts=200, seed=seed)

        def solve(layout):
            def patched(self, family):
                init(self, family)
                self.basis_mats = layout(self.basis_mats)

            monkeypatch.setattr(_SpanObjective, "__init__", patched)
            return min_span_entanglement(a, config)

        contiguous = solve(lambda mats: np.ascontiguousarray(mats.real))
        strided = solve(lambda mats: mats.astype(complex).real)
        assert not np.array_equal(strided.restart_values, contiguous.restart_values)
        assert strided.restart_index == contiguous.restart_index
        assert strided.iterations_used == contiguous.iterations_used
        assert np.max(np.abs(strided.argmin - contiguous.argmin)) <= 1e-12

    def test_lower_bounds_random_span_states(self):
        rng = np.random.default_rng(3)
        for a in (0.3, 0.75):
            result = min_span_entanglement(a, FAST)
            for _ in range(10):
                assert result.value <= span_entanglement(random_coeffs(rng), a) + 1e-8

    def test_deterministic_for_fixed_seed(self):
        first = min_span_entanglement(0.5, FAST)
        second = min_span_entanglement(0.5, FAST)
        assert np.array_equal(first.restart_values, second.restart_values)
        assert first.restart_index == second.restart_index
        assert np.array_equal(first.argmin, second.argmin)

    def test_batch_prefix_matches_smaller_batch(self):
        full = min_span_entanglement(0.5, FAST)
        for k in (1, 7):
            prefix = min_span_entanglement(0.5, OptimizationConfig(restarts=k, seed=FAST.seed))
            assert np.array_equal(prefix.restart_values, full.restart_values[:k])
            assert prefix.failed_restarts == tuple(i for i in full.failed_restarts if i < k)
            # The witness rule applied to the first k restart values.
            ties = np.flatnonzero(full.restart_values[:k] <= full.restart_values[:k].min() + 1e-11)
            assert prefix.restart_index == ties[0]
            assert abs(span_entanglement(prefix.argmin, 0.5) - prefix.value) <= 1e-14
            assert prefix.value <= full.restart_values[ties[0]]

    def test_seed_changes_restart_stream(self):
        other = OptimizationConfig(restarts=20, seed=1)
        first = min_span_entanglement(0.5, FAST)
        second = min_span_entanglement(0.5, other)
        assert not np.array_equal(first.restart_values, second.restart_values)
        # The merged minimum is robust to the seed.
        assert first.value == pytest.approx(second.value, abs=5e-4)

    def test_argmin_is_gauged(self):
        result = min_span_entanglement(0.5, FAST)
        lead = result.argmin[np.flatnonzero(np.abs(result.argmin) > 1e-12)[0]]
        assert abs(lead.imag) < 1e-12
        assert lead.real >= 0.0

    def test_balanced_weight_minimum_below_basis(self):
        result = min_span_entanglement(0.5, OptimizationConfig(restarts=60, seed=0))
        assert result.value == pytest.approx(1.9933, abs=5e-4)
        assert result.value < 2.0 - 1e-4
        assert result.nontrivial_minimizer

    def test_orbit_images_keep_argmin_entanglement(self):
        result = min_span_entanglement(0.5, FAST)
        family = ResidueFamily.from_a(0.5)
        dec = orbit_decomposition(result.argmin, family)
        values = [pure_entanglement(s, PAIR_DIMS, PAIR_CUT) for s in dec.states]
        assert max(abs(v - result.value) for v in values) < 1e-10


class TestNontrivialMinimizer:
    @pytest.mark.parametrize("restarts", (5, 40))
    def test_flag_does_not_depend_on_the_tie_window(self, lbfgs_ends, restarts):
        # A solve caps every usable restart at V(a) and puts every vertex
        # restart exactly there, so "some restart within _WITNESS_TIE of the
        # best is off a vertex" agrees with the same within 1e-6 and within
        # any distance.
        flags = []
        for a in [*np.linspace(0.0, 1.0, 21), 0.47, 0.49, 0.51, 0.53]:
            for seed in (0, 1):
                result = min_span_entanglement(float(a), OptimizationConfig(restarts=restarts, seed=seed))
                objective, x, f = lbfgs_ends.pop()
                values, off = result.restart_values, (f <= objective.vertex_value) & ~objective.at_vertex(x)
                assert np.all(values <= objective.vertex_value)
                assert np.all(values[~off] == objective.vertex_value)
                for window in (_WITNESS_TIE, 1e-6, np.inf):
                    assert result.nontrivial_minimizer == np.any((values <= values.min() + window) & off), (a, seed)
                flags.append(result.nontrivial_minimizer)
        assert 0 < sum(flags) < len(flags)


class TestVertexBound:
    @pytest.mark.parametrize("a", [0.0, 0.2, 0.461, 0.5, 0.8, 1.0])
    def test_matches_closed_form(self, a):
        a2 = a * a
        b2 = (1.0 - a2) / 3.0
        closed = -3.0 * b2 * np.log2(b2) if b2 > 0.0 else 0.0
        if a2 > 0.0:
            closed -= a2 * np.log2(a2)
        assert vertex_value(a) == pytest.approx(closed, abs=1e-12)

    def test_equals_the_objective_at_every_vertex_to_the_bit(self):
        for a in [*np.linspace(0.0, 1.0, 101), 0.461, 0.46099840856814, 0.5]:
            family = ResidueFamily.from_a(a)
            values, _ = _SpanObjective(family).value_and_grad(np.eye(MODULUS))
            assert np.all(values == family.pair_state_entanglement), a

    def test_solve_never_exceeds_vertex_value(self):
        # Seed 7's best restart at a = 0.43 stops in a local minimum 0.0135
        # above the vertex value, away from every vertex.
        result = min_span_entanglement(0.43, OptimizationConfig(restarts=20, seed=7))
        vertex_value = ResidueFamily.from_a(0.43).pair_state_entanglement
        assert result.value <= vertex_value
        assert np.all(result.restart_values <= vertex_value)
        assert not result.nontrivial_minimizer

    def test_local_minima_above_the_vertex_do_not_move_the_peak(self):
        scan = maximize_pair_eof(OptimizationConfig(restarts=20, seed=7))
        assert abs(scan.a_star - 0.461) <= 0.005
        assert abs(scan.e_star - 1.9944) <= 5e-4

    @pytest.mark.parametrize("a", [0.0, 0.3, 0.45, 0.55, 0.75, 1.0])
    def test_vertex_branch_solve_reports_the_vertex_exactly(self, a):
        # A descent into a basis vertex ends on it at V(a), not a few 1e-12
        # below, where the spectrum clip drops the smallest eigenvalues.
        result = min_span_entanglement(a, OptimizationConfig(restarts=40, seed=0))
        assert result.value == vertex_value(a)
        assert np.array_equal(result.argmin, np.eye(MODULUS)[np.argmax(result.argmin)])


class TestVertexRetirement:
    def test_vertex_cap_holds_no_lower_point(self):
        # The premise of retiring a restart on the cap: no point there lies
        # below V(a) by more than the spectrum clip's round-off.
        rng = np.random.default_rng(11)
        share = np.repeat([0.9901, 0.995, 0.999, 0.9999, 1.0 - 1e-6, 1.0 - 1e-9], 100)
        rows = np.arange(len(share))
        for a in np.linspace(0.0, 1.0, 41):
            objective = _SpanObjective(ResidueFamily.from_a(a))
            peaks = rng.integers(MODULUS, size=len(share))
            rest = rng.standard_normal((len(share), MODULUS))
            rest[rows, peaks] = 0.0
            x = np.sqrt(1.0 - share)[:, None] * rest / np.linalg.norm(rest, axis=1, keepdims=True)
            x[rows, peaks] = rng.choice([-1.0, 1.0], len(share)) * np.sqrt(share)
            assert objective.at_vertex(x).all()
            assert np.min(objective.value_and_grad(x)[0]) >= objective.vertex_value - 1e-11

    def test_point_on_the_cap_reports_its_vertex(self, monkeypatch):
        # 1e-11 of the weight off e_2 spreads into eigenvalues the spectrum
        # clip drops, so the computed value is 2.3e-12 below V(a).
        objective = _SpanObjective(ResidueFamily.from_a(0.45))
        x = np.full((1, MODULUS), np.sqrt(1e-11 / 6))
        x[0, 2] = -np.sqrt(1.0 - 1e-11)
        # The solve receives that point, off the unit sphere, as its one L-BFGS end.
        end = 3.0 * x
        assert objective.value_and_grad(x)[0][0] < objective.vertex_value
        assert objective.value_and_grad(end)[0][0] < objective.vertex_value
        monkeypatch.setattr(
            "qshare.optimize._lbfgs",
            lambda objective, x0: (end, objective.value_and_grad(end)[0], np.zeros(1, int), np.ones(1, bool)),
        )
        result = min_span_entanglement(0.45, OptimizationConfig(restarts=1, seed=0))
        assert result.value == result.restart_values[0] == objective.vertex_value
        assert np.array_equal(result.argmin, np.eye(MODULUS)[2])
        assert not result.nontrivial_minimizer

    @pytest.mark.parametrize("a", [0.461, 0.5, 0.53])
    def test_retirement_moves_only_vertex_values(self, monkeypatch, a):
        # Against runs that never retire, a restart below V(a) keeps its value
        # to the bit and every other one reports V(a) exactly.
        vertex = vertex_value(a)
        for seed in range(4):
            config = OptimizationConfig(restarts=40, seed=seed)
            retired = min_span_entanglement(a, config)
            with monkeypatch.context() as patch:
                patch.setattr(_SpanObjective, "at_vertex", never_at_vertex)
                full = min_span_entanglement(a, config)
            below = full.restart_values < vertex - 1e-9
            assert np.array_equal(retired.restart_values[below], full.restart_values[below])
            assert np.all(retired.restart_values[~below] == vertex)
            assert retired.failed_restarts == full.failed_restarts

    def test_retirement_cuts_the_lockstep_tail(self, monkeypatch):
        evaluate = _SpanObjective.value_and_grad
        rounds = []

        def counted(self, x):
            rounds[-1] += 1
            return evaluate(self, x)

        monkeypatch.setattr(_SpanObjective, "value_and_grad", counted)
        for at_vertex in (_SpanObjective.at_vertex, never_at_vertex):
            monkeypatch.setattr(_SpanObjective, "at_vertex", at_vertex)
            rounds.append(0)
            for seed in range(4):
                min_span_entanglement(0.5, OptimizationConfig(restarts=40, seed=seed))
        assert rounds[0] <= 0.75 * rounds[1]


class TestPairEof:
    def test_endpoints(self):
        assert pair_eof(1.0, FAST) == pytest.approx(0.0, abs=1e-9)
        assert pair_eof(0.0, FAST) >= 0.0

    def test_matches_min_span_value(self):
        assert pair_eof(0.5, FAST) == min_span_entanglement(0.5, FAST).value

    def test_certificate_builds_no_symmetry_operator(self, monkeypatch):
        # The orbit is built from span coefficients and OMEGA, never from the
        # 49x49 operators.
        def forbidden():
            raise AssertionError("the certificate built the 49x49 symmetry operators")

        monkeypatch.setattr("qshare.states.symmetry_operators", forbidden)
        result = min_span_entanglement(0.5, FAST)
        reconstruction, average_gap = qshare.optimize.orbit_certificate(result, 0.5)
        assert reconstruction < 1e-10 and average_gap <= 1e-12

    def test_rejects_an_average_gap_above_1e_12(self):
        # The value is the entanglement at the polished argmin, which every orbit element shares to round-off.
        result = min_span_entanglement(0.461, FAST)
        qshare.optimize.orbit_certificate(dataclasses.replace(result, value=result.value + 5e-13), 0.461)
        with pytest.raises(RuntimeError, match="average gap"):
            qshare.optimize.orbit_certificate(dataclasses.replace(result, value=result.value + 2e-12), 0.461)

    def test_rejects_wrong_reconstruction_alone(self, monkeypatch):
        result = min_span_entanglement(0.5, FAST)
        dec = rotated_orbit(result.argmin, ResidueFamily.from_a(0.5))
        assert average_entanglement(dec, PAIR_DIMS, PAIR_CUT) == pytest.approx(result.value, abs=1e-10)
        monkeypatch.setattr("qshare.optimize.orbit_decomposition", rotated_orbit)
        with pytest.raises(RuntimeError, match="orbit certificate"):
            pair_eof(0.5, FAST)


class TestAverageEntanglement:
    def test_uniform_orbit_average(self):
        family = ResidueFamily.from_a(0.461)
        coeffs = basis_coeffs(0)
        dec = orbit_decomposition(coeffs, family)
        seed_value = span_entanglement(coeffs, 0.461)
        assert average_entanglement(dec, PAIR_DIMS, PAIR_CUT) == pytest.approx(seed_value, abs=1e-10)
        assert average_entanglement(dec, PAIR_DIMS, PAIR_CUT) == pytest.approx(1.9944, abs=5e-4)

    def test_aligned_product_decomposition(self):
        family = ResidueFamily.from_a(1.0)
        dec = orbit_decomposition(basis_coeffs(0), family)
        assert average_entanglement(dec, PAIR_DIMS, PAIR_CUT) == pytest.approx(0.0, abs=1e-12)


class TestMaximizePairEof:
    @pytest.mark.parametrize("seed", SCAN_SEEDS)
    def test_trace_contains_best(self, seed):
        # Both crossings are solved; the upper one peaks at a = 0.539 with
        # E = 1.99384 and loses.
        scan = fast_scan(seed)
        values = [v for _, v in scan.scan_trace]
        assert scan.e_star >= max(values)
        assert scan.e_star == vertex_value(scan.a_star)
        assert abs(scan.a_star - 0.461) <= 0.005
        assert abs(scan.e_star - 1.9944) <= 5e-4

    def test_crossing_does_not_depend_on_the_seed(self):
        # The trace starts from the stored _MIXED_SEED, not from a seeded
        # multistart solve, so the seed reaches only the certificate.
        peaks = {(fast_scan(seed).a_star, fast_scan(seed).e_star) for seed in SCAN_SEEDS}
        assert len(peaks) == 1

    def test_stored_seed_corrects_onto_the_global_mixed_minimum(self):
        # Newton from _MIXED_SEED at a = 1/2 converges below V(1/2), onto the
        # value a 200-restart multistart solve finds there: the stored
        # direction lies in the basin of the global mixed minimum.
        x, gap, converged = _continue_mixed_branch(_MIXED_SEED, 0.5)
        assert converged and gap < 0.0
        assert np.max(x**2) <= _VERTEX_WEIGHT
        for seed in (0, 1, 2):
            result = min_span_entanglement(0.5, OptimizationConfig(restarts=200, seed=seed))
            assert abs(result.value - (vertex_value(0.5) + gap)) <= 1e-10, seed

    def test_scan_certifies_the_crossing(self, monkeypatch):
        solved = []

        def counted(a, config):
            solved.append(a)
            return min_span_entanglement(a, config)

        monkeypatch.setattr("qshare.optimize.min_span_entanglement", counted)
        scans = [maximize_pair_eof(OptimizationConfig(restarts=40, seed=seed)) for seed in (0, 11)]
        # One multistart solve per scan, the certificate at a_star; the trace
        # starts from the corrector's seed at a = 1/2.
        assert solved == [scans[0].a_star, scans[1].a_star]
        for scan in scans:
            assert scan.scan_trace[0][0] == 0.5
            a, value = scan.scan_trace[-1]
            assert a == scan.a_star
            assert 0.0 <= scan.e_star - value <= 1e-10 * scan.e_star
            assert abs(scan.a_star - 0.46099840856814) <= 1e-13
            assert abs(scan.e_star - 1.9943982236727) <= 1e-12

    def test_both_crossings_are_solved_and_the_larger_wins(self, monkeypatch):
        # The seed is corrected at a = 1/2; each side then steps from it by
        # secant steps on g = M - V, clipped to _TRACE_STEP, until a step is
        # at most _CROSSING_TOLERANCE.  The lower root (a = 0.46100) has the
        # larger V; the upper one (a = 0.53914, 5.5e-4 lower) loses.
        calls = []

        def recorded(x, a):
            x, gap, converged = _continue_mixed_branch(x, a)
            calls.append((a, gap))
            return x, gap, converged

        monkeypatch.setattr("qshare.optimize._continue_mixed_branch", recorded)
        scan = maximize_pair_eof(OptimizationConfig(restarts=40, seed=11))
        seed, *calls = calls
        assert seed[0] == 0.5 and seed[1] < 0.0
        assert len(calls) == 14
        roots = []
        for upper in (False, True):
            side = [seed] + [call for call in calls if (call[0] > 0.5) == upper]
            steps = np.abs(np.diff([a for a, _ in side]))
            assert steps[0] == pytest.approx(_TRACE_STEP, abs=1e-15)
            assert np.all(steps <= _TRACE_STEP + 1e-15)
            # Two full steps, then 5 secant steps that fall short of the clip.
            assert np.count_nonzero(steps < _TRACE_STEP - 1e-12) == 5
            (a_prev, g_prev), (a, gap) = side[-2:]
            last_step = abs((a - a_prev) * gap / (g_prev - gap))
            assert last_step <= _CROSSING_TOLERANCE
            roots.append(a)
        assert calls == sorted(calls, key=lambda call: call[0] > 0.5)
        lower, upper = roots
        assert lower == pytest.approx(0.46099840856814, abs=1e-13)
        assert upper == pytest.approx(0.53914335724461, abs=1e-13)
        assert vertex_value(lower) > vertex_value(upper)
        assert scan.a_star == lower
        assert scan.e_star == vertex_value(lower)
        # Both crossings settled, so neither failed its last corrector solve.
        assert scan.failed_restarts == 0

    def test_trace_cost_is_pinned(self, monkeypatch):
        # A 40-restart scan at seed 0 makes 15 corrector solves (the seed at
        # a = 1/2 in 6 Newton iterations, then per side two full steps and
        # five secant steps in 47) plus one tangent Hessian at a_star; each
        # Hessian takes one eigh.
        counts = dict(solves=0, hessians=0, eigh=0)

        def counted(name, function):
            def wrapper(*args):
                counts[name] += 1
                return function(*args)

            return wrapper

        def hessian(objective, x):
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
                return counted("hessians", _tangent_hessian)(objective, x)

        monkeypatch.setattr("qshare.optimize._continue_mixed_branch", counted("solves", _continue_mixed_branch))
        monkeypatch.setattr("qshare.optimize._tangent_hessian", hessian)
        scan = maximize_pair_eof(OptimizationConfig(restarts=40, seed=0))
        assert counts == dict(solves=15, hessians=54, eigh=54)
        assert scan.restarts == 40 + 15

    def test_upper_crossing_wins_on_a_synthetic_branch(self, monkeypatch):
        # A synthetic mixed branch with g = 10 (a - 0.4587)(a - 0.5391): its
        # upper crossing has the larger V, 1.2e-4 above the lower one's.
        lower, upper = 0.4587, 0.5391
        assert vertex_value(lower) < vertex_value(upper) - 1e-4

        def gap(a):
            return 10.0 * (a - lower) * (a - upper)

        steps = []

        def synthetic(x, a):
            steps.append(a)
            return x, gap(a), True

        def certified(a, config):
            # The certificate solve at a_star ends on a basis vertex, at V(a_star).
            result = min_span_entanglement(a, config)
            return dataclasses.replace(result, value=vertex_value(a), argmin=np.eye(7)[0])

        monkeypatch.setattr("qshare.optimize._continue_mixed_branch", synthetic)
        monkeypatch.setattr("qshare.optimize.min_span_entanglement", certified)
        scan = maximize_pair_eof(FAST)
        assert scan.a_star == pytest.approx(upper, abs=1e-13)
        assert scan.e_star == vertex_value(scan.a_star)
        # The upper side's last secant step, recorded, settled the crossing.
        (a_prev, a_last) = [a for a in steps if a > 0.5][-2:]
        last_step = abs((a_last - a_prev) * gap(a_last) / (gap(a_prev) - gap(a_last)))
        assert last_step <= _CROSSING_TOLERANCE

    def test_continued_envelope_matches_multistart(self):
        # Where V(a) > E*, min(V, M) on the continued branch matches the
        # multistart argmin polished by the same corrector: the multistart
        # solve stops at its 1e-10 value tolerance, the corrector at its step
        # tolerance.
        scan = fast_scan(0)
        vertex = [vertex_value(a) for a, _ in scan.scan_trace[1:-1]]
        window = [t for t, v in zip(scan.scan_trace[1:-1], vertex) if v > scan.e_star]
        # The full steps to 0.48 and 0.52 (0.46 lies below a_star, 0.54 past
        # the upper root); the secant steps below 0.4625 stay above a_star.
        assert sorted(round(a, 3) for a, _ in window if a > 0.4625) == [0.48, 0.52]
        assert all(a > scan.a_star for a, _ in window)
        # At a_star itself a basis vertex ties the branch (see the root test
        # below).  Within _WITNESS_TIE of V(a) the multistart witness is the
        # lowest-index tied restart, which may be that vertex: here one secant
        # step, 4e-13 above a_star and 1.4e-13 below V.
        tied = [(a, value) for a, value in window if vertex_value(a) - value <= _WITNESS_TIE]
        assert len(tied) == 1 and abs(tied[0][0] - scan.a_star) <= 1e-12
        window = [t for t in window if t not in tied]
        assert len(window) == 4
        for a, value in window:
            _, polished, converged = _continue_mixed_branch(min_span_entanglement(a, FAST).argmin, a)
            assert converged
            assert abs(value - (vertex_value(a) + min(polished, 0.0))) <= 1e-13

    def test_mixed_branch_stays_off_the_spectrum_clip(self, monkeypatch):
        # value_and_grad drops the log of squared Schmidt coefficients at or
        # below SPECTRUM_CLIP; on the traced mixed branch, secant steps onto
        # the crossings included, the smallest stays far above it, so the
        # mask never acts.
        continued = []

        def recorded(x, a):
            x, gap, converged = _continue_mixed_branch(x, a)
            continued.append((a, x))
            return x, gap, converged

        monkeypatch.setattr("qshare.optimize._continue_mixed_branch", recorded)
        maximize_pair_eof(FAST)
        assert len(continued) == 15 and continued[0][0] == 0.5
        states = [ResidueFamily.from_a(a).span_state(c) for a, c in continued]
        assert min(schmidt_spectrum(s, PAIR_DIMS, PAIR_CUT)[-1] for s in states) >= 1e6 * SPECTRUM_CLIP

    def test_side_test_is_the_sign_of_the_gap(self):
        # Near the crossing the corrected branch lies below V(a) above a* and
        # above V(a) below it, off every basis vertex, and g is linear there
        # to second order in a - a*: its values at a* +- 1e-6 cancel.
        start = min_span_entanglement(0.475, OptimizationConfig(restarts=40, seed=0)).argmin
        a_star = fast_scan(0).a_star
        gaps = []
        for a, side in ((a_star + 1e-6, -1.0), (a_star - 1e-6, 1.0)):
            x, gap, converged = _continue_mixed_branch(start, a)
            assert converged and np.sign(gap) == side
            assert np.max(x**2) <= _VERTEX_WEIGHT
            gaps.append(gap)
        assert abs(sum(gaps)) / 2.0 <= 1e-11

    def test_crossing_is_a_root_and_a_strict_minimum(self, monkeypatch):
        # At a* the corrected mixed-branch value equals V(a*) to round-off,
        # by the objective and independently by the Schmidt spectrum of the
        # span state.
        points = {}

        def recorded(x, a):
            x, gap, converged = _continue_mixed_branch(x, a)
            points[a] = x, gap
            return x, gap, converged

        monkeypatch.setattr("qshare.optimize._continue_mixed_branch", recorded)
        scan = maximize_pair_eof(OptimizationConfig(restarts=40, seed=0))
        x, gap = points[scan.a_star]
        assert abs(gap) <= 1e-14
        assert abs(span_entanglement(x, scan.a_star) - scan.e_star) <= 1e-14
        assert np.max(x**2) <= _VERTEX_WEIGHT

    @pytest.mark.parametrize("seed", (0, 11))
    def test_reports_the_crossing_error_and_curvature(self, seed):
        # The crossing settles (a last secant step of at most 1e-13) exactly
        # when its last corrector solve counts as converged.
        # Measured: hessian_min 0.261 at the lower root (0.204 at the upper).
        scan = maximize_pair_eof(OptimizationConfig(restarts=40, seed=seed))
        assert scan.failed_restarts == 0
        assert scan.hessian_min >= 0.1

    def test_unsettled_crossing_is_counted_not_raised(self, monkeypatch):
        # With no step small enough to stop on, each crossing runs on until g
        # repeats exactly or its solve cap is reached, and fails its last
        # corrector solve.
        reference = fast_scan(0)
        monkeypatch.setattr("qshare.optimize._CROSSING_TOLERANCE", -1.0)
        scan = maximize_pair_eof(FAST)
        assert scan.failed_restarts == reference.failed_restarts + 2
        assert scan.a_star == pytest.approx(reference.a_star, abs=1e-13)

    def test_repeated_gap_is_counted_not_raised(self, monkeypatch):
        # A g that repeats exactly leaves the secant step without a
        # denominator: that crossing ends there, 4e-11 from its root, as one
        # failed solve.
        reference = fast_scan(0)
        gaps = []

        def repeated(x, a):
            x, gap, converged = _continue_mixed_branch(x, a)
            gaps.append(gaps[-1] if abs(gap) < 1e-9 else gap)
            return x, gaps[-1], converged

        monkeypatch.setattr("qshare.optimize._continue_mixed_branch", repeated)
        scan = maximize_pair_eof(FAST)
        assert scan.failed_restarts == reference.failed_restarts + 2
        assert scan.a_star == pytest.approx(reference.a_star, abs=1e-10)

    def test_crossing_stops_at_the_end_of_the_interval(self, request):
        # Neither side finds a root: each steps down to a = 0, where the
        # clipped step repeats g, and fails its last solve there.
        reference = fast_scan(0)
        weights = request.getfixturevalue("gapless_branch")
        scan = maximize_pair_eof(FAST)
        assert 0.0 <= min(weights) and max(weights) <= 1.0
        assert weights[-2:] == [0.0, 0.0]
        assert scan.failed_restarts == reference.failed_restarts + 2
        assert scan.a_star == 0.0 and scan.e_star == vertex_value(0.0)

    def test_singular_hessian_is_counted_not_raised(self, monkeypatch):
        # The first side solve, the one after the seed, meets a singular
        # Newton system at its first iteration.
        calls = []

        def singular(matrix, rhs):
            raise np.linalg.LinAlgError("Singular matrix")

        def singular_first_side(x, a):
            calls.append(a)
            with monkeypatch.context() as patch:
                if len(calls) == 2:
                    patch.setattr(np.linalg, "solve", singular)
                return _continue_mixed_branch(x, a)

        reference = fast_scan(0)
        monkeypatch.setattr("qshare.optimize._continue_mixed_branch", singular_first_side)
        scan = maximize_pair_eof(FAST)
        assert scan.failed_restarts == reference.failed_restarts + 1
        assert scan.restarts == reference.restarts
        assert scan.a_star == pytest.approx(reference.a_star, abs=1e-13)

    @pytest.mark.parametrize("gap, converged", [(-0.0067, False), (0.0, True), (0.01, True)])
    def test_rejects_a_seed_off_the_mixed_branch(self, monkeypatch, gap, converged):
        # A corrector solve at a = 1/2 that does not converge, or that ends at
        # or above V(1/2), gives no mixed branch to trace.
        def failed_seed(x, a):
            assert a == 0.5, "traced from a failed seed"
            return x, gap, converged

        monkeypatch.setattr("qshare.optimize._continue_mixed_branch", failed_seed)
        with pytest.raises(RuntimeError, match="no mixed-branch point at a=0.5"):
            maximize_pair_eof(FAST)

    def test_rejects_a_traced_value_above_the_peak(self, monkeypatch):
        # The same roots, but a branch that lies far closer below V.
        def raised(x, a):
            x, gap, converged = _continue_mixed_branch(x, a)
            return x, 1e-2 * gap, converged

        monkeypatch.setattr("qshare.optimize._continue_mixed_branch", raised)
        with pytest.raises(RuntimeError, match="exceeds V"):
            maximize_pair_eof(FAST)

    def test_certifies_the_crossing(self, lowered_peak_solve):
        with pytest.raises(RuntimeError, match="crossing certificate"):
            maximize_pair_eof(FAST)

    def test_certifies_the_peak(self, monkeypatch):
        monkeypatch.setattr("qshare.optimize.orbit_decomposition", uniform_orbit)
        with pytest.raises(RuntimeError, match="orbit certificate"):
            maximize_pair_eof(FAST)
