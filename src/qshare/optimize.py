"""Numerical core for the three-particle family.

Minimizes the pair entanglement over unit-norm coefficient vectors on the
span of the seven pair states at fixed aligned weight a, and maximizes that
minimum over a.  The span minimum equals the pair marginal's entanglement of
formation: it lower-bounds every decomposition, and the symmetry orbit of the
minimizer realizes a decomposition that attains it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .linalg import SPECTRUM_CLIP, check_integer
from .measures import Decomposition, pure_entanglement
from .states import MODULUS, ResidueFamily, gauge_fix, orbit_decomposition

__all__ = [
    "PAIR_DIMS", "PAIR_CUT", "OptimizationConfig", "OptimizationResult", "ScanResult", "span_entanglement",
    "min_span_entanglement", "min_span_entanglements", "average_entanglement", "orbit_certificate", "pair_eof",
    "maximize_pair_eof",
]

PAIR_DIMS = (MODULUS, MODULUS)
PAIR_CUT = (0,)

# A point whose largest squared coefficient share exceeds this has reached a
# basis vertex; one at or below it is off-vertex.
_VERTEX_WEIGHT = 0.99
# Restarts within this of the best value tie: the lowest-index one is the
# witness, so the report does not follow the last bit of the arithmetic.
_WITNESS_TIE = 1e-11

# L-BFGS: curvature pairs kept per restart, the sufficient-decrease
# constant of the backtracking line search, and the stopping rule of _lbfgs.
_MEMORY = 10
_ARMIJO = 1e-4
_MAX_ITERATIONS = 5000
_VALUE_TOLERANCE = 1e-10
_STEP_TOLERANCE = 1e-12

# Start of the scan's trace: the seed-0, 200-restart witness at a = 1/2 rounded to one
# decimal, (5, 3, -2, -2, 3, -1, -7) / sqrt(101).  Newton corrects it onto the mixed branch
# at a = 1/2 in 6 iterations.
_MIXED_SEED = np.array([5.0, 3.0, -2.0, -2.0, 3.0, -1.0, -7.0]) / np.sqrt(101.0)
# Largest step in a of the secant search for each crossing: from the a = 1/2 seed, Newton
# converges onto the mixed branch at every a in [0.425, 0.55], in at most 8 iterations.
_TRACE_STEP = 0.02
# Newton corrector iteration cap and crossing tolerance in a.
_NEWTON_ITERATIONS = 10
_CROSSING_TOLERANCE = 1e-13
# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) advances its state by this odd constant, 2**64 / golden ratio.
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class OptimizationConfig:
    """Multistart settings.

    Restart i starts from a random real unit 7-vector made from SplitMix64
    outputs of its own, which no numpy release changes (:func:`_starts`): it
    depends on neither ``restarts`` nor the other restarts, and no two seeds
    share a start.  Each restart stops by :func:`_lbfgs`'s fixed rule.
    """

    restarts: int = 200
    seed: int = 0

    def __post_init__(self):
        check_integer(self.restarts, "restarts", 1)
        check_integer(self.seed, "seed", 0)


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Best local minimum found over all restarts.

    ``restart_values`` are the values at the L-BFGS ends, +inf for a restart
    that started non-finite.  None exceeds the closed-form value V(a) of a
    basis vertex: a restart that ends above it, or whose largest squared
    coefficient exceeds 0.99 (it has reached a vertex), reports exactly V(a).
    The witness is the lowest-index restart within ``_WITNESS_TIE`` (1e-11) of
    the smallest entry: ``restart_index``, and its own ``iterations_used``,
    ``argmin`` and ``value``.  ``argmin`` is a real unit 7-vector gauged by
    :func:`gauge_fix`, the nearest vertex of a witness that reports V(a).  Off
    a vertex, when :func:`_newton` converges from the normalized end, it is the
    polished point and ``value`` the entanglement there, else that end and its
    entry of ``restart_values``.
    Restarts that did not converge are listed in ``failed_restarts`` but
    still contribute their best point.
    ``nontrivial_minimizer`` records whether any usable restart ended away
    from a basis vertex; such a restart ends at or below the vertex value.
    """

    value: float
    argmin: np.ndarray
    restart_index: int
    iterations_used: int
    restart_values: np.ndarray
    failed_restarts: tuple[int, ...]
    nontrivial_minimizer: bool


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Outcome of the outer maximization over the aligned weight a.

    ``scan_trace`` lists (a, value) for every corrected point of the mixed
    branch as (a, min(V(a), M(a))): the seed at a = 1/2, then the lower side,
    then the upper; last comes the multistart solve at ``a_star`` that
    certifies the peak.  ``e_star`` is the vertex value V(a_star), at least
    every traced value.  ``restarts`` counts the restarts of that one
    multistart solve and each Newton corrector solve, the seed's included,
    ``failed_restarts`` those that did not converge, and ``hessian_min`` the
    smallest tangent Hessian eigenvalue of the mixed minimizer at ``a_star``:
    positive at a strict local minimum.
    """

    a_star: float
    e_star: float
    scan_trace: tuple[tuple[float, float], ...]
    restarts: int
    failed_restarts: int
    hessian_min: float


class _SpanObjective:
    """Pair entanglement as a function of the 7 real span coefficients, at an aligned weight per row.

    Every pair state is real, so conj(c) gives the conjugate marginal with
    the same spectrum, and at a real point no imaginary direction has a
    gradient: the search keeps to the real span.  The value is scale-invariant,
    so the unit norm never needs explicit projection.  Batch rows from
    ``starts[k - 1]`` on are at ``families[k]``; with no ``starts`` every row
    is at the one family.
    """

    def __init__(self, *families: ResidueFamily, starts=()):
        # Pair state j of each family reshaped to the real 7x7 amplitude matrix across the cut.
        self.basis_mats = np.stack([family.pair_basis().reshape(MODULUS, MODULUS, MODULUS) for family in families])
        self.vertex_value = np.array([family.pair_state_entanglement for family in families])
        self.starts = tuple(map(int, starts))

    def at_vertex(self, x):
        """Whether each row of ``x`` (R, 7) has reached a basis vertex: max x_i^2 > ``_VERTEX_WEIGHT`` |x|^2."""
        return np.max(x * x, axis=1) > _VERTEX_WEIGHT * np.einsum("ri,ri->r", x, x)

    def value_and_grad(self, x, rows=None):
        """Values (R,) and gradients (R, 7) at the rows of ``x`` (R, 7), batch rows ``rows`` (ascending; default
        0 ... R - 1); no row's result depends on the others."""
        return self._evaluate(x, rows)[3:]

    def _evaluate(self, x, rows=None):
        """Per row: the unit-trace marginal's eigenpairs (w clipped at 0, p), amplitudes m, value and gradient."""
        n2 = np.einsum("ri,ri->r", x, x)
        # Scale-free objective; a zero row (unreachable in practice from unit
        # starts) gets a value above every feasible one, a non-finite row NaN.
        zero = n2 < 1e-18
        finite = np.isfinite(n2)
        usable = finite & ~zero
        x = np.where(usable[:, None], x, 0.0)
        n2 = np.where(usable, n2, 1.0)
        # Each weight's rows lo:hi of x, as ``rows`` ascend (bisect: a first searchsorted maps 68 KB of numpy code).
        edges = [0, *(bisect.bisect_left(range(len(x)) if rows is None else rows, s) for s in self.starts), len(x)]
        groups = [(basis, slice(lo, hi)) for basis, lo, hi in zip(self.basis_mats, edges, edges[1:])]
        m = np.empty((len(x), MODULUS, MODULUS))
        for basis, group in groups:
            np.einsum("rj,jab->rab", x[group], basis, out=m[group])
        w, p = np.linalg.eigh((m @ m.transpose(0, 2, 1)) / n2[:, None, None])
        w = np.clip(w, 0.0, None)
        # The value and dE = -Tr(log2(rho) drho) share one clipped log, 0 log 0 := 0.
        log_w = np.log2(np.where(w > SPECTRUM_CLIP, w, 1.0))
        f = -np.sum(w * log_w, axis=-1) + 0.0  # + 0.0 turns -0.0 into 0.0
        lm = (p * log_w[:, None, :]) @ p.transpose(0, 2, 1) @ m
        g = np.empty_like(x)
        for basis, group in groups:
            np.einsum("jab,rab->rj", basis, lm[group], out=g[group])
        grad = -(2.0 / n2[:, None]) * (g + f[:, None] * x)
        f[zero] = 3.0
        f[~finite] = np.nan
        grad[~usable] = 0.0
        return w, p, m, f, grad


def _direction(g, s_hist, y_hist, rho_hist):
    """L-BFGS search direction -H g per row, newest curvature pair last.

    Slots without a pair hold zeros and drop out of the recursion.  A row
    with no pair gets the steepest descent scaled to unit length (zero where
    the gradient vanishes).
    """
    # Only the newest slots hold a pair in any row; older ones add exact zeros.
    oldest = _MEMORY - int(np.count_nonzero(rho_hist.any(axis=0)))
    q = g.copy()
    alpha = np.zeros(rho_hist.shape)
    for j in range(_MEMORY - 1, oldest - 1, -1):
        alpha[:, j] = rho_hist[:, j] * np.einsum("ri,ri->r", s_hist[:, j], q)
        q -= alpha[:, j, None] * y_hist[:, j]
    newest_yy = np.einsum("ri,ri->r", y_hist[:, -1], y_hist[:, -1]) * rho_hist[:, -1]
    g_norm = np.sqrt(np.einsum("ri,ri->r", g, g))
    gamma = np.zeros(len(g))
    np.divide(1.0, newest_yy, out=gamma, where=newest_yy > 0.0)
    np.divide(1.0, g_norm, out=gamma, where=(newest_yy == 0.0) & (g_norm > 0.0))
    r = gamma[:, None] * q
    for j in range(oldest, _MEMORY):
        beta = rho_hist[:, j] * np.einsum("ri,ri->r", y_hist[:, j], r)
        r += s_hist[:, j] * (alpha[:, j] - beta)[:, None]
    return -r


def _lbfgs(objective: _SpanObjective, x0):
    """Minimize from every row of ``x0`` in lockstep.

    Each row runs its own L-BFGS with its own curvature pairs, backtracking
    step and stopping decision; one batched evaluation per round serves every
    row still running.  A row converges when an accepted step lowers the
    value by at most ``_VALUE_TOLERANCE`` (relative to max(|f|, 1)), when its
    step is at most ``_STEP_TOLERANCE`` times the length of its point, or when
    its direction does not descend or its line search finds no step longer
    than that which lowers the value.  It also converges when an accepted
    point passes ``objective.at_vertex``: a basis vertex, whose value is
    known in closed form.  It fails when it reaches ``_MAX_ITERATIONS``
    accepted steps first.  Returns the final points, the value at each (NaN
    for a row whose start was not finite), the accepted steps per row and
    which rows converged.
    """
    x = np.array(x0, dtype=float)
    count, dim = x.shape
    f, g = objective.value_and_grad(x)
    s_hist = np.zeros((count, _MEMORY, dim))
    y_hist = np.zeros((count, _MEMORY, dim))
    rho_hist = np.zeros((count, _MEMORY))
    d = np.zeros_like(x)
    step = np.ones(count)
    slope = np.zeros(count)
    iterations = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    running = np.isfinite(f)

    def stop(rows):
        converged[rows] = True
        running[rows] = False

    def search(rows):
        # A new line search from the current point along the L-BFGS direction.
        # A row whose gradient is zero to round-off (a step as long as the
        # point itself would change f by at most `dim` rounding errors of f)
        # is stationary and converges where it stands.
        change = np.linalg.norm(g[rows], axis=1) * np.linalg.norm(x[rows], axis=1)
        stationary = change <= dim * np.finfo(float).eps * np.maximum(np.abs(f[rows]), 1.0)
        stop(rows[stationary])
        rows = rows[~stationary]
        d[rows] = _direction(g[rows], s_hist[rows], y_hist[rows], rho_hist[rows])
        slope[rows] = np.einsum("ri,ri->r", g[rows], d[rows])
        step[rows] = 1.0
        stop(rows[~(slope[rows] < 0.0)])

    search(np.flatnonzero(running))
    while running.any():
        rows = np.flatnonzero(running)
        trial = x[rows] + step[rows, None] * d[rows]
        f_trial, g_trial = objective.value_and_grad(trial, rows)
        accept = f_trial <= f[rows] + _ARMIJO * step[rows] * slope[rows]

        moved = rows[accept]
        s_new = trial[accept] - x[moved]
        y_new = g_trial[accept] - g[moved]
        f_old = f[moved]
        x[moved], f[moved], g[moved] = trial[accept], f_trial[accept], g_trial[accept]
        iterations[moved] += 1
        sy = np.einsum("ri,ri->r", s_new, y_new)
        curved = sy > np.finfo(float).eps * np.einsum("ri,ri->r", y_new, y_new)
        kept = moved[curved]
        s_hist[kept] = np.concatenate([s_hist[kept, 1:], s_new[curved, None]], axis=1)
        y_hist[kept] = np.concatenate([y_hist[kept, 1:], y_new[curved, None]], axis=1)
        rho_hist[kept] = np.concatenate([rho_hist[kept, 1:], 1.0 / sy[curved, None]], axis=1)
        scale = np.maximum(np.maximum(np.abs(f_old), np.abs(f[moved])), 1.0)
        flat = f_old - f[moved] <= _VALUE_TOLERANCE * scale
        small = np.linalg.norm(s_new, axis=1) <= _STEP_TOLERANCE * np.linalg.norm(x[moved], axis=1)
        stop(moved[flat | small | objective.at_vertex(x[moved])])
        running[moved[iterations[moved] >= _MAX_ITERATIONS]] = False
        search(moved[running[moved]])

        # Backtrack by safeguarded quadratic interpolation until the step
        # falls to the step tolerance.
        held = rows[~accept]
        t = step[held]
        rise = f_trial[~accept] - f[held] - slope[held] * t
        fit = np.isfinite(rise) & (rise > 0.0)
        step[held] = 0.5 * t
        step[held[fit]] = np.clip(-slope[held[fit]] * t[fit] ** 2 / (2.0 * rise[fit]), 0.1 * t[fit], 0.5 * t[fit])
        length = step[held] * np.linalg.norm(d[held], axis=1)
        stop(held[length <= _STEP_TOLERANCE * np.linalg.norm(x[held], axis=1)])
    return x, f, iterations, converged


def _mix(z):
    """SplitMix64's output function on each entry of the uint64 array ``z``, wrapping mod 2**64."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def _starts(config: OptimizationConfig):
    """Unit starting points (restarts, 7): row i is the first 7 of 8 normals from SplitMix64 outputs 8i ... 8i + 7."""
    x0 = RandomStream(config.seed).standard_normal((config.restarts, MODULUS))
    return x0 / np.linalg.norm(x0, axis=1, keepdims=True)


class RandomStream:
    """SplitMix64 keyed by ``seed``, with the ``numpy.random.Generator`` draws the checks make.

    The key mixes in every 64-bit word of the seed, lowest first.  Each draw takes the stream's next outputs, and
    output z gives the uniform ((z >> 11) + 0.5) / 2**53 in (0, 1].  It is the restarts' generator
    (:func:`_starts`), and with it ``verify`` never loads numpy.random.
    """

    def __init__(self, seed):
        seed, self._key, self._used = int(seed), np.zeros(1, dtype=np.uint64), 0
        for shift in range(0, max(seed.bit_length(), 1), 64):
            self._key = _mix(self._key ^ ((seed >> shift) & 0xFFFFFFFFFFFFFFFF))

    def random(self, size=None):
        """Uniforms: a float, or an array of shape ``size``."""
        shape = () if size is None else tuple(np.atleast_1d(size))
        start, self._used = self._used, self._used + math.prod(shape)
        z = _mix(self._key + np.arange(start + 1, self._used + 1, dtype=np.uint64) * _GOLDEN_GAMMA)
        u = (((z >> 11) + 0.5) / 2.0**53).reshape(shape)
        return float(u) if size is None else u

    def uniform(self, low=0.0, high=1.0, size=None):
        return low + (high - low) * self.random(size)

    def integers(self, low, high) -> int:
        """An integer in [low, high)."""
        return low + math.ceil(self.random() * (high - low)) - 1

    def standard_normal(self, size):
        """Normals of shape ``size`` by Box-Muller: n along the last axis take the next 2 ceil(n / 2) uniforms,
        the first half radii and the second half angles, cosines before sines."""
        *rows, n = np.atleast_1d(size)
        u = self.random((*rows, 2, (n + 1) // 2))
        radius, angle = np.sqrt(-2.0 * np.log(u[..., 0, :])), 2.0 * np.pi * u[..., 1, :]
        return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)[..., :n]


def span_entanglement(coeffs, a):
    """Pair-cut entanglement of the span state with the given coefficients: a float, or one value per row of a stack."""
    return pure_entanglement(ResidueFamily.from_a(a).span_state(coeffs), PAIR_DIMS, PAIR_CUT)


def min_span_entanglement(a, config: OptimizationConfig | None = None) -> OptimizationResult:
    """Smallest span-state entanglement at aligned weight ``a``: :func:`min_span_entanglements` of one pair."""
    return min_span_entanglements([(a, config or OptimizationConfig())])[0]


def min_span_entanglements(problems) -> list[OptimizationResult]:
    """Smallest span-state entanglement for each (a, config) pair of ``problems``, from one L-BFGS batch.

    Each pair runs ``config.restarts`` local minimizations from seeded random
    starting points, and keeps the best local minimum (the lowest-index restart
    within ``_WITNESS_TIE`` of it).  Every restart of every pair advances in one
    lockstep batch, but a restart's outcome depends only on its own start and
    weight: each result equals the pair solved alone, identical (a, seed)
    inputs reproduce identical restart values, and the first k restarts of a
    larger run equal a run of k restarts.  Every pair is validated before any
    solve runs.
    """
    if not (problems := list(problems)) or not all(isinstance(config, OptimizationConfig) for _, config in problems):
        raise ValueError(f"need one or more (a, OptimizationConfig) pairs, got {problems!r}")
    families = [ResidueFamily.from_a(a) for a, _ in problems]
    edges = np.cumsum([0] + [config.restarts for _, config in problems])
    objective = _SpanObjective(*families, starts=edges[1:-1])
    ends = _lbfgs(objective, np.concatenate([_starts(config) for _, config in problems]))
    return [
        _best(objective, family, vertex, *(end[lo:hi] for end in ends))
        for family, vertex, lo, hi in zip(families, objective.vertex_value, edges, edges[1:])
    ]


def _best(objective, family, vertex_value, x, restart_values, iterations, converged) -> OptimizationResult:
    """One solve's result from its rows of the batch's L-BFGS ends: snapped values, witness and polished argmin."""
    usable = np.isfinite(restart_values)
    if not usable.any():
        raise RuntimeError(f"all {len(x)} restarts failed at a={family.a}")
    # Every basis vertex is feasible at the closed-form vertex value, so a
    # restart that ends above it (in a worse local minimum) or on a vertex's
    # cap (in a descent into a basis state) is replaced by its nearest
    # vertex.  No solve then reports more than the vertex value: the lowest
    # restart is off a vertex, or every usable restart ties at V(a).
    snapped = usable & ((restart_values > vertex_value) | objective.at_vertex(x))
    restart_values[snapped] = vertex_value
    restart_values[~usable] = np.inf
    best = int(np.argmax(restart_values <= restart_values.min() + _WITNESS_TIE))
    value = float(restart_values[best])
    if snapped[best]:
        argmin = np.eye(MODULUS)[np.argmax(np.abs(x[best]))]
    else:
        # An L-BFGS end off a vertex carries its stopping tolerance: Newton settles the point and its value.
        argmin = gauge_fix(x[best] / np.linalg.norm(x[best, None], axis=1))
        polished, polished_value, polished_ok = _newton(_SpanObjective(family), argmin)
        if polished_ok:
            argmin, value = gauge_fix(polished), polished_value
    return OptimizationResult(
        value=value,
        argmin=argmin,
        restart_index=best,
        iterations_used=int(iterations[best]),
        restart_values=restart_values,
        failed_restarts=tuple(int(i) for i in np.flatnonzero(~(usable & converged))),
        nontrivial_minimizer=bool(np.any(usable & ~snapped)),
    )


def average_entanglement(decomposition: Decomposition, dims, cut) -> float:
    """Weighted mean pure-state entanglement; upper-bounds the mixture's E_f."""
    return float(decomposition.weights @ pure_entanglement(decomposition.states, dims, cut))


def orbit_certificate(result: OptimizationResult, a) -> tuple[float, float]:
    """Check the constructive half of a span minimum at aligned weight ``a``.

    The 49-element symmetry orbit of ``result.argmin`` is a decomposition of
    the pair marginal whose average entanglement is ``result.value``, so the
    minimum is the marginal's entanglement of formation.  Returns the
    reconstruction residual (largest entry deviation of the orbit mixture
    from the marginal) and the gap between the orbit average and the value.
    Raises ``RuntimeError`` unless the residual is below 1e-10 and the gap at
    most 1e-12.
    """
    family = ResidueFamily.from_a(a)
    decomposition = orbit_decomposition(result.argmin, family)
    reconstruction = float(np.max(np.abs(decomposition.mixture() - family.pair_density())))
    average_gap = abs(average_entanglement(decomposition, PAIR_DIMS, PAIR_CUT) - result.value)
    if not (reconstruction < 1e-10 and average_gap <= 1e-12):
        raise RuntimeError(
            f"orbit certificate failed at a={a}: reconstruction {reconstruction!r}, average gap {average_gap!r}"
        )
    return reconstruction, average_gap


def pair_eof(a, config: OptimizationConfig | None = None) -> float:
    """Entanglement of formation of the family's pair marginal at weight ``a``.

    Returns the span minimum after its :func:`orbit_certificate` passes.
    """
    result = min_span_entanglement(a, config)
    orbit_certificate(result, a)
    return result.value


def _tangent_hessian(objective: _SpanObjective, x):
    """Value f, tangent gradient P g and exact Riemannian Hessian P H P at the unit point ``x``, at the first weight.

    P = I - x x^T, and x^T g = 0 as f is scale-free.  With rho = M M^T = V diag(w) V^T, w clipped to
    [SPECTRUM_CLIP, 1], L_ab = (ln w_a - ln w_b) / (w_a - w_b), L_aa = 1 / w_a and E_j = V^T (B_j M^T + M B_j^T) V,
    Daleckii-Krein gives H_jk = -(sum_ab L_ab E_j,ab E_k,ab + 2 tr(B_j^T ln(rho) B_k)) / ln 2 - 2 f delta_jk.
    """
    (w,), (v,), (m,), (f,), (grad,) = objective._evaluate(x[None])
    tangent = np.eye(MODULUS) - np.outer(x, x)
    w = np.clip(w, SPECTRUM_CLIP, 1.0)
    gap, low = np.abs(w[:, None] - w), np.minimum(w[:, None], w)
    divided = np.divide(np.log1p(gap / low), gap, out=1.0 / low, where=gap > 0.0)  # L to a few ulps at any gap
    half = (rotated := v.T @ objective.basis_mats[0]) @ m.T @ v  # V^T B_j M^T V
    # Each sum is the Gram matrix of its P-projected factors, so P H P is symmetric to the bit.
    spectral = tangent @ (np.sqrt(divided) * (half + half.transpose(0, 2, 1))).reshape(MODULUS, -1)
    logarithmic = tangent @ (np.sqrt(-np.log(w))[:, None] * rotated).reshape(MODULUS, -1)
    return f, tangent @ grad, (2 * (logarithmic @ logarithmic.T) - spectral @ spectral.T) / np.log(2) - 2 * f * tangent


def _newton(objective: _SpanObjective, x):
    """Riemannian Newton from the unit point ``x``: (x, f, converged).

    Each iteration solves (P H P + x x^T) s = -P g and retracts x + s onto the
    sphere, until |s| <= ``_STEP_TOLERANCE``; a singular system or the
    iteration cap fails the solve.  The returned x is the last point
    evaluated, and f the value there.
    """
    converged = False
    for iteration in range(_NEWTON_ITERATIONS):
        f, grad, hessian = _tangent_hessian(objective, x)
        try:
            step = np.linalg.solve(hessian + np.outer(x, x), -grad)
        except np.linalg.LinAlgError:
            break
        if (converged := np.linalg.norm(step) <= _STEP_TOLERANCE) or iteration == _NEWTON_ITERATIONS - 1:
            break
        x = (x + step) / np.linalg.norm(x + step)
    return x, float(f), bool(converged)


def _continue_mixed_branch(x, a):
    """Mixed-branch point at ``a`` by :func:`_newton` from ``x``: (x, g(a), converged), g = M - V at x."""
    objective = _SpanObjective(ResidueFamily.from_a(a))
    x, f, converged = _newton(objective, x)
    return x, f - objective.vertex_value[0], converged


def maximize_pair_eof(config: OptimizationConfig | None = None) -> ScanResult:
    """Maximize the span minimum over the aligned weight a in [0, 1].

    The span minimum is the smaller of the closed-form vertex value V(a) and the mixed-branch minimum M(a),
    and it peaks where the two cross.  The Newton corrector (:func:`_continue_mixed_branch`) moves the stored
    direction ``_MIXED_SEED`` onto the mixed branch at a = 1/2.  Each side then runs a secant search on
    g = M - V from there: a first step of ``_TRACE_STEP``, every step clipped to it and a to [0, 1], until one
    is at most ``_CROSSING_TOLERANCE``.  A crossing whose g repeats (as at an end of [0, 1] that it keeps
    stepping past), or not settled in int(0.5 / ``_TRACE_STEP``) + ``_NEWTON_ITERATIONS`` solves, fails its
    last solve.  ``a_star`` is the root with the larger V (the lower on a tie), and ``e_star`` = V(a_star).
    Each corrected point is feasible: min(V, M) bounds the minimum.  Raises ``RuntimeError`` unless the seed's
    solve converges below V(1/2), if a traced value exceeds ``e_star``, or if the one multistart solve, at
    ``a_star`` with ``config``, ends more than ``_VALUE_TOLERANCE`` (relative) below ``e_star`` or fails
    :func:`orbit_certificate`.
    """
    config = config or OptimizationConfig()
    seed, seed_gap, seed_ok = _continue_mixed_branch(_MIXED_SEED, 0.5)
    if not (seed_ok and seed_gap < 0.0):
        raise RuntimeError(f"no mixed-branch point at a=0.5: the seed's solve gave g={seed_gap!r}, converged={seed_ok}")
    trace = [(0.5, ResidueFamily.from_a(0.5).pair_state_entanglement + seed_gap)]
    converged = [seed_ok]  # per corrector solve

    def crossing(h):
        x, a, gap = seed, 0.5, seed_gap
        for _ in range(int(0.5 / _TRACE_STEP) + _NEWTON_ITERATIONS):
            a, previous = float(np.clip(a + h, 0.0, 1.0)), gap
            x, gap, ok = _continue_mixed_branch(x, a)
            converged.append(ok)
            vertex = ResidueFamily.from_a(a).pair_state_entanglement
            trace.append((a, vertex + min(gap, 0.0)))
            if gap == previous:
                break
            h = float(np.clip(h * gap / (previous - gap), -_TRACE_STEP, _TRACE_STEP))
            if abs(h) <= _CROSSING_TOLERANCE:
                break
        converged[-1] &= abs(h) <= _CROSSING_TOLERANCE  # an unsettled crossing fails its last solve
        return vertex, a, x

    e_star, a, x = max(crossing(-_TRACE_STEP), crossing(_TRACE_STEP), key=lambda root: root[0])
    peak_a, peak = max(trace, key=lambda t: t[1])
    if peak > e_star:
        raise RuntimeError(f"traced value {peak!r} at a={peak_a} exceeds V(a*) {e_star!r} at a*={a}")
    result = min_span_entanglement(a, config)
    trace.append((a, result.value))
    if e_star - result.value > _VALUE_TOLERANCE * e_star:
        raise RuntimeError(f"crossing certificate failed at a={a}: solve {result.value!r} below V(a) {e_star!r}")
    orbit_certificate(result, a)
    # The normal direction x, lifted above every tangent curvature, drops out.
    hessian = _tangent_hessian(_SpanObjective(ResidueFamily.from_a(a)), x)[2]
    hessian += (1.0 + np.abs(hessian).sum()) * np.outer(x, x)
    return ScanResult(
        a_star=a,
        e_star=e_star,
        scan_trace=tuple(trace),
        restarts=len(result.restart_values) + len(converged),
        failed_restarts=len(result.failed_restarts) + converged.count(False),
        hessian_min=float(np.linalg.eigvalsh(hessian)[0]),
    )
