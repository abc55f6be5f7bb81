"""Numerical core for the three-particle family.

Minimizes the pair entanglement over unit-norm coefficient vectors on the
span of the seven pair states at fixed aligned weight a, and maximizes that
minimum over a.  The span minimum equals the pair marginal's entanglement of
formation: it lower-bounds every decomposition, and the symmetry orbit of the
minimizer realizes a decomposition that attains it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SPECTRUM_CLIP
from .measures import Decomposition, pure_entanglement, shannon_entropy
from .states import MODULUS, ResidueFamily, orbit_decomposition

__all__ = [
    "PAIR_DIMS",
    "PAIR_CUT",
    "OptimizationConfig",
    "OptimizationResult",
    "ScanResult",
    "span_entanglement",
    "min_span_entanglement",
    "average_entanglement",
    "orbit_certificate",
    "pair_eof",
    "maximize_pair_eof",
]

PAIR_DIMS = (MODULUS, MODULUS)
PAIR_CUT = (0,)

# Width of the aligned-weight bracket at which the bisection of the scan stops.
_REFINE_WIDTH = 1e-4
# A solve within this of the vertex value V(a) lies on the vertex branch.  A
# vertex-side solve can end a hair off its vertex and report up to about
# 2e-12 below V(a); a mixed-side solve lies 5.7e-6 below V(a) as close as
# 2.5e-5 to the crossing, so only points within about 5e-9 of it can be
# misrouted.
_VERTEX_MARGIN = 1e-9

# A near-best restart whose largest squared coefficient is at most this
# counts as a non-basis minimizer.
_VERTEX_WEIGHT = 0.99
# Restarts within this of the best value count when deciding whether a
# non-basis minimizer was found.
_NEAR_BEST = 1e-6

# L-BFGS: curvature pairs kept per restart, and the sufficient-decrease
# constant of the backtracking line search.
_MEMORY = 10
_ARMIJO = 1e-4


@dataclass(frozen=True)
class OptimizationConfig:
    """Multistart settings.

    Restart i starts from a random real unit 7-vector drawn from its own
    stream, ``np.random.default_rng([seed, i])``: a start depends on neither
    ``restarts`` nor the other restarts, and different seeds share no start.
    A restart converges when an accepted step lowers the value by at most
    ``value_tolerance`` (relative to max(|f|, 1)), when its step is at most
    ``step_tolerance`` times the length of its point, or when no step longer
    than that lowers the value even along the steepest descent.  It fails
    when it reaches ``max_iterations`` accepted steps first.
    """

    restarts: int = 200
    max_iterations: int = 5000
    value_tolerance: float = 1e-10
    step_tolerance: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not 0.0 < self.value_tolerance < 1.0:
            raise ValueError("value_tolerance must lie in (0, 1)")
        if not 0.0 < self.step_tolerance < 1.0:
            raise ValueError("step_tolerance must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Best local minimum found over all restarts.

    ``argmin`` is a real unit 7-vector whose first coefficient above 1e-12
    in magnitude is positive.  ``value`` is the entanglement there and never
    exceeds any entry of ``restart_values``.  No entry exceeds the
    closed-form value of a basis vertex: a restart that ends above it is
    replaced by its nearest vertex.  Restarts that did not converge are
    listed in ``failed_restarts`` but still contribute their best point.
    ``nontrivial_minimizer`` records whether any near-best restart ended away
    from a basis vertex.
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

    ``scan_trace`` lists the solved points as (a, value) in solve order: the
    grid points in decreasing order of their vertex bound, then the
    bisection points.  ``e_star`` at ``a_star`` is the first largest
    value of the trace, and its minimizer's orbit certificate passed.
    """

    a_star: float
    e_star: float
    scan_trace: tuple[tuple[float, float], ...]


def _vertex_entanglement(family: ResidueFamily) -> float:
    """Entanglement H(a^2, b^2, b^2, b^2) of every basis vertex of the span.

    Pair state j has amplitude a at (j, j) and b at (j + k, j + 3k) for the
    three residues k, all in distinct rows and columns, so its Schmidt
    spectrum is (a^2, b^2, b^2, b^2).  Each vertex is feasible, so this
    bounds the span minimum from above.  The spectrum is summed in ascending
    order, as an eigensolver returns it, which reproduces the objective's
    value at a vertex to the bit.
    """
    a2, b2 = family.a * family.a, family.b * family.b
    return shannon_entropy(np.sort([a2, b2, b2, b2]))


class _SpanObjective:
    """Pair entanglement as a function of the 7 real span coefficients.

    Every pair state is real, so conj(c) gives the conjugate marginal with
    the same spectrum, and at a real point no imaginary direction has a
    gradient: the search keeps to the real span.  The value is scale-invariant,
    so the unit norm never needs explicit projection.
    """

    def __init__(self, family: ResidueFamily):
        # Pair state j reshaped to the real 7x7 amplitude matrix across the cut.
        self.basis_mats = family.pair_basis().real.reshape(MODULUS, MODULUS, MODULUS)
        self.vertex_value = _vertex_entanglement(family)

    def entanglement(self, coeffs):
        """Entanglement (R,) at each row of unit-norm real coefficients (R, 7)."""
        m = np.einsum("rj,jab->rab", coeffs, self.basis_mats)
        return shannon_entropy(np.linalg.eigvalsh(m @ m.transpose(0, 2, 1)))

    def value_and_grad(self, x):
        """Values (R,) and gradients (R, 7) at the rows of ``x`` (R, 7).

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
        m = np.einsum("rj,jab->rab", x, self.basis_mats)
        w, p = np.linalg.eigh((m @ m.transpose(0, 2, 1)) / n2[:, None, None])
        w = np.clip(w, 0.0, None)
        f = shannon_entropy(w)
        # dE = -Tr(log2(rho) drho); the spectral log uses the clipped spectrum.
        log_w = np.log2(np.where(w > SPECTRUM_CLIP, w, 1.0))
        lmat = (p * log_w[:, None, :]) @ p.transpose(0, 2, 1)
        g = np.einsum("jab,rab->rj", self.basis_mats, lmat @ m)
        grad = -(2.0 / n2[:, None]) * (g + f[:, None] * x)
        f[zero] = 3.0
        f[~finite] = np.nan
        grad[~usable] = 0.0
        return f, grad


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


def _lbfgs(objective: _SpanObjective, x0, config: OptimizationConfig):
    """Minimize from every row of ``x0`` in lockstep.

    Each row runs its own L-BFGS with its own curvature pairs, backtracking
    step and stopping decision; one batched evaluation per round serves every
    row still running.  Returns the final points, the accepted steps per row
    and which rows converged (see :class:`OptimizationConfig`).
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

    def search(rows):
        # A new line search from the current point along the L-BFGS direction.
        # A row whose gradient is zero to round-off (a step as long as the
        # point itself would change f by at most `dim` rounding errors of f)
        # is stationary and converges where it stands.
        change = np.linalg.norm(g[rows], axis=1) * np.linalg.norm(x[rows], axis=1)
        stationary = change <= dim * np.finfo(float).eps * np.maximum(np.abs(f[rows]), 1.0)
        converged[rows[stationary]] = True
        running[rows[stationary]] = False
        rows = rows[~stationary]
        d[rows] = _direction(g[rows], s_hist[rows], y_hist[rows], rho_hist[rows])
        slope[rows] = np.einsum("ri,ri->r", g[rows], d[rows])
        step[rows] = 1.0
        stall(rows[~(slope[rows] < 0.0)])

    def stall(rows):
        # No descent along the current direction: retry along the steepest
        # descent, and a row that already did is stationary, i.e. converged.
        remembered = rho_hist[rows, -1] > 0.0
        stopped = rows[~remembered]
        converged[stopped] = True
        running[stopped] = False
        retry = rows[remembered]
        if retry.size:
            s_hist[retry] = 0.0
            y_hist[retry] = 0.0
            rho_hist[retry] = 0.0
            search(retry)

    search(np.flatnonzero(running))
    while running.any():
        rows = np.flatnonzero(running)
        trial = x[rows] + step[rows, None] * d[rows]
        f_trial, g_trial = objective.value_and_grad(trial)
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
        flat = f_old - f[moved] <= config.value_tolerance * scale
        small = np.linalg.norm(s_new, axis=1) <= config.step_tolerance * np.linalg.norm(x[moved], axis=1)
        converged[moved[flat | small]] = True
        running[moved[flat | small]] = False
        running[moved[iterations[moved] >= config.max_iterations]] = False
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
        stall(held[length <= config.step_tolerance * np.linalg.norm(x[held], axis=1)])
    return x, iterations, converged


def _starts(config: OptimizationConfig):
    """Unit starting points (restarts, 7); row i draws 7 normals from stream [seed, i]."""
    x0 = np.array([np.random.default_rng([config.seed, i]).standard_normal(MODULUS) for i in range(config.restarts)])
    return x0 / np.linalg.norm(x0, axis=1, keepdims=True)


def _finish(objective: _SpanObjective, x):
    """Unit coefficients (R, 7) and values (R,) at the restarts' final points.

    Each row is normalized and its sign fixed so that its first coefficient
    above 1e-12 in magnitude is positive.  A point that cannot be normalized
    gets NaN coefficients and value +inf.
    """
    norms = np.linalg.norm(x, axis=1)
    usable = np.isfinite(norms) & (norms >= 1e-9)
    coeffs = np.full(x.shape, np.nan)
    coeffs[usable] = x[usable] / norms[usable, None]
    lead = np.argmax(np.abs(coeffs) > 1e-12, axis=1)
    coeffs *= np.copysign(1.0, coeffs[np.arange(len(x)), lead])[:, None]
    values = np.full(len(x), np.inf)
    values[usable] = objective.entanglement(coeffs[usable])
    # Every basis vertex is feasible at the closed-form vertex value, so a
    # restart that ends above it (in a worse local minimum, or in the slow
    # tail of a descent into a basis state) is replaced by its nearest
    # vertex.  No solve then reports more than the vertex value.
    peaks = np.argmax(np.abs(coeffs), axis=1)
    snap = usable & (values > objective.vertex_value)
    coeffs[snap] = np.eye(MODULUS)[peaks[snap]]
    values[snap] = objective.vertex_value
    return coeffs, values


def span_entanglement(coeffs, a) -> float:
    """Pair-cut entanglement of the span state with the given coefficients."""
    family = ResidueFamily.from_a(a)
    return pure_entanglement(family.span_state(coeffs), PAIR_DIMS, PAIR_CUT)


def min_span_entanglement(a, config: OptimizationConfig | None = None) -> OptimizationResult:
    """Smallest span-state entanglement at aligned weight ``a``.

    Runs ``config.restarts`` local minimizations from seeded random starting
    points, all advanced together as one batch, and keeps the best local
    minimum (ties broken by the lowest restart index).  A restart's outcome
    depends only on its own start, so identical (a, seed) inputs reproduce
    identical restart values, and the first k restarts of a larger run
    equal a run of k restarts.
    """
    config = config or OptimizationConfig()
    family = ResidueFamily.from_a(a)
    objective = _SpanObjective(family)
    x, iterations, converged = _lbfgs(objective, _starts(config), config)
    coeffs, restart_values = _finish(objective, x)

    usable = np.isfinite(restart_values)
    if not usable.any():
        raise RuntimeError(f"all {config.restarts} restarts failed at a={a}")
    # argmin takes the first of equal values: ties go to the lowest index.
    best = int(np.argmin(restart_values))
    near_best = usable & (restart_values <= restart_values[best] + _NEAR_BEST)
    off_vertex = np.max(np.abs(coeffs), axis=1) ** 2 <= _VERTEX_WEIGHT
    return OptimizationResult(
        value=float(restart_values[best]),
        argmin=coeffs[best],
        restart_index=best,
        iterations_used=int(iterations[best]),
        restart_values=restart_values,
        failed_restarts=tuple(int(i) for i in np.flatnonzero(~(usable & converged))),
        nontrivial_minimizer=bool(np.any(near_best & off_vertex)),
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
    most 1e-8.
    """
    family = ResidueFamily.from_a(a)
    decomposition = orbit_decomposition(result.argmin, family)
    reconstruction = float(np.max(np.abs(decomposition.mixture() - family.pair_density())))
    average_gap = abs(average_entanglement(decomposition, PAIR_DIMS, PAIR_CUT) - result.value)
    if not (reconstruction < 1e-10 and average_gap <= 1e-8):
        raise RuntimeError(
            f"orbit certificate failed at a={a}: reconstruction {reconstruction!r}, average gap {average_gap!r}"
        )
    return reconstruction, average_gap


def pair_eof(a, config: OptimizationConfig | None = None) -> float:
    """Entanglement of formation of the family's pair marginal at weight ``a``.

    Returns the span minimum after its :func:`orbit_certificate` passes.
    """
    result = min_span_entanglement(a, config or OptimizationConfig())
    orbit_certificate(result, a)
    return result.value


def maximize_pair_eof(config: OptimizationConfig | None = None, *, grid_step=0.005) -> ScanResult:
    """Maximize the span minimum over the aligned weight a in [0, 1].

    The span minimum is the smaller of the closed-form vertex value V(a) and
    the mixed-branch minimum, and it peaks where the two cross.  The scan
    solves the uniform grid of step ``grid_step`` (1/n for an integer
    n >= 2), then bisects the bracket between the best grid point's
    neighbours down to a width of 1e-4.  From a solve on the vertex branch
    (within ``_VERTEX_MARGIN`` of V(a)) the crossing lies toward a = 1/2, from
    one on the mixed branch away from it, and from a = 1/2 itself the
    bisection follows the lower crossing.  The bracket's midpoint is the grid
    peak, so its solve is the first bisection step.  The result is the first
    best of all solved points; the orbit certificate of its minimizer must
    pass (see :func:`orbit_certificate`), which needs no further solve.

    Grid points are solved in decreasing order of V(a), and the scan stops at
    the first point whose V(a) lies below the best value solved so far.  That
    skips only points that cannot win: a solve never reports more than V(a),
    and every later point has a lower bound still.  The best grid value and
    its a are therefore those of the exhaustive scan.  V(a) rises up to
    a = 1/2 and falls after it, so the solved points form one grid interval
    around 1/2.
    """
    config = config or OptimizationConfig()
    if not (0.0 < grid_step <= 0.5 and abs(1.0 / grid_step - round(1.0 / grid_step)) <= 1e-9):
        raise ValueError("grid_step must be 1/n for an integer n >= 2")
    grid = np.linspace(0.0, 1.0, round(1.0 / grid_step) + 1)

    solves: list[tuple[float, OptimizationResult]] = []  # (a, result) in solve order
    bounds = np.array([_vertex_entanglement(ResidueFamily.from_a(a)) for a in grid])
    for i in np.argsort(-bounds, kind="stable"):
        if solves and bounds[i] < max(result.value for _, result in solves):
            break
        solves.append((float(grid[i]), min_span_entanglement(float(grid[i]), config)))
    a, result = max(solves, key=lambda s: (s[1].value, -s[0]))  # ties go to the lowest a

    p = int(np.searchsorted(grid, a))
    lo, hi = float(grid[max(0, p - 1)]), float(grid[min(grid.size - 1, p + 1)])
    while True:
        vertex_side = result.value >= _vertex_entanglement(ResidueFamily.from_a(a)) - _VERTEX_MARGIN
        if (a < 0.5 and vertex_side) or (a > 0.5 and not vertex_side):
            lo = a
        else:
            hi = a
        if hi - lo <= _REFINE_WIDTH:
            break
        a = (lo + hi) / 2
        result = min_span_entanglement(a, config)
        solves.append((a, result))

    a_star, result = max(solves, key=lambda s: s[1].value)  # the first largest
    orbit_certificate(result, a_star)
    return ScanResult(a_star=a_star, e_star=result.value, scan_trace=tuple((a, r.value) for a, r in solves))
