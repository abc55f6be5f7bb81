"""Self-verification suite backing the ``verify`` command.

Each check exercises one invariant of the library with independent oracles
(partial-trace routes, brute-force rebuilds, finite differences) and returns
a :class:`CheckResult`.  The family checks accept an explicit
:class:`~qshare.states.ResidueFamily` so tests can inject corrupted inputs
and confirm the suite catches them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import partial_trace, reduced_density_matrix, schmidt_spectrum, swap_operator
from .measures import (
    eof_from_concurrence,
    pure_entanglement,
    qubit_eof,
    werner_eof,
    werner_fit,
    werner_values,
)
from .optimize import (
    PAIR_CUT, PAIR_DIMS, OptimizationConfig, RandomStream, min_span_entanglements, orbit_certificate, span_entanglement,
)
from .states import (
    MODULUS,
    OMEGA,
    ResidueFamily,
    cyclic_permute,
    orbit_decomposition,
    quadratic_residues,
    singlet_pair_reduced,
    singlet_state,
    symmetry_operators,
)

__all__ = [
    "CheckResult",
    "linalg_checks",
    "measure_checks",
    "family_checks",
    "singlet_checks",
    "singlet_cross_check",
    "optimizer_checks",
    "run_all_checks",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, deviation, bound):
    return CheckResult(name, bool(deviation <= bound), f"max deviation {deviation:.3e} (bound {bound:g})")


def _random_state(rng, dim, count=None):
    """A random complex unit vector, or ``count`` of them as rows, drawn and normalized as ``count`` single draws."""
    z = rng.standard_normal((count or 1, 2, dim))
    z = z[:, 0] + 1j * z[:, 1]
    # Row by row, the two dot products np.linalg.norm takes of one complex vector, over the same strided parts.
    re, im = z.real[:, None], z.imag[:, None]
    z /= np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0]
    return z[0] if count is None else z


def _random_special_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    qmat, r = np.linalg.qr(z)
    qmat = qmat * (np.diag(r) / np.abs(np.diag(r)))
    det = np.linalg.det(qmat)
    return qmat / det ** (1.0 / d)


def linalg_checks(rng) -> list[CheckResult]:
    out = []

    # Schmidt spectrum against the projector-plus-partial-trace route.
    dev = 0.0
    for dims, cut in [((2, 3), (0,)), ((2, 2, 2), (0, 2)), ((3, 4), (1,)), ((7, 7), (0,))]:
        psi = _random_state(rng, math.prod(dims))
        rho = np.outer(psi, psi.conj())
        marginal = partial_trace(rho, dims, cut)
        w = np.linalg.eigvalsh(marginal)
        spectrum = schmidt_spectrum(psi, dims, cut)
        k = min(w.size, spectrum.size)
        dev = max(dev, float(np.max(np.abs(np.sort(w)[::-1][:k] - spectrum[:k]))))
    out.append(_result("schmidt spectrum matches partial-trace route", dev, 1e-10))

    # Both sides of any bipartite pure state share one spectrum.
    dev = 0.0
    for dims in [(2, 5), (3, 3), (4, 7)]:
        psi = _random_state(rng, math.prod(dims))
        left = schmidt_spectrum(psi, dims, (0,))
        right = schmidt_spectrum(psi, dims, (1,))
        k = min(left.size, right.size)
        dev = max(dev, float(np.max(np.abs(left[:k] - right[:k]))))
        dev = max(dev, float(abs(left.sum() - 1.0)), float(abs(right.sum() - 1.0)))
    out.append(_result("reduced spectra agree on both sides of a cut", dev, 1e-10))
    return out


def measure_checks(rng) -> list[CheckResult]:
    out = []

    # Mixed-state E_f of a pure projector equals the reduced-entropy value.
    states = _random_state(rng, 4, 100)
    projectors = states[:, :, None] * states[:, None, :].conj()
    dev = float(np.max(np.abs(qubit_eof(projectors) - pure_entanglement(states, (2, 2), (0,)))))
    out.append(_result("qubit E_f of projectors matches pure-state entropy", dev, 1e-8))

    # The concurrence-to-E_f curve is monotone.
    grid = np.linspace(0.0, 1.0, 1000)
    monotone = bool(np.all(np.diff(eof_from_concurrence(grid)) >= 0.0))
    out.append(CheckResult("concurrence curve is monotone", monotone, "1000-point grid"))

    # Werner-form E_f agrees with the qubit formula where both apply.
    c = rng.uniform(0.0, 1.0, size=100)[:, None, None]
    rhos = (2.0 + c) / 6.0 * np.identity(4) - (1.0 + 2.0 * c) / 6.0 * swap_operator(2)
    werner = np.array([werner_eof(rho, 2) for rho in rhos])
    dev = float(np.max(np.abs(werner - qubit_eof(rhos))))
    out.append(_result("werner and qubit E_f agree for two qubits", dev, 1e-9))

    # -Tr(rho F) evaluates like the linear form in the fitted coefficients.
    name = "werner concurrence equals its linear form"
    dev = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 6))
        lo, hi = -1.0 / (d * (d - 1)), 1.0 / (d * (d + 1))
        b_w = float(rng.uniform(lo, hi))
        a_w = (1.0 - b_w * d) / (d * d)
        rho = a_w * np.identity(d * d) + b_w * swap_operator(d)
        fit = werner_fit(rho, d)
        if fit is None:
            out.append(CheckResult(name, False, "fit rejected an exact Werner state"))
            break
        dev = max(dev, abs(werner_values(fit, rho)[0] - (-(fit.a_w * d + fit.b_w * d * d))))
    else:
        out.append(_result(name, dev, 1e-10))
    return out


def family_checks(family: ResidueFamily, rng) -> list[CheckResult]:
    """Invariants of the three-particle family; ``family`` is injectable."""
    out = []

    residues = frozenset(family.residues)
    valid = residues == quadratic_residues(MODULUS)
    closed = frozenset((2 * k) % MODULUS for k in residues) == residues
    out.append(
        CheckResult(
            "residue set is the quadratic residues and doubling-closed",
            valid and closed,
            f"residues {tuple(sorted(residues))}",
        )
    )

    basis = family.pair_basis()
    dev = float(np.max(np.abs(basis @ basis.conj().T - np.eye(MODULUS))))
    out.append(_result("pair basis is orthonormal", dev, 1e-12))

    state = family.state()
    dev = float(np.max(np.abs(family.pair_density() - reduced_density_matrix(state, (7, 7, 7), (1, 2)))))
    out.append(_result("pair density matches the traced member state", dev, 1e-12))

    fidelity = abs(np.vdot(state, cyclic_permute(state, (7, 7, 7)))) ** 2
    out.append(_result("member state is cyclic-permutation invariant", abs(fidelity - 1.0), 1e-12))

    dev = 0.0
    for keep in [(0, 1), (1, 2), (0, 2)]:
        spectrum = np.sort(np.linalg.eigvalsh(reduced_density_matrix(state, (7, 7, 7), keep)))
        if keep == (0, 1):
            ref = spectrum
        else:
            dev = max(dev, float(np.max(np.abs(spectrum - ref))))
    out.append(_result("all three pair marginals share one spectrum", dev, 1e-10))

    # Rebuild the member state through two index patterns equivalent to the
    # one ``state()`` uses.
    def build(pattern):
        amp = np.zeros(MODULUS**3, dtype=complex)
        w_a = family.a / math.sqrt(MODULUS)
        w_b = family.b / math.sqrt(MODULUS)
        for j in range(MODULUS):
            amp[(j * 49 + j * 7 + j)] += w_a
            for k in family.residues:
                x, y, z = pattern(j, k)
                amp[(x % 7) * 49 + (y % 7) * 7 + (z % 7)] += w_b
        return amp

    doubled = build(lambda j, k: (j + 2 * k, j + 4 * k, j + k))
    shifted = build(lambda j, k: (j, j + k, j + 3 * k))
    forms_equal = np.array_equal(state, doubled) and np.array_equal(state, shifted)
    out.append(CheckResult("equivalent index patterns build one state", forms_equal, "exact amplitude comparison"))

    ops = symmetry_operators()
    dev = 0.0
    for j in range(MODULUS):
        s_j = basis[j]
        dev = max(dev, float(np.max(np.abs(ops.pair_phase @ s_j - OMEGA**j * s_j))))
        dev = max(dev, float(np.max(np.abs(ops.pair_shift @ s_j - basis[(j + 1) % MODULUS]))))
    out.append(_result("pair symmetries act by phase and shift on the basis", dev, 1e-12))

    recon_dev = 0.0
    spread = 0.0
    weights = rng.uniform(0.0, 1.0, size=5)
    for a, seeds in zip(weights, _random_state(rng, MODULUS, 50).reshape(5, 10, MODULUS)):
        fam_a = ResidueFamily.from_a(float(a))
        target = fam_a.pair_density()
        decs = [orbit_decomposition(coeffs, fam_a) for coeffs in seeds]
        for dec in decs:
            recon_dev = max(recon_dev, float(np.max(np.abs(dec.mixture() - target))))
        values = pure_entanglement(np.concatenate([dec.states for dec in decs]), PAIR_DIMS, PAIR_CUT)
        spread = max(spread, float(np.ptp(values.reshape(len(decs), -1), axis=1).max()))
    out.append(_result("orbit decompositions rebuild the pair density", recon_dev, 1e-10))
    out.append(_result("orbit elements share one entanglement", spread, 1e-10))
    return out


def singlet_checks(rng) -> list[CheckResult]:
    out = []

    # Collective rotations leave the antisymmetric state fixed up to phase.
    dev = 0.0
    for d in (2, 3, 4):
        psi = singlet_state(d)
        t = psi.reshape((d,) * d)
        for _ in range(20):
            u = _random_special_unitary(rng, d)
            rotated = t
            for axis in range(d):
                rotated = np.moveaxis(np.tensordot(u, rotated, axes=(1, axis)), 0, axis)
            dev = max(dev, abs(abs(np.vdot(psi, rotated.reshape(-1))) - 1.0))
    out.append(_result("singlet is invariant under collective rotations", dev, 1e-9))

    # Every pair marginal has unit concurrence; up to d = 5 it matches the full state's and carries one ebit.
    dev = eof_dev = c_dev = 0.0
    for d in range(2, 11):
        closed = singlet_pair_reduced(d)
        c, e_f = werner_values(werner_fit(closed, d), closed)  # one validation per marginal
        c_dev = max(c_dev, abs(c - 1.0))
        if d <= 5:
            dev = max(dev, singlet_cross_check(d, closed))
            eof_dev = max(eof_dev, abs(e_f - 1.0))
    out.append(_result("singlet pair marginals match the closed form", dev, 1e-10))
    out.append(_result("singlet pairs carry exactly one ebit", eof_dev, 1e-9))
    out.append(_result("closed-form pair marginal has unit concurrence", c_dev, 1e-10))
    return out


def singlet_cross_check(d, closed) -> float:
    """Largest entry deviation of the d-particle singlet's pair marginals from ``closed``.

    ``closed`` is the closed-form marginal the caller already built; the full
    state is built here, so ``d`` is at most 7.
    """
    psi = singlet_state(d)
    dims = (d,) * d
    dev = 0.0
    for i in range(d):
        for j in range(i + 1, d):
            marginal = reduced_density_matrix(psi, dims, (i, j))
            dev = max(dev, float(np.max(np.abs(marginal - closed))))
    return dev


def optimizer_checks(config: OptimizationConfig, rng) -> list[CheckResult]:
    out = []
    # Two batches: the sampled weights and the ends of [0, 1], then a repeat and a prefix at a = 1/2.
    weights, ends, half = (0.3, 0.5, 0.75), replace(config, restarts=min(config.restarts, 20)), config.restarts // 2
    *solves, bottom, top = min_span_entanglements([(a, config) for a in weights] + [(0.0, ends), (1.0, ends)])
    second, prefix = min_span_entanglements([(0.5, config), (0.5, replace(config, restarts=max(1, half)))])

    # The reported minimum must not exceed any sampled span state.
    samples = _random_state(rng, MODULUS, 60).reshape(len(weights), 20, MODULUS)
    dev = max(float(np.max(r.value - span_entanglement(c, a))) for a, r, c in zip(weights, solves, samples))
    witness_dev = max(abs(span_entanglement(r.argmin, a) - r.value) for a, r in zip(weights, solves))
    out.append(_result("minimum lower-bounds sampled span states", max(dev, 0.0), 1e-8))
    out.append(_result("argmin reproduces the reported value", witness_dev, 1e-12))

    # Same seed, same restart values, from another batch; a batch of k restarts
    # equals the first k rows of a batch of R, so no restart depends on the others.
    first = solves[1]
    k = len(prefix.restart_values)
    deterministic = (
        np.array_equal(first.restart_values, second.restart_values)
        and first.restart_index == second.restart_index
        and np.array_equal(prefix.restart_values, first.restart_values[:k])
        and prefix.failed_restarts == tuple(i for i in first.failed_restarts if i < k)
    )
    out.append(CheckResult("multistart is deterministic for a fixed seed", deterministic, f"seed {config.seed}"))

    # A global phase and the symmetry orbit leave the objective unchanged.
    coeffs = _random_state(rng, MODULUS)
    phase = np.exp(1j * float(rng.uniform(0.0, 2.0 * np.pi)))
    gauge_dev = abs(span_entanglement(phase * coeffs, 0.5) - span_entanglement(coeffs, 0.5))
    out.append(_result("global phase does not change the objective", gauge_dev, 1e-12))

    fam = ResidueFamily.from_a(0.5)
    dec = orbit_decomposition(coeffs, fam)
    seed_value = span_entanglement(coeffs, 0.5)
    orbit_dev = float(np.max(np.abs(pure_entanglement(dec.states, PAIR_DIMS, PAIR_CUT) - seed_value)))
    out.append(_result("orbit images keep the seed's entanglement", orbit_dev, 1e-10))

    # Endpoint evaluations: each end's minimum passes its constructive decomposition check.
    try:
        orbit_certificate(bottom, 0.0)
        orbit_certificate(top, 1.0)
        out.append(_result("aligned-weight endpoints evaluate cleanly", abs(top.value), 1e-9))
    except Exception as exc:  # pragma: no cover - failure path
        out.append(CheckResult("aligned-weight endpoints evaluate cleanly", False, repr(exc)))
    return out


def run_all_checks(config: OptimizationConfig) -> list[CheckResult]:
    """Run the whole suite; ``config.seed`` also seeds every check's random stream."""
    rng = RandomStream(config.seed)
    results = []
    results += linalg_checks(rng)
    results += measure_checks(rng)
    results += family_checks(ResidueFamily.from_a(0.461), rng)
    results += family_checks(ResidueFamily.from_a(0.5), rng)
    results += singlet_checks(rng)
    results += optimizer_checks(config, rng)
    return results
