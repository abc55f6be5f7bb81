"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or in captured
output on failure) and asserts the criterion at its stated tolerance.  The
outer-scan criterion runs both the full budget and the reduced smoke variant;
the module takes about 2 s end to end.
"""

import json
import time

import numpy as np
import pytest

from qshare.cli import main
from qshare.linalg import reduced_density_matrix
from qshare.measures import (
    WERNER_TOLERANCE,
    pure_entanglement,
    qubit_concurrence,
    qubit_eof,
    werner_concurrence,
    werner_eof,
    werner_fit,
)
from qshare.optimize import (
    PAIR_CUT,
    PAIR_DIMS,
    OptimizationConfig,
    maximize_pair_eof,
    min_span_entanglement,
    span_entanglement,
)
from qshare.states import (
    OMEGA,
    ResidueFamily,
    cyclic_permute,
    gauge_fix,
    orbit_decomposition,
    singlet_pair_reduced,
    singlet_state,
    symmetry_operators,
    w_state,
)


def report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def random_coeffs(rng):
    z = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    return z / np.linalg.norm(z)


def test_criterion_1_w_state_pair():
    start = time.perf_counter()
    pair = reduced_density_matrix(w_state(3), (2, 2, 2), (0, 1))
    concurrence = qubit_concurrence(pair)
    eof = qubit_eof(pair)
    elapsed = time.perf_counter() - start
    ok = abs(concurrence - 2.0 / 3.0) <= 1e-9 and abs(eof - 0.550) <= 5e-4 and elapsed < 1.0
    report(
        "criterion 1 (three-qubit pair values)",
        ok,
        f"concurrence={concurrence:.12f}, E_f={eof:.6f}, {elapsed:.2f}s",
    )


def test_criterion_2_collective_singlets():
    start = time.perf_counter()
    worst_fit, worst_c, worst_eof, worst_cross = 0.0, 0.0, 0.0, 0.0
    assert WERNER_TOLERANCE == 1e-10
    for d in range(2, 11):
        rho = singlet_pair_reduced(d)
        fit = werner_fit(rho, d)
        assert fit is not None, f"closed-form marginal rejected at d={d}"
        worst_fit = max(worst_fit, fit.residual)
        worst_c = max(worst_c, abs(werner_concurrence(rho, d) - 1.0))
        worst_eof = max(worst_eof, abs(werner_eof(rho, d) - 1.0))
    for d in range(2, 6):
        psi = singlet_state(d)
        closed = singlet_pair_reduced(d)
        dims = (d,) * d
        for i in range(d):
            for j in range(i + 1, d):
                marginal = reduced_density_matrix(psi, dims, (i, j))
                worst_cross = max(worst_cross, float(np.max(np.abs(marginal - closed))))
    elapsed = time.perf_counter() - start
    ok = worst_fit < 1e-10 and worst_c <= 1e-10 and worst_eof <= 1e-9 and worst_cross < 1e-10 and elapsed < 5.0
    report(
        "criterion 2 (one ebit per singlet pair, d=2..10)",
        ok,
        f"fit={worst_fit:.2e}, |c-1|={worst_c:.2e}, |E_f-1|={worst_eof:.2e}, cross={worst_cross:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_balanced_weight_minimum():
    start = time.perf_counter()
    result = min_span_entanglement(0.5, OptimizationConfig(restarts=200, seed=0))
    elapsed = time.perf_counter() - start
    ok = abs(result.value - 1.9933) <= 5e-4 and elapsed < 120.0
    report(
        "criterion 3 (balanced-weight minimum)",
        ok,
        f"min={result.value:.6f} (target 1.9933 +/- 5e-4), {elapsed:.1f}s, 200 restarts",
    )


def test_criterion_4_outer_maximization():
    smoke_start = time.perf_counter()
    smoke = maximize_pair_eof(OptimizationConfig(restarts=50, seed=0))
    smoke_elapsed = time.perf_counter() - smoke_start
    smoke_ok = (
        abs(smoke.a_star - 0.461) <= 0.01
        and abs(smoke.e_star - 1.9944) <= 2e-3
        and smoke_elapsed < 180.0
    )
    report(
        "criterion 4a (smoke outer scan)",
        smoke_ok,
        f"a*={smoke.a_star:.4f}, E*={smoke.e_star:.6f}, {smoke_elapsed:.1f}s",
    )

    full_start = time.perf_counter()
    full = maximize_pair_eof(OptimizationConfig(restarts=200, seed=0))
    full_elapsed = time.perf_counter() - full_start
    full_ok = (
        abs(full.a_star - 0.461) <= 0.005
        and abs(full.e_star - 1.9944) <= 5e-4
        and full_elapsed < 1800.0
    )
    report(
        "criterion 4b (full outer scan)",
        full_ok,
        f"a*={full.a_star:.4f}, E*={full.e_star:.6f}, {full_elapsed:.1f}s",
    )


def test_criterion_5_reported_coefficient_vector():
    coeffs = np.array([0.120, 0.197, 0.689, 0.259, -0.468, -0.275, -0.332])
    coeffs = gauge_fix(coeffs / np.linalg.norm(coeffs))
    value = span_entanglement(coeffs, 0.461)
    ok = abs(value - 1.9944) <= 5e-4
    report("criterion 5 (reported coefficient vector)", ok, f"E={value:.6f} (target 1.9944 +/- 5e-4)")


def test_criterion_6_table_ratios(capsys):
    code = main(["table", "--format", "json", "--restarts", "50", "--seed", "0"])
    out = capsys.readouterr().out
    with capsys.disabled():
        assert code == 0
        rows = json.loads(out)["results"]["rows"]
        ratios = [row["ratio"] for row in rows]
        targets = [0.550, 0.631, 0.710]
        deviations = [abs(r - t) for r, t in zip(ratios, targets)]
        ok = len(rows) == 3 and all(dev <= 5e-4 for dev in deviations)
        report(
            "criterion 6 (summary table ratios)",
            ok,
            "ratios=" + ", ".join(f"{r:.6f}" for r in ratios) + f", worst dev={max(deviations):.2e}",
        )


def test_criterion_7_orbit_decompositions():
    rng = np.random.default_rng(2024)
    worst_recon, worst_spread = 0.0, 0.0
    for a in rng.uniform(0.0, 1.0, size=5):
        family = ResidueFamily.from_a(float(a))
        target = family.pair_density()
        for _ in range(50):
            dec = orbit_decomposition(random_coeffs(rng), family)
            worst_recon = max(worst_recon, float(np.max(np.abs(dec.mixture() - target))))
            values = [pure_entanglement(s, PAIR_DIMS, PAIR_CUT) for s in dec.states]
            worst_spread = max(worst_spread, max(values) - min(values))
    ok = worst_recon < 1e-10 and worst_spread <= 1e-10
    report(
        "criterion 7 (orbit decomposition oracle)",
        ok,
        f"reconstruction={worst_recon:.2e}, entanglement spread={worst_spread:.2e}",
    )


def test_criterion_8_symmetry_suite():
    ops = symmetry_operators()
    family = ResidueFamily.from_a(0.461)
    worst_pair = 0.0
    for j in range(7):
        s_j = family.pair_state(j)
        worst_pair = max(worst_pair, float(np.max(np.abs(ops.pair_phase @ s_j - OMEGA**j * s_j))))
        worst_pair = max(worst_pair, float(np.max(np.abs(ops.pair_shift @ s_j - family.pair_state((j + 1) % 7)))))

    member = family.state()
    cyclic_dev = abs(abs(np.vdot(member, cyclic_permute(member, (7, 7, 7)))) ** 2 - 1.0)

    rng = np.random.default_rng(99)
    worst_singlet = 0.0
    for d in (2, 3, 4):
        psi = singlet_state(d)
        tensor = psi.reshape((d,) * d)
        for _ in range(20):
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            q, r = np.linalg.qr(z)
            q = q * (np.diag(r) / np.abs(np.diag(r)))
            q = q / np.linalg.det(q) ** (1.0 / d)
            rotated = tensor
            for axis in range(d):
                rotated = np.moveaxis(np.tensordot(q, rotated, axes=(1, axis)), 0, axis)
            worst_singlet = max(worst_singlet, abs(abs(np.vdot(psi, rotated.reshape(-1))) - 1.0))

    ok = worst_pair <= 1e-12 and cyclic_dev <= 1e-12 and worst_singlet <= 1e-9
    report(
        "criterion 8 (symmetry suite)",
        ok,
        f"pair ops={worst_pair:.2e}, cyclic={cyclic_dev:.2e}, collective rotation={worst_singlet:.2e}",
    )


def test_criterion_9_cross_formula_consistency():
    from qshare.linalg import swap_operator

    rng = np.random.default_rng(7)
    worst_werner = 0.0
    for _ in range(100):
        c = float(rng.uniform(0.0, 1.0))
        a_w = (2.0 + c) / 6.0
        b_w = -(1.0 + 2.0 * c) / 6.0
        rho = a_w * np.identity(4) + b_w * swap_operator(2)
        worst_werner = max(worst_werner, abs(werner_eof(rho, 2) - qubit_eof(rho)))

    worst_pure = 0.0
    for _ in range(100):
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = z / np.linalg.norm(z)
        rho = np.outer(psi, psi.conj())
        worst_pure = max(worst_pure, abs(qubit_eof(rho) - pure_entanglement(psi, (2, 2), (0,))))

    ok = worst_werner <= 1e-9 and worst_pure <= 1e-8
    report(
        "criterion 9 (cross-formula consistency)",
        ok,
        f"werner vs qubit={worst_werner:.2e}, mixed vs pure={worst_pure:.2e}",
    )
