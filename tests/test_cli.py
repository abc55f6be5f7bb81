import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qshare
from qshare.checks import family_checks, run_all_checks, singlet_cross_check
from qshare.cli import CSV_HEADER, main
from qshare.optimize import OptimizationConfig
from qshare.states import ResidueFamily, orbit_decomposition, singlet_pair_reduced

# Fast-but-meaningful CLI settings for tests; the acceptance module runs the
# real budgets.
TABLE_ARGS = ["--restarts", "40", "--grid-step", "0.05", "--seed", "0"]


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_table_json_schema_and_roundtrip(capsys):
    code, out = run_cli(capsys, ["table", "--format", "json", *TABLE_ARGS])
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"schema_version", "command", "inputs", "results", "residuals", "warnings"}
    assert report["schema_version"] == 1
    assert report["command"] == "table"
    # Full-precision floats survive a round-trip.
    assert json.loads(json.dumps(report)) == report
    rows = report["results"]["rows"]
    assert [r["d"] for r in rows] == [2, 3, 7]
    assert [r["provenance"] for r in rows] == ["known-bound", "closed-form", "optimized"]
    for row in rows:
        assert row["ratio"] == pytest.approx(row["e_bound"] / np.log2(row["d"]), abs=1e-9)


def test_table_default_grid_meets_reference(capsys):
    code, out = run_cli(capsys, ["table", "--strict", "--format", "json", "--restarts", "40", "--seed", "0"])
    assert code == 0
    report = json.loads(out)
    assert report["warnings"] == []
    results = report["results"]
    assert abs(results["a_star"] - 0.461) <= 0.005
    assert abs(results["rows"][2]["e_bound"] - 1.9944) <= 5e-4


def test_table_fails_on_a_corrupted_orbit(capsys, monkeypatch):
    # The orbit of the uniform span state, not of the minimizer, averages to
    # more than the peak value, so the peak's certificate must fail.
    def uniform_orbit(coeffs, family):
        return orbit_decomposition(np.ones(7) / np.sqrt(7), family)

    monkeypatch.setattr("qshare.optimize.orbit_decomposition", uniform_orbit)
    code, out = run_cli(capsys, ["table", "--format", "json", *TABLE_ARGS])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["singlet", "--tol", "nan"],
        ["table", "--tol", "-1", *TABLE_ARGS],
        ["table", "--grid-step", "0.3", "--restarts", "5"],
    ],
    ids=["singlet-tol-nan", "table-tol-negative", "table-grid-step-0.3"],
)
def test_bad_tolerance_or_grid_step_exits_2(capsys, argv):
    code = main([*argv, "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_table_csv_header(capsys):
    code, out = run_cli(capsys, ["table", "--format", "csv", *TABLE_ARGS])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "2" and first[-1] == "known-bound"


def refuse_to_solve(*args, **kwargs):
    raise AssertionError("solved before rejecting the input")


def test_csv_rejected_outside_table(capsys, monkeypatch):
    monkeypatch.setattr("qshare.cli.min_span_entanglement", refuse_to_solve)
    for argv in (["singlet", "--d", "3"], ["family", "--restarts", "2"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "csv"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # The usage line is the subcommand's, which shows the --format choices.
        assert captured.err.startswith(f"usage: qshare {argv[0]} ")
        assert "argument --format: invalid choice: 'csv'" in captured.err


def test_malformed_seed_env_var_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("qshare.cli.min_span_entanglement", refuse_to_solve)
    monkeypatch.setenv("QSHARE_SEED", "abc")
    code = main(["family", "--restarts", "2", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: QSHARE_SEED must be an integer, got 'abc'\n"


def test_table_text_uses_four_decimals(capsys):
    code, out = run_cli(capsys, ["table", *TABLE_ARGS])
    assert code == 0
    assert "0.5500" in out
    assert "provenance" in out


def test_singlet_json(capsys):
    code, out = run_cli(capsys, ["singlet", "--d", "4", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["c"] == pytest.approx(1.0, abs=1e-10)
    assert report["results"]["e_f"] == pytest.approx(1.0, abs=1e-9)
    assert report["residuals"]["werner_fit"] < 1e-10
    assert report["residuals"]["full_state_cross_check"] < 1e-10


def test_singlet_large_d_skips_full_state(capsys):
    code, out = run_cli(capsys, ["singlet", "--d", "9", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert "full_state_cross_check" not in report["residuals"]
    assert report["results"]["e_f"] == pytest.approx(1.0, abs=1e-9)


def test_family_json(capsys):
    code, out = run_cli(capsys, ["family", "--a", "0.461", "--restarts", "60", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["a"] == 0.461
    assert report["results"]["b"] == pytest.approx(0.512, abs=5e-4)
    assert report["results"]["min_entanglement"] == pytest.approx(1.9944, abs=5e-4)
    assert report["residuals"]["decomposition_reconstruction"] < 1e-10
    assert report["residuals"]["decomposition_average_gap"] < 1e-8
    assert len(report["results"]["argmin"]) == 7
    assert json.loads(json.dumps(report)) == report


def test_family_argmin_is_real(capsys):
    code, out = run_cli(capsys, ["family", "--a", "0.5", "--restarts", "40", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["nontrivial_minimizer"]
    assert all(im == 0.0 for _, im in report["results"]["argmin"])
    assert report["residuals"]["decomposition_reconstruction"] < 1e-10
    assert report["residuals"]["decomposition_average_gap"] <= 1e-8


def test_seed_env_var_used_when_flag_absent(capsys, monkeypatch):
    monkeypatch.setenv("QSHARE_SEED", "7")
    _, out = run_cli(capsys, ["family", "--a", "1.0", "--restarts", "5", "--format", "json"])
    assert json.loads(out)["inputs"]["seed"] == 7


def test_seed_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("QSHARE_SEED", "7")
    _, out = run_cli(capsys, ["family", "--a", "1.0", "--restarts", "5", "--seed", "3", "--format", "json"])
    assert json.loads(out)["inputs"]["seed"] == 3


def test_seed_fully_determines_family_output(capsys):
    argv = ["family", "--a", "0.5", "--restarts", "15", "--seed", "11", "--format", "json"]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert first == second
    # Restarts do not depend on one another: a run that stops at the best
    # restart reports the same result.
    results = json.loads(first)["results"]
    argv[argv.index("--restarts") + 1] = str(results["restart_index"] + 1)
    _, prefix = run_cli(capsys, argv)
    assert json.loads(prefix)["results"] == results


def test_cli_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(qshare.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, qshare.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_table_robust_across_seeds(capsys):
    _, out0 = run_cli(capsys, ["table", "--format", "json", "--restarts", "40", "--grid-step", "0.05", "--seed", "0"])
    _, out1 = run_cli(capsys, ["table", "--format", "json", "--restarts", "40", "--grid-step", "0.05", "--seed", "1"])
    rows0 = json.loads(out0)["results"]["rows"]
    rows1 = json.loads(out1)["results"]["rows"]
    for r0, r1 in zip(rows0, rows1):
        assert r0["e_bound"] == pytest.approx(r1["e_bound"], abs=5e-4)
        assert r0["ratio"] == pytest.approx(r1["ratio"], abs=5e-4)


def test_verify_passes_on_fresh_build(capsys):
    code, out = run_cli(capsys, ["verify", "--restarts", "10", "--format", "json"])
    report = json.loads(out)
    assert report["results"]["n_failed"] == 0, [w for w in report["warnings"]]
    assert code == 0


def test_verify_text_prints_pass_lines(capsys):
    code, out = run_cli(capsys, ["verify", "--restarts", "10"])
    assert code == 0
    assert "[PASS]" in out
    assert "[FAIL]" not in out


def test_verify_suite_catches_corrupted_residues():
    # {1, 2, 3} is not doubling-closed, so the member state loses its cyclic
    # symmetry; the residue-validity and cyclic-invariance checks must fail.
    corrupted = ResidueFamily(a=0.5, b=0.5, residues=(1, 2, 3))
    rng = np.random.default_rng(0)
    results = family_checks(corrupted, rng)
    by_name = {r.name: r.passed for r in results}
    assert not by_name["residue set is the quadratic residues and doubling-closed"]
    assert not by_name["member state is cyclic-permutation invariant"]
    # The pair basis stays orthonormal for any distinct nonzero residues;
    # corruption surfaces through the symmetry checks instead.
    assert by_name["pair basis is orthonormal"]
    assert any(not r.passed for r in results)


def test_index_pattern_check_compares_against_the_state(monkeypatch):
    # A member state built with the second and third labels swapped.
    def swapped_state(self):
        amp = np.zeros(7**3, dtype=complex)
        for j in range(7):
            amp[j * 49 + j * 7 + j] += self.a / np.sqrt(7)
            for k in self.residues:
                amp[((j + k) % 7) * 49 + ((j + 4 * k) % 7) * 7 + (j + 2 * k) % 7] += self.b / np.sqrt(7)
        return amp

    monkeypatch.setattr(ResidueFamily, "state", swapped_state)
    results = family_checks(ResidueFamily.from_a(0.461), np.random.default_rng(0))
    by_name = {r.name: r.passed for r in results}
    assert not by_name["equivalent index patterns build one state"]


def test_singlet_cross_check_sees_a_wrong_marginal():
    assert singlet_cross_check(3, singlet_pair_reduced(3)) < 1e-10
    assert singlet_cross_check(3, np.identity(9) / 9) > 0.01


def test_run_all_checks_green():
    results = run_all_checks(OptimizationConfig(restarts=10, seed=0), seed=0)
    failed = [r.name for r in results if not r.passed]
    assert failed == []
