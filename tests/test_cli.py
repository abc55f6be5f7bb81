import errno
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qshare
from qshare.checks import (
    CheckResult, _random_state, family_checks, measure_checks, run_all_checks, singlet_cross_check,
)
from qshare import linalg
from qshare.cli import CSV_HEADER, build_parser, main
from qshare.linalg import swap_operator
from qshare.optimize import OptimizationConfig, RandomStream, _continue_mixed_branch
from qshare.states import ResidueFamily, orbit_decomposition, singlet_pair_reduced

# Fast-but-meaningful CLI settings for tests; the acceptance module runs the
# real budgets.
TABLE_ARGS = ["--restarts", "40", "--seed", "0"]


def refuse_to_solve(*args, **kwargs):
    raise AssertionError("solved before rejecting the input")


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize(
    "argv",
    [
        ["table", *TABLE_ARGS],
        ["singlet", "--d", "3"],
        ["family", "--a", "0.5", "--restarts", "5"],
        ["verify", "--restarts", "2"],
    ],
    ids=["table", "singlet", "family", "verify"],
)
def test_table_json_schema_and_roundtrip(capsys, argv):
    code, out = run_cli(capsys, [*argv, "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"schema_version", "command", "inputs", "results", "residuals", "warnings"}
    assert report["schema_version"] == 1
    assert report["command"] == argv[0]
    # Full-precision floats survive a round-trip.
    assert json.loads(json.dumps(report)) == report


def test_table_default_grid_meets_reference(capsys):
    code, out = run_cli(capsys, ["table", "--format", "json", "--restarts", "40", "--seed", "0"])
    assert code == 0
    report = json.loads(out)
    assert report["warnings"] == []
    results = report["results"]
    assert abs(results["a_star"] - 0.4609984) <= 1e-7
    assert abs(results["rows"][2]["e_bound"] - 1.9943982) <= 1e-7
    rows = results["rows"]
    assert [r["d"] for r in rows] == [2, 3, 7]
    assert [r["provenance"] for r in rows] == ["known-bound", "closed-form", "optimized"]
    for row in rows:
        assert row["ratio"] == pytest.approx(row["e_bound"] / np.log2(row["d"]), abs=1e-9)


def test_table_fails_on_a_corrupted_orbit(capsys, monkeypatch):
    # The orbit of the uniform span state, not of the minimizer, averages to
    # more than the peak value, so the peak's certificate must fail.
    def uniform_orbit(coeffs, family):
        return orbit_decomposition(np.ones(7) / np.sqrt(7), family)

    monkeypatch.setattr("qshare.optimize.orbit_decomposition", uniform_orbit)
    code, out = run_cli(capsys, ["table", "--format", "json", *TABLE_ARGS])
    assert code == 2
    assert out == ""


def test_table_fails_below_the_crossing(capsys, lowered_peak_solve):
    code = main(["table", "--format", "json", *TABLE_ARGS])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: crossing certificate failed")


@pytest.mark.parametrize(
    ("argv", "err_start"),
    [
        # Flags a subcommand does not read are refused, not ignored, under the
        # subcommand's usage line, which lists the flags it does take.
        (["singlet", "--tol", "nan"], "usage: qshare singlet "),
        (["table", "--tol", "-1", *TABLE_ARGS], "usage: qshare table "),
        (["family", "--tol", "5"], "usage: qshare family "),
        (["verify", "--tol", "-1"], "usage: qshare verify "),
        (["singlet", "--restarts", "5"], "usage: qshare singlet "),
        (["singlet", "--seed", "3"], "usage: qshare singlet "),
        (["table", "--grid-step", "0.05"], "usage: qshare table "),
        (["table", "--strict", *TABLE_ARGS], "usage: qshare table "),
        (["singlet", "--strict"], "usage: qshare singlet "),
        (["family", "--strict"], "usage: qshare family "),
        (["verify", "--strict"], "usage: qshare verify "),
    ],
    ids=[
        "singlet-tol-nan",
        "table-tol-negative",
        "family-tol",
        "verify-tol",
        "singlet-restarts",
        "singlet-seed",
        "table-grid-step",
        "table-strict",
        "singlet-strict",
        "family-strict",
        "verify-strict",
    ],
)
def test_bad_tolerance_or_grid_step_exits_2(capsys, monkeypatch, argv, err_start):
    monkeypatch.setattr("qshare.cli.min_span_entanglement", refuse_to_solve)
    try:
        code = main([*argv, "--format", "json"])
    except SystemExit as exc:  # argparse rejects an unknown flag itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(err_start)


def test_table_csv_header(capsys):
    code, out = run_cli(capsys, ["table", "--format", "csv", *TABLE_ARGS])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "2" and first[-1] == "known-bound"


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
    assert captured.err == "error: QSHARE_SEED must be an integer in ASCII decimal digits, got 'abc'\n"


@pytest.mark.parametrize("text", ["1_0", " 2", "\u0661\u0660"], ids=["underscore", "space", "arabic-indic"])
@pytest.mark.parametrize(
    "name, argv",
    [
        ("seed", ["family", "--restarts", "2", "--seed"]),
        ("restarts", ["family", "--restarts"]),
        ("d", ["singlet", "--d"]),
        ("QSHARE_SEED", ["family", "--restarts", "2"]),
    ],
)
def test_integer_inputs_take_only_ascii_digits(capsys, monkeypatch, name, argv, text):
    # int() reads each of these as an integer: 1_0 and the Arabic-Indic digits as 10.
    monkeypatch.setattr("qshare.cli.min_span_entanglement", refuse_to_solve)
    monkeypatch.setattr("qshare.cli.singlet_pair_reduced", refuse_to_solve)
    if name == "QSHARE_SEED":
        monkeypatch.setenv(name, text)
    else:
        argv = [*argv, text]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {name} must be an integer in ASCII decimal digits, got {text!r}\n"


@pytest.mark.parametrize(
    "text",
    ["0.4_61", " 0.5", "\u0660.\u0665", "0x1", "nan", "inf", "1.", "1.5e"],
    ids=["underscore", "space", "arabic-indic", "hexadecimal", "nan", "inf", "bare-point", "bare-exponent"],
)
def test_weight_takes_only_an_ascii_decimal_literal(capsys, monkeypatch, text):
    # float() reads the first three as 0.461 and 0.5, and argparse's float type refuses 0x1 with a usage line.
    monkeypatch.setattr("qshare.cli.min_span_entanglement", refuse_to_solve)
    code = main(["family", "--restarts", "2", "--a", text])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: a must be a number in ASCII decimal notation, got {text!r}\n"


@pytest.mark.parametrize(
    ("text", "a"), [("0.461", 0.461), ("5e-1", 0.5), (".5", 0.5), ("+1E-0", 1.0), ("-0.0", 0.0), ("1.5", None)]
)
def test_weight_reads_an_ascii_decimal_literal_once(capsys, monkeypatch, text, a):
    # The solve gets the weight as checked, -0.0 as 0.0; 1.5 fails the range check first.
    solved = []

    def stop(weight, config):
        solved.append(weight)
        raise RuntimeError("stop")

    monkeypatch.setattr("qshare.cli.min_span_entanglement", stop)
    assert main(["family", "--restarts", "2", "--a", text]) == 2
    if a is None:
        assert (solved, capsys.readouterr().err) == ([], "error: a must be a real number in [0, 1], got 1.5\n")
    else:
        assert solved == [a] and math.copysign(1.0, solved[0]) == 1.0


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
    assert report["residuals"]["decomposition_average_gap"] <= 1e-12
    assert len(report["results"]["argmin"]) == 7
    assert json.loads(json.dumps(report)) == report


def test_family_argmin_is_real(capsys):
    code, out = run_cli(capsys, ["family", "--a", "0.5", "--restarts", "40", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["nontrivial_minimizer"]
    assert all(im == 0.0 for _, im in report["results"]["argmin"])
    assert report["residuals"]["decomposition_reconstruction"] < 1e-10
    assert report["residuals"]["decomposition_average_gap"] <= 1e-12


@pytest.mark.parametrize("a", ["0.461", "0.5"])
def test_family_minimum_agrees_across_seeds(capsys, a):
    # The minimum is the entanglement at the Newton-polished witness; the L-BFGS
    # end's own value spread 7.5e-12 over these seeds at a = 0.461.
    values = []
    for seed in range(10):
        code, out = run_cli(capsys, ["family", "--a", a, "--restarts", "40", "--seed", str(seed), "--format", "json"])
        assert code == 0
        values.append(json.loads(out)["results"]["min_entanglement"])
    assert max(values) - min(values) <= 2e-14


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


def source_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH, for a child interpreter."""
    src = os.path.dirname(os.path.dirname(qshare.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, qshare.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=source_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def unthreaded_env(**settings):
    """``source_env()`` with no BLAS thread variable set but ``settings``."""
    env = {name: value for name, value in source_env().items() if name not in BLAS_THREAD_VARS}
    return dict(env, **settings)


def test_package_import_leaves_numpy_unloaded():
    code = "import sys, qshare; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    out = subprocess.run([sys.executable, "-c", code], env=source_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_package_names_resolve_on_first_use():
    modules = {"linalg": qshare.linalg, "measures": qshare.measures, "optimize": qshare.optimize, "states": qshare.states}
    assert len(qshare.__all__) == 43 and set(modules) <= set(qshare.__all__)
    star = {}
    exec("from qshare import *", star)
    assert sorted(name for name in star if not name.startswith("_")) == sorted(qshare.__all__)
    for name in qshare.__all__:
        value = getattr(qshare, name)
        assert star[name] is value, name
        assert value is modules.get(name) or any(vars(module).get(name) is value for module in modules.values()), name
    assert set(qshare.__all__) <= set(dir(qshare))
    with pytest.raises(AttributeError, match="has no attribute 'checks_passed'"):
        qshare.checks_passed


def test_cli_import_leaves_the_environment_unchanged():
    code = "import os; before = dict(os.environ); import qshare.cli; print(dict(os.environ) == before)"
    for env in (unthreaded_env(), unthreaded_env(OMP_NUM_THREADS="2")):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "True", env


def blas_threads_after_cli_import(**settings):
    """Threads of a fresh interpreter after ``import qshare.cli``, under ``settings``, read from /proc/self/task."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("threads are counted in Linux's /proc/self/task")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS starts no helper thread on one CPU")
    if "openblas" not in numpy_blas_name().lower():
        pytest.skip("numpy is not built against OpenBLAS")
    code = "import os, qshare.cli; print(len(os.listdir('/proc/self/task')))"
    out = subprocess.run([sys.executable, "-c", code], env=unthreaded_env(**settings), capture_output=True, text=True,
                         check=True)
    return int(out.stdout)


def test_cli_import_starts_no_blas_helper_thread():
    # With no thread variable set, OpenBLAS would start one thread per CPU.
    assert blas_threads_after_cli_import() == 1


def test_cli_import_honours_a_users_blas_thread_setting():
    assert blas_threads_after_cli_import(OMP_NUM_THREADS="2") == 2


def test_solves_leave_numpy_random_unloaded():
    # The restarts and the checks' inputs come from qshare's own generator; loading
    # numpy.random and drawing from it would cost a process 12-13 ms and 6.6 MB.
    code = (
        "import contextlib, io, json, sys, numpy, qshare.cli\n"
        "preloaded = 'numpy.random' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [qshare.cli.main([name, '--restarts', '2', '--format', 'json'])\n"
        "             for name in ('table', 'family', 'verify')]\n"
        "sys.stderr.write(json.dumps([preloaded, codes, 'numpy.random' in sys.modules]))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=source_env(), capture_output=True, text=True, check=True)
    preloaded, codes, loaded = json.loads(out.stderr)
    if preloaded:
        pytest.skip("this numpy release imports numpy.random with numpy itself")
    assert (codes, loaded) == ([0, 0, 0], False)


def test_werner_matrices_keep_only_their_nonzero_pages_resident():
    # F's d^2 ones lie on 872 of the 1,583 pages of its d = 30 map, 3.41 MB, and the
    # marginal's nonzeros, F's ones and the diagonal, on 1,278, 4.99 MB; every page
    # of either map was resident before, 6.18 MB.
    if not os.path.exists("/proc/self/status"):
        pytest.skip("resident memory is read from Linux's /proc/self/status")
    code = (
        "import json, sys\n"
        "from qshare.linalg import swap_operator\n"
        "from qshare.states import singlet_pair_reduced\n"
        "def resident_mb():\n"
        "    with open('/proc/self/status') as status:\n"
        "        return next(int(line.split()[1]) for line in status if line.startswith('VmRSS:')) / 1024\n"
        "grown = {}\n"
        "for build in (swap_operator, singlet_pair_reduced):\n"
        "    build(2)\n"
        "    before = resident_mb()\n"
        "    kept = build(30)\n"
        "    grown[build.__name__] = resident_mb() - before\n"
        "    del kept\n"
        "sys.stderr.write(json.dumps(grown))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=source_env(), capture_output=True, text=True, check=True)
    grown = json.loads(out.stderr)
    assert grown["swap_operator"] <= 4.0 and grown["singlet_pair_reduced"] <= 5.5, grown


def test_one_parser_serves_every_command_of_a_process():
    # build_parser is cached, so a process parses every command with one parser;
    # each command must still print and exit as in an interpreter of its own.
    commands = [
        ["table", "--format", "csv", "--restarts", "2"],
        ["singlet", "--d", "3", "--format", "csv"],
        ["family", "--a", "0.5", "--restarts", "2"],
        ["verify", "--restarts", "2"],
        ["family", "--bogus"],
    ]
    code = (
        "import contextlib, io, json, sys, qshare.cli\n"
        "runs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        try:\n"
        "            status = qshare.cli.main(argv)\n"
        "        except SystemExit as exc:\n"
        "            status = exc.code\n"
        "    runs.append([out.getvalue(), err.getvalue(), status])\n"
        "sys.stdout.write(json.dumps(runs))"
    )
    together = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)], env=source_env(), capture_output=True, text=True, check=True
    )
    for argv, run in zip(commands, json.loads(together.stdout), strict=True):
        alone = subprocess.run([sys.executable, "-m", "qshare.cli", *argv], env=source_env(), capture_output=True)
        assert run == [alone.stdout.decode(), alone.stderr.decode(), alone.returncode], argv  # csv rows end in \r\n
    assert [run[2] for run in json.loads(together.stdout)] == [0, 2, 0, 0, 2]


def numpy_blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.25 prints its build configuration only
        return ""


def test_commands_leave_blas_helper_threads_idle():
    # OpenBLAS threads a complex 49x49x49 product, and its helper threads then
    # spin for about 130 ms: the orbit mixture's complex product cost verify
    # 0.39 s and family and table 0.13 s each of helper-thread CPU on two cores.
    # RUSAGE_SELF counts every thread of the process, RUSAGE_THREAD the main one.
    if not sys.platform.startswith("linux"):
        pytest.skip("per-thread CPU time is read with Linux's RUSAGE_THREAD")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS starts no helper thread on one CPU")
    if "1" in (os.environ.get("OPENBLAS_NUM_THREADS"), os.environ.get("OMP_NUM_THREADS")):
        pytest.skip("BLAS threading is switched off in this environment")
    if "openblas" not in numpy_blas_name().lower():
        pytest.skip("numpy is not built against OpenBLAS")
    code = (
        "import contextlib, io, json, resource, sys, time\n"
        "import numpy as np\n"
        "import qshare.cli\n"
        "np.ones((128, 128)) @ np.ones((128, 128))  # starts the BLAS thread pool\n"
        "time.sleep(0.5)\n"
        "def cpu(who):\n"
        "    usage = resource.getrusage(who)\n"
        "    return usage.ru_utime + usage.ru_stime\n"
        "helpers = {}\n"
        "for name in ('verify', 'family', 'table'):\n"
        "    start = cpu(resource.RUSAGE_SELF) - cpu(resource.RUSAGE_THREAD)\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert qshare.cli.main([name, '--restarts', '5']) == 0\n"
        "    time.sleep(0.3)  # helper threads spin for a while after their last task\n"
        "    helpers[name] = cpu(resource.RUSAGE_SELF) - cpu(resource.RUSAGE_THREAD) - start\n"
        "sys.stderr.write(json.dumps(helpers))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=source_env(), capture_output=True, text=True, check=True)
    helpers = json.loads(out.stderr)
    assert all(seconds <= 0.02 for seconds in helpers.values()), helpers


def test_closed_stdout_is_not_an_error():
    # The read end is closed before the child starts, so its report write fails with EPIPE.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        argv = [sys.executable, "-m", "qshare.cli", "singlet", "--d", "3", "--format", "json"]
        proc = subprocess.run(argv, env=source_env(), stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_negative_zero_weight_is_echoed_as_zero(capsys):
    code, out = run_cli(capsys, ["family", "--a", "-0.0", "--restarts", "2", "--format", "json"])
    assert code == 0
    assert '"a": 0.0,' in out


def test_table_robust_across_seeds(capsys):
    _, out0 = run_cli(capsys, ["table", "--format", "json", "--restarts", "40", "--seed", "0"])
    _, out1 = run_cli(capsys, ["table", "--format", "json", "--restarts", "40", "--seed", "1"])
    rows0 = json.loads(out0)["results"]["rows"]
    rows1 = json.loads(out1)["results"]["rows"]
    for r0, r1 in zip(rows0, rows1):
        assert r0["e_bound"] == pytest.approx(r1["e_bound"], abs=5e-4)
        assert r0["ratio"] == pytest.approx(r1["ratio"], abs=5e-4)


@pytest.mark.parametrize("dim", [4, 7, 28])
def test_stacked_check_draws_equal_single_draws(dim):
    # A stack of k states takes the stream's next normals as k single draws
    # would, and each row is normalized as np.linalg.norm normalizes it alone.
    stacked, single = RandomStream(11), RandomStream(11)
    states = _random_state(stacked, dim, 50)
    assert states.shape == (50, dim)
    for row in states:
        z = single.standard_normal(dim) + 1j * single.standard_normal(dim)
        assert row.tobytes() == (z / np.linalg.norm(z)).tobytes()
    assert _random_state(stacked, dim).tobytes() == _random_state(single, dim, 1)[0].tobytes()
    # The Werner loop's uniforms, drawn as one array.
    assert stacked.uniform(0.0, 1.0, size=100).tolist() == [single.uniform(0.0, 1.0) for _ in range(100)]


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


def test_werner_fit_failure_exits_2(capsys, monkeypatch):
    # A closed-form marginal that fails its Werner fit is an error, raised before
    # the report is built.  The commands call the fit bound in cli and werner_eof
    # the one in measures: both are replaced, whichever a command reaches.
    for binding in ("qshare.cli.werner_fit", "qshare.measures.werner_fit"):
        monkeypatch.setattr(binding, lambda rho, d: None)
    monkeypatch.setattr("qshare.cli.maximize_pair_eof", refuse_to_solve)
    for argv in (["singlet", "--d", "6"], ["table", *TABLE_ARGS]):
        code = main([*argv, "--format", "json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: state is not of the form a*I + b*F")


def non_real_singlet_marginal(d, eps=0.4e-10):
    # i eps on every off-diagonal entry that F picks out keeps rho Hermitian to
    # 2 eps, its trace at 1 and its Werner fit within tolerance, but adds
    # i eps d(d - 1) to Tr(rho F).
    rho = singlet_pair_reduced(d).astype(complex)
    rho[swap_operator(d) - np.eye(d * d) > 0.0] += 1j * eps
    return rho


def test_singlet_refuses_a_non_real_swap_trace(capsys, monkeypatch):
    monkeypatch.setattr("qshare.cli.singlet_pair_reduced", non_real_singlet_marginal)
    code = main(["singlet", "--d", "3", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: Tr(rho F) has a non-real part -2.400e-10\n"


@pytest.mark.parametrize("d", ["3", "30"])
def test_singlet_validates_its_marginal_once(capsys, monkeypatch, d):
    # Every qshare.* binding of the two names is wrapped, as perfbench/spans.py
    # wraps them: the marginal is checked once, and F is mapped once, to build it.
    calls = {}
    for name in ("check_density_matrix", "swap_operator"):
        original = getattr(linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        for module in [m for key, m in sys.modules.items() if key.startswith("qshare.")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    assert main(["singlet", "--d", d, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["e_f"] == pytest.approx(1.0, abs=1e-12)
    assert calls == {"check_density_matrix": 1, "swap_operator": 1}


def test_allocation_failure_exits_2(capsys, monkeypatch):
    # The refusal is simulated: a real d large enough to be refused could
    # exhaust the machine's memory before the system says no.
    def refuse(fileno, length, flags):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    monkeypatch.setattr("qshare.linalg.mmap.mmap", refuse)
    code = main(["singlet", "--d", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot map the swap operator for d=4: 2048 bytes")


def test_subcommands_take_only_their_options():
    subparsers = build_parser().get_default("subparsers")
    options = {
        name: [a.option_strings[0] for a in sub._actions if a.option_strings and a.option_strings[0] != "-h"]
        for name, sub in subparsers.items()
    }
    assert options == {
        "table": ["--seed", "--restarts", "--format"],
        "singlet": ["--format", "--d"],
        "family": ["--seed", "--restarts", "--format", "--a"],
        "verify": ["--seed", "--restarts", "--format"],
    }


def test_unconverged_table_solves_exit_1(capsys, monkeypatch):
    # At 10 iterations 30 of the 40 restarts of the one multistart solve,
    # the certificate at a_star, stop short; the other 10 reach a basis
    # vertex in time and converge there.  Each of the 15 Newton corrector
    # solves of the mixed branch, its seed at a = 1/2 included, converges,
    # since _MAX_ITERATIONS bounds only L-BFGS.
    monkeypatch.setattr("qshare.optimize._MAX_ITERATIONS", 10)
    code, out = run_cli(capsys, ["table", "--format", "json", *TABLE_ARGS])
    report = json.loads(out)
    assert code == 1
    assert report["warnings"] == ["30 of 55 restarts did not converge"]

    # A corrector solve that stops short is counted too: here the first
    # side solve, the one after the seed.
    calls = []

    def first_side_stops_short(x, a):
        x, gap, converged = _continue_mixed_branch(x, a)
        calls.append(a)
        return x, gap, converged and len(calls) != 2

    monkeypatch.setattr("qshare.optimize._continue_mixed_branch", first_side_stops_short)
    code, out = run_cli(capsys, ["table", "--format", "json", *TABLE_ARGS])
    assert code == 1
    assert json.loads(out)["warnings"] == ["31 of 55 restarts did not converge"]


@pytest.mark.parametrize("restarts", [10, 200])
def test_table_makes_one_multistart_solve(capsys, monkeypatch, restarts):
    # The trace starts from a stored direction corrected at a = 1/2, so the
    # only multistart solve is the certificate at a_star, with the full budget.
    solve = qshare.optimize.min_span_entanglement
    solved = []

    def recorded(a, config):
        solved.append((a, config))
        return solve(a, config)

    monkeypatch.setattr("qshare.optimize.min_span_entanglement", recorded)
    code, out = run_cli(capsys, ["table", "--format", "json", "--restarts", str(restarts), "--seed", "0"])
    report = json.loads(out)
    assert code == 0
    assert report["inputs"] == {"restarts": restarts, "seed": 0}
    assert solved == [(report["results"]["a_star"], OptimizationConfig(restarts=restarts, seed=0))]


@pytest.mark.parametrize("seed", [2, 7, 8])
def test_table_finds_the_crossing_with_one_restart(capsys, seed):
    # One restart at a_star is enough: no multistart solve has to find the
    # mixed branch.
    code, out = run_cli(capsys, ["table", "--format", "json", "--restarts", "1", "--seed", str(seed)])
    assert code == 0
    assert abs(json.loads(out)["results"]["a_star"] - 0.46099840856814) <= 1e-12


@pytest.mark.parametrize("gap, converged", [(-0.0067, False), (0.0, True)])
def test_failed_seed_solve_exits_2(capsys, monkeypatch, gap, converged):
    monkeypatch.setattr("qshare.optimize._continue_mixed_branch", lambda x, a: (x, gap, converged))
    code = main(["table", "--format", "json", *TABLE_ARGS])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: no mixed-branch point at a=0.5")


def test_non_converging_corrector_exits_1(capsys, monkeypatch):
    # Every side solve of the Newton corrector stopping at its iteration cap
    # is a warning, not an error: the scan still reports its crossing.  (The
    # seed solve at a = 1/2 must converge; see test_failed_seed_solve_exits_2.)
    code, out = run_cli(capsys, ["table", "--format", "json", *TABLE_ARGS])
    assert code == 0
    reference = json.loads(out)["results"]["a_star"]
    calls = []

    def never_converges(x, a):
        x, gap, converged = _continue_mixed_branch(x, a)
        calls.append(a)
        return x, gap, converged and len(calls) == 1

    monkeypatch.setattr("qshare.optimize._continue_mixed_branch", never_converges)
    code, out = run_cli(capsys, ["table", "--format", "json", *TABLE_ARGS])
    report = json.loads(out)
    assert code == 1
    assert report["warnings"] == ["14 of 55 restarts did not converge"]
    assert report["results"]["a_star"] == reference


def test_crossing_without_a_root_exits_1(capsys, gapless_branch):
    # Each side of the scan runs to a = 0 and fails its last corrector solve:
    # a warning, which the text report prints last.
    code, out = run_cli(capsys, ["table", *TABLE_ARGS])
    assert code == 1
    assert out.splitlines()[-1] == "warning: 2 of 95 restarts did not converge"
    assert "a_star = 0.0000" in out


def test_unconverged_restarts_exit_1_without_strict(capsys, monkeypatch):
    monkeypatch.setattr("qshare.optimize._MAX_ITERATIONS", 1)
    code, out = run_cli(capsys, ["family", "--a", "0.5", "--restarts", "3", "--format", "json"])
    report = json.loads(out)
    assert code == 1
    assert report["warnings"] == ["3 of 3 restarts did not converge"]
    # The best point reached still passes its orbit certificate.
    assert report["residuals"]["decomposition_reconstruction"] < 1e-10


def test_failed_check_exits_1_without_strict(capsys, monkeypatch):
    def failing_optimizer_checks(config, rng):
        return [CheckResult("forced failure", False, "max deviation 1 (bound 0)")]

    monkeypatch.setattr("qshare.checks.optimizer_checks", failing_optimizer_checks)
    code, out = run_cli(capsys, ["verify", "--format", "json"])
    report = json.loads(out)
    assert code == 1
    assert report["results"]["n_failed"] == 1
    assert report["warnings"] == ["check failed: forced failure"]


def test_measure_checks_fail_when_the_werner_fit_rejects(monkeypatch):
    monkeypatch.setattr("qshare.checks.werner_fit", lambda rho, d: None)
    results = measure_checks(np.random.default_rng(0))
    assert results[-1] == CheckResult(
        "werner concurrence equals its linear form", False, "fit rejected an exact Werner state"
    )
    assert [r.passed for r in results[:-1]] == [True] * 3


def test_verify_suite_catches_corrupted_residues():
    # {1, 2, 3} is not doubling-closed, so the member state loses its cyclic
    # symmetry; the residue-validity and cyclic-invariance checks must fail.
    class CorruptedFamily(ResidueFamily):
        residues = (1, 2, 3)

    corrupted = CorruptedFamily(a=0.5)
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


FAMILY_CHECK_NAMES = [
    "residue set is the quadratic residues and doubling-closed",
    "pair basis is orthonormal",
    "pair density matches the traced member state",
    "member state is cyclic-permutation invariant",
    "all three pair marginals share one spectrum",
    "equivalent index patterns build one state",
    "pair symmetries act by phase and shift on the basis",
    "orbit decompositions rebuild the pair density",
    "orbit elements share one entanglement",
]


def test_run_all_checks_green():
    results = run_all_checks(OptimizationConfig(restarts=10, seed=0))
    failed = [r.name for r in results if not r.passed]
    assert failed == []
    # The check names are part of verify's report, so a renamed or dropped
    # check fails here.  The family checks run at a = 0.461 and then a = 0.5.
    assert [r.name for r in results] == [
        "schmidt spectrum matches partial-trace route",
        "reduced spectra agree on both sides of a cut",
        "qubit E_f of projectors matches pure-state entropy",
        "concurrence curve is monotone",
        "werner and qubit E_f agree for two qubits",
        "werner concurrence equals its linear form",
        *FAMILY_CHECK_NAMES,
        *FAMILY_CHECK_NAMES,
        "singlet is invariant under collective rotations",
        "singlet pair marginals match the closed form",
        "singlet pairs carry exactly one ebit",
        "closed-form pair marginal has unit concurrence",
        "minimum lower-bounds sampled span states",
        "argmin reproduces the reported value",
        "multistart is deterministic for a fixed seed",
        "global phase does not change the objective",
        "orbit images keep the seed's entanglement",
        "aligned-weight endpoints evaluate cleanly",
    ]
