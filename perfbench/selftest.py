"""Self-test of the benchmark's own logic.

Run from the root of a qshare checkout::

    python3 perfbench/selftest.py

It feeds corrupted and failing reports to the scorer and requires each to be
counted in the error rate, parses a sample importtime log, checks that
``BENCHMARK.json`` names exactly the metrics a run prints, and traces one
small CLI call to check the spans and that tracing is undone afterwards.
The file is not named ``test_*`` so the repository's pytest run skips it.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

import run
import spans
import workloads

SINGLET = {
    "schema_version": 1,
    "command": "singlet",
    "inputs": {"d": 4, "tol": 1e-10},
    "results": {"d": 4, "c": 1.0, "a_w": 1 / 12, "b_w": -1 / 12, "e_f": 1.0},
    "residuals": {"werner_fit": 0.0, "full_state_cross_check": 1e-17},
    "warnings": [],
}
FAMILY = {
    "schema_version": 1,
    "command": "family",
    "inputs": {"a": 0.5, "seed": 0, "restarts": 200, "parallel": True},
    "results": {"b": 0.5, "min_entanglement": 1.99332, "argmin": [], "restart_index": 3},
    "residuals": {"decomposition_reconstruction": 1e-16, "decomposition_average_gap": 1e-15},
    "warnings": [],
}
TABLE = {
    "schema_version": 1,
    "command": "table",
    "inputs": {},
    "results": {
        "rows": [{"ratio": 0.55005, "e_bound": 0.55005}, {"ratio": 0.63093, "e_bound": 1.0},
                 {"ratio": 0.71042, "e_bound": 1.99440}],
        "a_star": 0.461014,
    },
    "residuals": {},
    "warnings": ["scan trace over the aligned weight is not unimodal"],
}


def _outcome(report, exit_code=0, error=None):
    return {"argv": [report["command"]], "exit_code": exit_code, "stdout": json.dumps(report), "error": error}


def _corrupt(report, path, value):
    bad = copy.deepcopy(report)
    *parents, last = path.split(".")
    target = bad
    for part in parents:
        target = target[int(part)] if isinstance(target, list) else target[part]
    target[int(last) if isinstance(target, list) else last] = value
    return bad


def test_scoring_counts_every_failure():
    good = [_outcome(SINGLET), _outcome(FAMILY), _outcome(TABLE)]
    bad = [
        _outcome(_corrupt(SINGLET, "results.e_f", 0.999)),
        _outcome(_corrupt(SINGLET, "residuals.full_state_cross_check", 1e-6)),
        _outcome(_corrupt(FAMILY, "results.min_entanglement", 2.0)),  # above the vertex value
        _outcome(_corrupt(FAMILY, "warnings", ["3 of 200 restarts did not converge"]), exit_code=1),
        _outcome(_corrupt(TABLE, "results.rows.2.e_bound", 1.9960)),
        _outcome(_corrupt(TABLE, "results.a_star", 0.4277)),
        _outcome(_corrupt(SINGLET, "command", "family")),
        _outcome(SINGLET, exit_code=2),
        {"argv": ["verify"], "exit_code": 0, "stdout": "not json", "error": None},
        {"argv": ["singlet"], "exit_code": None, "stdout": "", "error": "RuntimeError('boom')"},
    ]
    failed = run.score(good + bad)
    assert [f["argv"] for f in failed] == [o["argv"] for o in bad], failed
    assert len(failed) / len(good + bad) == len(bad) / (len(good) + len(bad))
    assert run.score(good) == []


def test_importtime_parse():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:       400 |        400 |     scipy.optimize",
        "import time:        50 |        750 |   qshare.optimize",
        "import time:        10 |       1200 | qshare",
        "import time:        30 |         30 | qshare.cli",
    ])
    assert run._importtime_total(log, "qshare") == 1230 / 1e6
    assert run._importtime_total(log, "scipy") == 700 / 1e6


def test_benchmark_json_names_what_runs_print():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = set(spans.summarize([])["metrics"]) | {
        "cli.import.qshare_s", "cli.import.scipy_s", "cli.warmup_s", "trace.overhead_s"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: run.unit_of(n) for n in layer_names}


def test_workloads_are_seeded_and_keep_defaults():
    for name in workloads.NAMES:
        ops = workloads.operations(name, 7)
        assert ops == workloads.operations(name, 7)
        assert ops != workloads.operations(name, 8)
        assert not any(flag in op for op in ops for flag in ("--parallel", "--grid-step"))
    assert set(workloads.CPUS) == set(workloads.NAMES)


def test_tracer_records_and_restores():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import qshare.cli
    import qshare.measures
    import qshare.states

    def bindings():
        return (qshare.cli.main, qshare.cli._RUNNERS["singlet"], qshare.cli.werner_fit,
                qshare.measures.werner_fit, qshare.states.ResidueFamily.__dict__["from_a"])

    originals = bindings()
    tracer = spans.Tracer()
    tracer.install()
    assert not any(now is before for now, before in zip(bindings(), originals))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert qshare.cli.main(["singlet", "--d", "3", "--format", "json"]) == 0
    finally:
        tracer.uninstall()
    assert all(now is before for now, before in zip(bindings(), originals))
    metrics = spans.summarize(tracer.spans)["metrics"]
    assert metrics["cli.main.calls"] == 1 and metrics["cli.run_singlet.calls"] == 1
    # run_singlet -> werner_fit, werner_concurrence, werner_eof (-> fit, concurrence), each PSD-checked.
    assert metrics["measures.werner_fit.calls"] == 2
    assert metrics["linalg.check_density_matrix.calls"] == 4
    assert metrics["linalg.check_density_matrix.eig_flops"] == 4 * 9**3
    assert metrics["linalg.swap_operator.bytes"] == 3 * 16 * 3**4
    main_span = metrics["cli.main.total_s"]
    assert 0.0 < metrics["cli.main.self_s"] < main_span
    assert metrics["cli.run_singlet.total_s"] <= main_span


def main():
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    print(f"{len(tests)} passed")


if __name__ == "__main__":
    main()
