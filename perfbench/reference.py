"""Reference checks on the JSON reports, kept as data.

Each subcommand has an expected exit code, the warnings it may print, and a
list of rules.  A rule reads one value from the report by a dotted path
(numeric parts index lists) and compares it with a number or with a value
derived from the report:

- ``near``: |value - target| <= tol
- ``at_most``: value <= target + tol
- ``below``: value < target
- ``equals``: value == target

A rule with ``when`` applies only to reports for which that condition holds.
Tolerances equal those of the acceptance tests or are tighter.
"""

from __future__ import annotations

import json
import math

UNIMODAL_WARNING = "scan trace over the aligned weight is not unimodal"

REFERENCE = {
    "table": {
        "exit_code": 0,
        # The scan trace has two genuine local maxima, so this is expected.
        "allowed_warnings": [UNIMODAL_WARNING],
        "rules": [
            {"path": "results.rows.0.ratio", "test": "near", "target": 0.550, "tol": 5e-4},
            {"path": "results.rows.1.ratio", "test": "near", "target": 0.631, "tol": 5e-4},
            {"path": "results.rows.2.ratio", "test": "near", "target": 0.710, "tol": 5e-4},
            {"path": "results.a_star", "test": "near", "target": 0.461, "tol": 0.005},
            {"path": "results.rows.2.e_bound", "test": "near", "target": 1.9944, "tol": 5e-4},
        ],
    },
    "family": {
        "exit_code": 0,
        "allowed_warnings": [],
        "rules": [
            {"path": "residuals.decomposition_reconstruction", "test": "below", "target": 1e-10},
            {"path": "residuals.decomposition_average_gap", "test": "at_most", "target": 1e-8, "tol": 0.0},
            {"path": "results.min_entanglement", "test": "at_most", "target": "vertex_entropy", "tol": 1e-9},
            {
                "when": {"path": "inputs.a", "test": "equals", "target": 0.461},
                "path": "results.min_entanglement", "test": "near", "target": 1.9944, "tol": 5e-4,
            },
            {
                "when": {"path": "inputs.a", "test": "equals", "target": 0.5},
                "path": "results.min_entanglement", "test": "near", "target": 1.9933, "tol": 5e-4,
            },
        ],
    },
    "singlet": {
        "exit_code": 0,
        "allowed_warnings": [],
        "rules": [
            {"path": "results.e_f", "test": "near", "target": 1.0, "tol": 1e-9},
            {"path": "results.c", "test": "near", "target": 1.0, "tol": 1e-10},
            {"path": "residuals.werner_fit", "test": "below", "target": 1e-10},
            {
                "when": {"path": "inputs.d", "test": "at_most", "target": 5, "tol": 0},
                "path": "residuals.full_state_cross_check", "test": "below", "target": 1e-10,
            },
        ],
    },
    "verify": {
        "exit_code": 0,
        "allowed_warnings": [],
        "rules": [
            {"path": "results.n_failed", "test": "equals", "target": 0},
        ],
    },
}


def _vertex_entropy(report):
    """H(a^2, b^2, b^2, b^2): the pair entanglement at a basis vertex of the span."""
    a = report["inputs"]["a"]
    b = report["results"]["b"]
    return -sum(p * math.log2(p) for p in (a * a, b * b, b * b, b * b) if p > 0.0)


DERIVED = {"vertex_entropy": _vertex_entropy}


def _lookup(report, path):
    value = report
    for part in path.split("."):
        value = value[int(part)] if isinstance(value, list) else value[part]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{path} is {value!r}, not a number")
    return value


def _holds(report, rule):
    value = _lookup(report, rule["path"])
    target = rule["target"]
    if isinstance(target, str):
        target = DERIVED[target](report)
    tol = rule.get("tol", 0.0)
    test = rule["test"]
    if test == "near":
        ok = abs(value - target) <= tol
    elif test == "at_most":
        ok = value <= target + tol
    elif test == "below":
        ok = value < target
    elif test == "equals":
        ok = value == target
    else:
        raise ValueError(f"unknown test {test!r}")
    return ok, value, target


def failures(argv, exit_code, stdout) -> list[str]:
    """Why one CLI invocation fails its reference check; empty when it passes."""
    command = argv[0]
    spec = REFERENCE[command]
    problems = []
    if exit_code != spec["exit_code"]:
        problems.append(f"exit code {exit_code}, expected {spec['exit_code']}")
    try:
        report = json.loads(stdout)
    except ValueError:
        return problems + ["output is not a JSON report"]
    if not isinstance(report, dict) or report.get("command") != command:
        return problems + [f"report is not a {command} report"]
    for message in report.get("warnings", []):
        if message not in spec["allowed_warnings"]:
            problems.append(f"warning: {message}")
    for rule in spec["rules"]:
        try:
            if "when" in rule and not _holds(report, rule["when"])[0]:
                continue
            ok, value, target = _holds(report, rule)
        except (KeyError, IndexError, TypeError) as exc:
            problems.append(f"{rule['path']}: missing or malformed ({exc})")
            continue
        if not ok:
            problems.append(f"{rule['path']} = {value!r} fails {rule['test']} {target!r} (tol {rule.get('tol', 0.0)})")
    return problems
