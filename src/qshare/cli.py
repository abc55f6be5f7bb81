"""Command-line interface.

Subcommands reproduce the headline numbers (``table``), report the collective
singlet pair marginals (``singlet``), solve the three-particle family at one
aligned weight (``family``), and run the self-verification suite
(``verify``).  Reports are emitted as aligned text, JSON, or CSV (table
only).  The environment variable ``QSHARE_SEED`` supplies the seed when
``--seed`` is absent.  The exit status is 0 for a clean run, 1 when the report
carries any warning, and 2 on an input, internal or allocation error.  A
reader that closes stdout before the report is written is not an error.
"""

from __future__ import annotations

import os

# OpenBLAS sizes its thread pool once, from these variables, when numpy loads it.  No command
# has a product large enough for helper threads, which would only start and spin: unless the
# user set one, numpy is loaded with one BLAS thread, and the variables added for that are then
# removed, so the environment is left as it was found.  numpy loads before the standard library
# modules below, which keeps the process's resident memory as it was.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_ADDED_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if any(name in os.environ for name in _BLAS_THREAD_VARS):
    _ADDED_VARS = ()
os.environ.update(dict.fromkeys(_ADDED_VARS, "1"))
try:
    from .checks import run_all_checks, singlet_cross_check
    from .linalg import reduced_density_matrix
    from .measures import qubit_eof, werner_fit, werner_values
    from .optimize import OptimizationConfig, maximize_pair_eof, min_span_entanglement, orbit_certificate
    from .states import ResidueFamily, singlet_pair_reduced, w_state
finally:
    for _name in _ADDED_VARS:
        del os.environ[_name]

import argparse
import csv
import functools
import io
import json
import math
import re
import sys

__all__ = ["main", "run_table", "run_singlet", "run_family", "run_verify"]

SCHEMA_VERSION = 1
SEED_ENV_VAR = "QSHARE_SEED"
CSV_HEADER = ["d", "n", "e_bound", "ratio", "provenance"]

# Restarts per solve when --restarts is absent; table and family take OptimizationConfig's default.
_DEFAULT_RESTARTS = {"verify": 30}


def _parse_integer(text, name) -> int:
    """``text`` as an int; ``ValueError`` naming ``name`` unless it is ASCII decimal digits alone.

    ``int()`` would also take signs, spaces, underscores and non-ASCII digits.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{name} must be an integer in ASCII decimal digits, got {text!r}")
    return int(text)


def _resolve_seed(args):
    if args.seed is not None:
        return _parse_integer(args.seed, "seed")
    env = os.environ.get(SEED_ENV_VAR)
    return 0 if env is None else _parse_integer(env, SEED_ENV_VAR)


def _config_from_args(args):
    default = _DEFAULT_RESTARTS.get(args.command, OptimizationConfig.restarts)
    restarts = default if args.restarts is None else _parse_integer(args.restarts, "restarts")
    return OptimizationConfig(restarts=restarts, seed=_resolve_seed(args))


def _report(command, inputs, results, residuals, warnings) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
        "residuals": residuals,
        "warnings": warnings,
    }


def run_table(args) -> dict:
    """Pairwise sharing bounds for three particles at d = 2, 3, 7."""
    config = _config_from_args(args)

    pair = reduced_density_matrix(w_state(3), (2, 2, 2), (0, 1))
    e2 = qubit_eof(pair)

    rho3 = singlet_pair_reduced(3)
    fit3 = werner_fit(rho3, 3)
    e3 = werner_values(fit3, rho3)[1]  # raises unless rho3 is Werner

    scan = maximize_pair_eof(config)
    warnings = []
    if scan.failed_restarts:
        warnings.append(f"{scan.failed_restarts} of {scan.restarts} restarts did not converge")

    rows = [
        {"d": 2, "n": 3, "e_bound": e2, "ratio": e2 / math.log2(2), "provenance": "known-bound"},
        {"d": 3, "n": 3, "e_bound": e3, "ratio": e3 / math.log2(3), "provenance": "closed-form"},
        {"d": 7, "n": 3, "e_bound": scan.e_star, "ratio": scan.e_star / math.log2(7), "provenance": "optimized"},
    ]
    inputs = {"seed": config.seed, "restarts": config.restarts}
    return _report("table", inputs, {"rows": rows, "a_star": scan.a_star}, {"werner_fit_d3": fit3.residual}, warnings)


def run_singlet(args) -> dict:
    """Werner fit, concurrence and E_f of the closed-form pair marginal."""
    d = _parse_integer(args.d, "d")
    rho = singlet_pair_reduced(d)
    fit = werner_fit(rho, d)  # the one validation of rho
    c, e_f = werner_values(fit, rho)  # raises unless rho is Werner
    results = {"d": d, "c": c, "a_w": fit.a_w, "b_w": fit.b_w, "e_f": e_f}
    residuals = {"werner_fit": fit.residual}
    if d <= 5:
        residuals["full_state_cross_check"] = singlet_cross_check(d, rho)
    return _report("singlet", {"d": d}, results, residuals, [])


def run_family(args) -> dict:
    """Span minimum and decomposition diagnostics at one aligned weight."""
    config = _config_from_args(args)
    # float() would also read spaces, underscores, non-ASCII digits, inf and nan.
    if not re.fullmatch(r"[+-]?([0-9]+(\.[0-9]+)?|\.[0-9]+)([eE][+-]?[0-9]+)?", args.a):
        raise ValueError(f"a must be a number in ASCII decimal notation, got {args.a!r}")
    family = ResidueFamily.from_a(float(args.a))
    result = min_span_entanglement(family.a, config)
    warnings = []
    if result.failed_restarts:
        warnings.append(f"{len(result.failed_restarts)} of {config.restarts} restarts did not converge")

    reconstruction, average_gap = orbit_certificate(result, family.a)

    results = {
        "b": family.b,
        "min_entanglement": result.value,
        "argmin": [[float(c), 0.0] for c in result.argmin],  # schema 1 keeps [re, im] pairs
        "restart_index": result.restart_index,
        "iterations_used": result.iterations_used,
        "nontrivial_minimizer": result.nontrivial_minimizer,
    }
    residuals = {"decomposition_reconstruction": reconstruction, "decomposition_average_gap": average_gap}
    inputs = {"a": family.a, "seed": config.seed, "restarts": config.restarts}
    return _report("family", inputs, results, residuals, warnings)


def run_verify(args) -> dict:
    """Run every invariant check; any failure drives a nonzero exit."""
    config = _config_from_args(args)
    checks = run_all_checks(config)
    failed = [c.name for c in checks if not c.passed]
    results = {
        "checks": [{"name": c.name, "passed": bool(c.passed), "detail": c.detail} for c in checks],
        "n_passed": len(checks) - len(failed),
        "n_failed": len(failed),
    }
    inputs = {"seed": config.seed, "restarts": config.restarts}
    return _report("verify", inputs, results, {}, [f"check failed: {name}" for name in failed])


def _fmt(value):
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def _render_text(report) -> str:
    lines = []
    command = report["command"]
    if command == "table":
        header = ["d", "n", "E_bound", "ratio", "provenance"]
        rows = [
            [str(r["d"]), str(r["n"]), _fmt(r["e_bound"]), _fmt(r["ratio"]), r["provenance"]]
            for r in report["results"]["rows"]
        ]
        widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(header)]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        lines.append(f"a_star = {_fmt(report['results']['a_star'])}")
    elif command == "verify":
        for check in report["results"]["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            lines.append(f"[{status}] {check['name']}: {check['detail']}")
        lines.append(
            f"{report['results']['n_passed']} passed, {report['results']['n_failed']} failed"
        )
    else:
        for key, value in report["results"].items():
            if key == "argmin":
                formatted = ", ".join(f"{re:+.4f}{im:+.4f}j" for re, im in value)
                lines.append(f"argmin = [{formatted}]")
            else:
                lines.append(f"{key} = {_fmt(value)}")
    for key, value in report.get("residuals", {}).items():
        lines.append(f"residual {key} = {value:.3e}")
    for message in report.get("warnings", []):
        lines.append(f"warning: {message}")
    return "\n".join(lines)


def _render_csv(report) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(CSV_HEADER)
    for row in report["results"]["rows"]:
        writer.writerow([row["d"], row["n"], repr(row["e_bound"]), repr(row["ratio"]), row["provenance"]])
    return buffer.getvalue().rstrip("\n")


def _emit(report, fmt) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    if fmt == "csv":
        return _render_csv(report)
    return _render_text(report)


@functools.cache  # one parser per process: a build is mostly gettext lookups, and parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qshare", description=__doc__)
    # Each subcommand takes only the flags it reads, so argparse rejects the rest.
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--seed", default=None, help=f"optimizer seed (default {SEED_ENV_VAR} or 0)")
    solver.add_argument("--restarts", default=None, help="multistart restarts per solve")
    # Only table offers csv.  Parents share their action objects, so resolving a
    # --format inherited from a shared parent in table would remove it everywhere.
    no_csv = argparse.ArgumentParser(add_help=False)
    no_csv.add_argument("--format", choices=["text", "json"], default="text")

    sub = parser.add_subparsers(dest="command", required=True)
    table = sub.add_parser("table", parents=[solver], help="sharing bounds for three particles at d = 2, 3, 7")
    table.add_argument("--format", choices=["text", "json", "csv"], default="text")
    singlet = sub.add_parser("singlet", parents=[no_csv], help="pair marginal of the d-particle collective singlet")
    singlet.add_argument("--d", default="3", help="particle count and level count")
    family = sub.add_parser("family", parents=[solver, no_csv], help="three-particle family at one aligned weight")
    family.add_argument("--a", default="0.461", help="aligned weight in [0, 1]")
    sub.add_parser("verify", parents=[solver, no_csv], help="run the self-verification suite")
    parser.set_defaults(subparsers=sub.choices)
    return parser


_RUNNERS = {"table": run_table, "singlet": run_singlet, "family": run_family, "verify": run_verify}


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:  # refused with the subcommand's usage line, which lists the flags it takes
        args.subparsers[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        report = _RUNNERS[args.command](args)
    except (ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(_emit(report, args.format), flush=True)
    except BrokenPipeError:  # the reader stopped reading; point stdout at devnull so the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if report["warnings"] else 0


if __name__ == "__main__":
    sys.exit(main())
