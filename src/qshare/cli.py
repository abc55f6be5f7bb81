"""Command-line interface.

Subcommands reproduce the headline numbers (``table``), report the collective
singlet pair marginals (``singlet``), solve the three-particle family at one
aligned weight (``family``), and run the self-verification suite
(``verify``).  Reports are emitted as aligned text, JSON, or CSV (table
only).  The environment variable ``QSHARE_SEED`` supplies the seed when
``--seed`` is absent.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from .checks import run_all_checks, singlet_cross_check
from .linalg import reduced_density_matrix
from .measures import qubit_eof, werner_concurrence, werner_eof, werner_fit
from .optimize import OptimizationConfig, maximize_pair_eof, min_span_entanglement, orbit_certificate
from .states import ResidueFamily, singlet_pair_reduced, w_state

__all__ = ["main", "run_table", "run_singlet", "run_family", "run_verify"]

SCHEMA_VERSION = 1
SEED_ENV_VAR = "QSHARE_SEED"
CSV_HEADER = ["d", "n", "e_bound", "ratio", "provenance"]

_DEFAULT_RESTARTS = {"table": 200, "family": 200, "verify": 30}


def _resolve_seed(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    return 0


def _config_from_args(args):
    restarts = args.restarts
    if restarts is None:
        restarts = _DEFAULT_RESTARTS.get(args.command, 200)
    return OptimizationConfig(restarts=restarts, seed=_resolve_seed(args))


def run_table(args) -> dict:
    """Pairwise sharing bounds for three particles at d = 2, 3, 7."""
    config = _config_from_args(args)

    pair = reduced_density_matrix(w_state(3), (2, 2, 2), (0, 1))
    e2 = qubit_eof(pair)

    rho3 = singlet_pair_reduced(3)
    fit3 = werner_fit(rho3, 3, args.tol)
    if fit3 is None:
        raise SystemExit("internal error: the d=3 closed-form marginal failed its Werner fit")
    e3 = werner_eof(rho3, 3, args.tol)

    scan = maximize_pair_eof(config, grid_step=args.grid_step)

    rows = [
        {"d": 2, "n": 3, "e_bound": e2, "ratio": e2 / math.log2(2), "provenance": "known-bound"},
        {"d": 3, "n": 3, "e_bound": e3, "ratio": e3 / math.log2(3), "provenance": "closed-form"},
        {"d": 7, "n": 3, "e_bound": scan.e_star, "ratio": scan.e_star / math.log2(7), "provenance": "optimized"},
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "table",
        "inputs": {
            "seed": config.seed,
            "restarts": config.restarts,
            "grid_step": args.grid_step,
            "tol": args.tol,
        },
        "results": {"rows": rows, "a_star": scan.a_star},
        "residuals": {"werner_fit_d3": fit3.residual},
        "warnings": [],
    }


def run_singlet(args) -> dict:
    """Werner fit, concurrence and E_f of the closed-form pair marginal."""
    d = args.d
    rho = singlet_pair_reduced(d)
    fit = werner_fit(rho, d, args.tol)
    warnings = []
    residuals = {}
    results = {"d": d, "c": werner_concurrence(rho, d)}
    if fit is None:
        warnings.append(f"pair marginal failed the Werner fit at tolerance {args.tol:g}")
        results["e_f"] = None
    else:
        residuals["werner_fit"] = fit.residual
        results.update({"a_w": fit.a_w, "b_w": fit.b_w, "e_f": werner_eof(rho, d, args.tol)})
    if d <= 5:
        residuals["full_state_cross_check"] = singlet_cross_check(d, rho)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "singlet",
        "inputs": {"d": d, "tol": args.tol},
        "results": results,
        "residuals": residuals,
        "warnings": warnings,
    }


def run_family(args) -> dict:
    """Span minimum and decomposition diagnostics at one aligned weight."""
    config = _config_from_args(args)
    family = ResidueFamily.from_a(args.a)
    result = min_span_entanglement(args.a, config)
    warnings = []
    if result.failed_restarts:
        warnings.append(f"{len(result.failed_restarts)} of {config.restarts} restarts did not converge")

    reconstruction, average_gap = orbit_certificate(result, args.a)

    return {
        "schema_version": SCHEMA_VERSION,
        "command": "family",
        "inputs": {
            "a": family.a,
            "seed": config.seed,
            "restarts": config.restarts,
        },
        "results": {
            "b": family.b,
            "min_entanglement": result.value,
            "argmin": [[float(c), 0.0] for c in result.argmin],  # schema 1 keeps [re, im] pairs
            "restart_index": result.restart_index,
            "iterations_used": result.iterations_used,
            "nontrivial_minimizer": result.nontrivial_minimizer,
        },
        "residuals": {
            "decomposition_reconstruction": reconstruction,
            "decomposition_average_gap": average_gap,
        },
        "warnings": warnings,
    }


def run_verify(args) -> dict:
    """Run every invariant check; any failure drives a nonzero exit."""
    config = _config_from_args(args)
    checks = run_all_checks(config, seed=_resolve_seed(args))
    failed = [c.name for c in checks if not c.passed]
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "inputs": {"seed": config.seed, "restarts": config.restarts},
        "results": {
            "checks": [{"name": c.name, "passed": bool(c.passed), "detail": c.detail} for c in checks],
            "n_passed": len(checks) - len(failed),
            "n_failed": len(failed),
        },
        "residuals": {},
        "warnings": [f"check failed: {name}" for name in failed],
    }


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


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


def _exit_code(report, strict) -> int:
    warnings = report.get("warnings", [])
    if any(w.startswith("check failed") for w in warnings):
        return 1
    if any("did not converge" in w for w in warnings):
        return 1
    if warnings and strict:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qshare", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help=f"optimizer seed (default {SEED_ENV_VAR} or 0)")
    common.add_argument("--restarts", type=int, default=None, help="multistart restarts per solve")
    common.add_argument("--tol", type=float, default=1e-10, help="Werner detection tolerance")
    common.add_argument("--strict", action="store_true", help="escalate warnings to a nonzero exit")
    # Only table offers csv.  Parents share their action objects, so resolving a
    # --format inherited from `common` in table would remove it everywhere.
    no_csv = argparse.ArgumentParser(add_help=False, parents=[common])
    no_csv.add_argument("--format", choices=["text", "json"], default="text")

    sub = parser.add_subparsers(dest="command", required=True)
    table = sub.add_parser("table", parents=[common], help="sharing bounds for three particles at d = 2, 3, 7")
    table.add_argument("--format", choices=["text", "json", "csv"], default="text")
    table.add_argument("--grid-step", type=float, default=0.005, help="coarse step of the aligned-weight scan")
    singlet = sub.add_parser("singlet", parents=[no_csv], help="pair marginal of the d-particle collective singlet")
    singlet.add_argument("--d", type=int, default=3, help="particle count and level count")
    family = sub.add_parser("family", parents=[no_csv], help="three-particle family at one aligned weight")
    family.add_argument("--a", type=float, default=0.461, help="aligned weight in [0, 1]")
    sub.add_parser("verify", parents=[no_csv], help="run the self-verification suite")
    return parser


_RUNNERS = {"table": run_table, "singlet": run_singlet, "family": run_family, "verify": run_verify}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = _RUNNERS[args.command](args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(_emit(report, args.format))
    return _exit_code(report, args.strict)


if __name__ == "__main__":
    sys.exit(main())
