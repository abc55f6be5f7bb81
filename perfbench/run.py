"""qshare benchmark: time to solution of three CLI workloads, checked against references.

Usage, from the root of a qshare checkout::

    python3 perfbench/run.py --workload {scan,family,closed-forms} --seed N --seconds S --trace {0,1}

A run first measures set-up (fresh interpreters importing ``qshare.cli`` and
building its parser), then runs the workload's fixed batch of operations
(see ``workloads.py``) in fresh worker processes, one batch after another,
for about ``--seconds`` seconds: at least once, and at least three times
when three fit in twice that.  Each batch is a
single-client closed loop: one operation at a time through
``qshare.cli.main``.  Every report is checked against ``reference.py``.

With ``--trace 0`` the result carries the end-to-end metrics, medians over
the run.  With ``--trace 1`` the batches are traced (see ``spans.py``) and
the result carries the per-layer metrics.  The tracing overhead is the
wrapper's timed cost per call times the number of spans: the difference
between a traced and an untraced batch is smaller than the run-to-run noise
of a shared two-core machine (about 15%), and measuring it would add a
third table to a traced ``scan`` run, beyond its time limit.  The last line
of stdout is the result; the line before it gives the machine, the samples
and any failed checks.  The benchmark never sets BLAS thread variables; it
records them.  ``scan`` and ``family`` run on one CPU (see ``workloads.CPUS``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_STARTS = 3
MIN_BATCHES = 3
SETUP_PROBE = "import qshare.cli; qshare.cli.build_parser()"
# Every child process is stopped by this many seconds after the run began.
RUN_LIMIT_S = 178
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

_SUFFIX_UNITS = {
    ".calls": "count",
    "_s": "s",
    "_ms_p50": "ms",
    "_ms_p95": "ms",
    "_us": "us",
    "_ratio": "ratio",
    ".restarts": "count",
    ".eig_flops": "flop",
    ".bytes": "B",
    ".failed": "count",
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in _SUFFIX_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


class BenchmarkError(RuntimeError):
    pass


def _child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env["QSHARE_SRC"] = src
    return env


def _call(argv, env, deadline, stdin=None):
    timeout = max(1.0, deadline - time.perf_counter())
    proc = subprocess.run(argv, input=stdin, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchmarkError(f"{argv[1:3]} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def measure_setup(env, deadline) -> list[float]:
    """Seconds for fresh interpreters to import ``qshare.cli`` and build the parser."""
    probe = [sys.executable, "-c", SETUP_PROBE]
    _call(probe, env, deadline)  # byte-compiles the sources once, so every timed start is alike
    times = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        _call(probe, env, deadline)
        times.append(time.perf_counter() - start)
    return times


def import_times(env, deadline) -> dict:
    """``python -X importtime`` split: all of qshare's import, and scipy's share of it."""
    proc = _call([sys.executable, "-X", "importtime", "-c", "import qshare.cli"], env, deadline)
    return {
        "cli.import.qshare_s": _importtime_total(proc.stderr, "qshare"),
        "cli.import.scipy_s": _importtime_total(proc.stderr, "scipy"),
    }


def _importtime_total(log, package) -> float:
    """Cumulative seconds of the outermost imports of ``package`` in an importtime log."""
    rows = []
    for line in log.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        label = parts[2][1:]
        depth = (len(label) - len(label.lstrip())) // 2
        rows.append((depth, label.strip(), int(parts[1])))
    total = 0
    ancestors = []
    # The log lists children before their parent, so walk it backwards.
    for depth, name, cumulative_us in reversed(rows):
        del ancestors[depth:]
        ours = name == package or name.startswith(package + ".")
        if ours and not any(a == package or a.startswith(package + ".") for a in ancestors):
            total += cumulative_us
        ancestors.append(name)
    return total / 1e6


def run_batch(env, ops, trace, deadline) -> dict:
    job = json.dumps({"ops": ops, "trace": trace})
    proc = _call([sys.executable, os.path.join(HERE, "worker.py")], env, deadline, stdin=job)
    return json.loads(proc.stdout)


def score(outcomes) -> list[dict]:
    """The failed operations among ``outcomes``, each with its reasons."""
    failed = []
    for outcome in outcomes:
        if outcome["error"] is not None:
            problems = [f"raised {outcome['error']}"]
        else:
            problems = reference.failures(outcome["argv"], outcome["exit_code"], outcome["stdout"])
        if problems:
            failed.append({"argv": outcome["argv"], "problems": problems})
    return failed


def _git_commit(root):
    """The checked-out commit, read from ``.git`` without leaving the checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qshare", "cli.py")):
        print(f"error: no qshare sources under {src}; run from the root of a qshare checkout", file=sys.stderr)
        return 2

    ops = workloads.operations(args.workload, args.seed)
    env = _child_env(src)
    cpus_usable = len(os.sched_getaffinity(0))
    cpus = workloads.CPUS[args.workload]
    if cpus is not None:
        # The worker processes inherit this affinity.
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[-cpus:])
    load_start = os.getloadavg()
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        # Set-up is an end-to-end metric, so a traced run skips it and
        # measures the import split instead.
        setup = [] if args.trace else measure_setup(env, deadline)
        layers = import_times(env, deadline) if args.trace else {}
        batches, cycles = [], []
        begin = time.perf_counter()
        while True:
            cycle = time.perf_counter()
            batches.append(run_batch(env, ops, bool(args.trace), deadline))
            cycles.append(time.perf_counter() - cycle)
            finish = time.perf_counter() - begin + statistics.median(cycles)
            # One slow batch should not decide a median: an untraced run goes
            # past --seconds to reach MIN_BATCHES while they fit in twice it.
            # A ``scan`` table (about 45 s) fits once in a run of 30 s.
            enough = args.trace or len(batches) >= MIN_BATCHES or finish > 2 * args.seconds
            if finish > args.seconds and enough:
                break
    except (BenchmarkError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    outcomes = [o for b in batches for o in b["outcomes"] + b.get("rerun", [])]
    failed = score(outcomes)
    attempted = len(outcomes)

    if args.trace:
        summaries = [b["trace"]["metrics"] for b in batches]
        layers.update({name: statistics.median(s[name] for s in summaries) for name in summaries[0]})
        layers["cli.warmup_s"] = statistics.median(b["warmup_s"] for b in batches)
        layers["trace.overhead_s"] = statistics.median(b["trace_overhead_s"] for b in batches)
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in sorted(layers.items())}
    else:
        end_to_end = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(b["wall_s"] for b in batches),
            "cpu_s": statistics.median(b["cpu_s"] for b in batches),
            "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in batches),
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in end_to_end.items()}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "operations_per_batch": len(ops),
        "traced": bool(args.trace),
        "batches": len(batches),
        "setup_samples_s": setup,
        "wall_samples_s": [b["wall_s"] for b in batches],
        "cpu_samples_s": [b["cpu_s"] for b in batches],
        "solve_samples": [b["trace"]["solve_samples"] for b in batches if "trace" in b],
        "error_rate": len(failed) / attempted,
        "failures": failed[:20],
        "machine": {
            "nproc": os.cpu_count(),
            "cpus_usable": cpus_usable,
            "cpus_measured": sorted(os.sched_getaffinity(0)),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
            "python": platform.python_version(),
            **batches[0]["libraries"],
            "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
            "git_commit": _git_commit(root),
        },
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
