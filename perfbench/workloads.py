"""Benchmark workloads: the CLI argument lists each one runs, drawn from a seed.

Every operation is one ``qshare`` invocation given as an argv list.  Only
flags meant to last are passed (``--format``, ``--seed``, ``--restarts``,
``--a``, ``--d``); the thread-pool switch and the grid step are left at their
defaults, so ``scan`` always runs the table's default path.

Why these three:

- ``scan``: one full ``qshare table`` at the default grid.  The outer scan in
  ``optimize`` does almost all the work as many solves with few restarts
  each, so per-solve overhead and the number of solves show here.
- ``family``: single solves at the default 200 restarts, followed by the
  orbit certification in ``states``/``measures``; no outer scan.  Half of the
  aligned weights lie on the mixed branch around a = 1/2, half anywhere in
  [0, 1] (mostly the vertex branch).
- ``closed-forms``: the collective-singlet marginals up to large d, where
  dense d^2 x d^2 eigendecompositions in ``linalg`` dominate and ``optimize``
  is idle, followed by one ``qshare verify`` that loads ``checks``.

``family`` runs on request but is not listed in ``BENCHMARK.json``, whose
workloads must have no failing operation: with the current optimizer about
1% of ``qshare family`` calls exit 1, because one of the 200 restarts stops
on an L-BFGS-B line-search failure (``gtol`` is 1e-12) although it reached
the minimum, so a run of ten calls fails its check about one time in nine.
"""

from __future__ import annotations

import random

# Restarts per solve for ``scan``: well below the default 200 so that a traced
# run (two tables, about 45 s each on one CPU) ends within its time limit,
# yet enough that the peak lands within the acceptance tolerances.  Every
# grid point reuses the same restart starts, and with too few of them the
# minimizer can miss the vertex branch near a = 0.43.  Drawing start sets
# from 400 restarts at 61 weights in [0.35, 0.65], the check fails for 1.3%
# of sets at 30 restarts, 0.3% at 40 and 0.07% at 50.
SCAN_RESTARTS = 40

# Aligned weights pinned in ``family``: the peak and the balanced point, each
# with a reference value the report must reproduce.
FAMILY_PINNED = (0.461, 0.5)
FAMILY_MIXED_DRAWS = 4
FAMILY_MIXED_RANGE = (0.44, 0.56)
FAMILY_ANY_DRAWS = 4

CLOSED_FORMS_DMAX = 30

NAMES = ("scan", "family", "closed-forms")

# How many CPUs the measured processes of each workload may run on (None:
# all of the caller's).  ``scan`` and ``family`` run their restarts in the
# CLI's default thread pool: six threads passing the GIL back and forth,
# with BLAS's helper thread spinning beside them.  Spread over the two
# virtual CPUs of a shared host, that process waits on the rest of the host:
# tables of the same work took 52 to 72 s alone and 109 s beside one busy
# process, and with BLAS on one thread 48 to 93 s, the wall time at times
# 1.5 times the CPU time while half of the machine sat idle.  Held to one
# CPU, a table took 49.5 s beside another table, and over twenty seeds 34 to
# 50 s with the wall time within 3% of the CPU time.  So those two workloads
# measure the program on one CPU.  ``closed-forms`` keeps every CPU, because
# its dense d^2 x d^2 eigensolves are what BLAS threads are for.  The
# benchmark sets no BLAS thread variable; OpenBLAS sizes its thread pool
# from the CPUs it may use.
CPUS = {"scan": 1, "family": 1, "closed-forms": None}


def _program_seed(rng) -> int:
    # qshare seeds restart i from seed + i, so consecutive benchmark seeds
    # would share almost every start; spread them out instead.
    return rng.randrange(1_000_000)


def _stratified(rng, lo, hi, count):
    """One uniform draw from each of ``count`` equal slices of [lo, hi]."""
    width = (hi - lo) / count
    return [lo + width * (i + rng.random()) for i in range(count)]


def operations(name: str, seed: int) -> list[list[str]]:
    """The fixed batch of CLI invocations of workload ``name`` for ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "scan":
        return [["table", "--format", "json", "--restarts", str(SCAN_RESTARTS), "--seed", str(_program_seed(rng))]]
    if name == "family":
        weights = list(FAMILY_PINNED)
        weights += _stratified(rng, *FAMILY_MIXED_RANGE, FAMILY_MIXED_DRAWS)
        weights += _stratified(rng, 0.0, 1.0, FAMILY_ANY_DRAWS)
        rng.shuffle(weights)
        return [["family", "--format", "json", "--a", repr(a), "--seed", str(_program_seed(rng))] for a in weights]
    if name == "closed-forms":
        dims = list(range(2, CLOSED_FORMS_DMAX + 1))
        rng.shuffle(dims)
        ops = [["singlet", "--format", "json", "--d", str(d)] for d in dims]
        ops.append(["verify", "--format", "json", "--seed", str(_program_seed(rng))])
        return ops
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
