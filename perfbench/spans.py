"""Span tracing of qshare from outside the program.

``Tracer.install`` replaces the public functions named in ``TRACED`` with
timing wrappers in every ``qshare.*`` module that binds them (``cli``,
``checks`` and ``measures`` import names directly, so patching the defining
module alone would miss those calls).  ``uninstall`` puts the originals back.

Each span records name, start, end, thread and parent span.  Parent stacks
are kept per thread because the CLI runs optimizer restarts in a thread pool.
Only the standard library is imported here, so tracing adds no packages to
the measured process.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time

# Layer (qshare module) -> public functions traced in it.
TRACED = {
    "cli": ("main", "run_table", "run_family", "run_singlet", "run_verify"),
    "optimize": (
        "min_span_entanglement",
        "maximize_pair_eof",
        "average_entanglement",
        "pair_eof",
        "span_entanglement",
    ),
    "states": ("ResidueFamily.from_a", "orbit_decomposition", "singlet_state", "singlet_pair_reduced"),
    "measures": ("werner_fit", "werner_concurrence", "werner_eof", "pure_entanglement", "qubit_eof"),
    "linalg": (
        "check_density_matrix",
        "swap_operator",
        "schmidt_spectrum",
        "reduced_density_matrix",
        "partial_trace",
        "hermitian_eigensystem",
    ),
    "checks": ("linalg_checks", "measure_checks", "family_checks", "singlet_checks", "optimizer_checks"),
}


def _eig_flops(args, kwargs, result):
    # The PSD test is a dense Hermitian eigendecomposition: ~n^3 operations.
    if not kwargs.get("psd", True):
        return {}
    n = len(args[0] if args else kwargs["rho"])
    return {"eig_flops": n**3}


def _swap_bytes(args, kwargs, result):
    d = int(args[0] if args else kwargs["d"])
    return {"bytes": 16 * d**4}


def _restarts(args, kwargs, result):
    return {"restarts": len(result.restart_values), "restarts_failed": len(result.failed_restarts)}


def _checks_failed(args, kwargs, result):
    return {"failed": sum(1 for check in result if not check.passed)}


# Counters computed at a span from its arguments or result.
COUNTERS = {
    "linalg.check_density_matrix": _eig_flops,
    "linalg.swap_operator": _swap_bytes,
    "optimize.min_span_entanglement": _restarts,
    **{f"checks.{name}": _checks_failed for name in TRACED["checks"]},
}


class Tracer:
    """Records spans of the traced qshare functions while installed."""

    def __init__(self):
        # Each span: [name, start, end, thread ident, parent index, counters].
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    def _wrap(self, name, func):
        counter = COUNTERS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, threading.get_ident(), stack[-1] if stack else None, None]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items()) if key == "qshare" or key.startswith("qshare.")]
        for layer, names in TRACED.items():
            module = importlib.import_module(f"qshare.{layer}")
            for name in names:
                if "." in name:
                    # A classmethod: patch the class attribute itself.
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    self._patches.append((cls, attr, original))
                    setattr(cls, attr, classmethod(self._wrap(f"{layer}.{name}", original.__func__)))
                    continue
                original = getattr(module, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
                        elif isinstance(value, dict):
                            # Dispatch tables such as ``cli._RUNNERS`` bind them too.
                            for entry, func in value.items():
                                if func is original:
                                    self._patches.append((value, entry, original))
                                    value[entry] = wrapper

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def wrapper_cost(calls=20000) -> float:
    """Seconds one traced call adds, timed on a wrapped no-op."""

    def noop():
        return None

    wrapped = Tracer()._wrap("calibration", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(0.0, (time.perf_counter() - start - bare) / calls)


def summarize(spans) -> dict:
    """Per-span ``calls``/``self_s``/``total_s`` and the derived layer metrics.

    Self time is a span's duration minus that of its direct children, which
    run on the same thread and so lie inside it.  ``total_s`` counts only the
    outermost span of a name, so recursion is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, _, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start

    def has_ancestor_named(index, name):
        parent = spans[index][4]
        while parent is not None:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][4]
        return False

    stats = {f"{layer}.{name}": {"calls": 0, "self_s": 0.0, "total_s": 0.0}
             for layer, names in TRACED.items() for name in names}
    counters = {}
    solve_ms = []
    for index, (name, start, end, _, _, extra) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[index]
        if not has_ancestor_named(index, name):
            entry["total_s"] += end - start
        for key, value in (extra or {}).items():
            counters[(name, key)] = counters.get((name, key), 0) + value
        if name == "optimize.min_span_entanglement":
            solve_ms.append(1e3 * (end - start))

    metrics = {}
    for name, entry in stats.items():
        for key, value in entry.items():
            metrics[f"{name}.{key}"] = value

    solve = stats["optimize.min_span_entanglement"]
    restarts = counters.get(("optimize.min_span_entanglement", "restarts"), 0)
    failed = counters.get(("optimize.min_span_entanglement", "restarts_failed"), 0)
    metrics["optimize.solve_ms_p50"] = statistics.median(solve_ms) if solve_ms else 0.0
    metrics["optimize.solve_ms_p95"] = _percentile(solve_ms, 95)
    metrics["optimize.restarts"] = restarts
    metrics["optimize.restart_us"] = 1e6 * solve["total_s"] / restarts if restarts else 0.0
    metrics["optimize.restarts_failed_ratio"] = failed / restarts if restarts else 0.0
    metrics["linalg.check_density_matrix.eig_flops"] = counters.get(("linalg.check_density_matrix", "eig_flops"), 0)
    metrics["linalg.swap_operator.bytes"] = counters.get(("linalg.swap_operator", "bytes"), 0)
    metrics["checks.failed"] = sum(counters.get((f"checks.{n}", "failed"), 0) for n in TRACED["checks"])
    return {"metrics": metrics, "solve_samples": len(solve_ms)}


def _percentile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
