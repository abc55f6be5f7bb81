"""The measured process: run one batch of qshare CLI invocations.

Reads a JSON job from stdin (``{"ops": [[argv...], ...], "trace": bool}``),
runs the operations one at a time through ``qshare.cli.main`` and writes one
JSON result to stdout.  Only the standard library and qshare are imported
(plus the stdlib-only tracer when tracing), so the process's time and memory
are qshare's.  ``qshare`` must come from the ``src`` directory given in
``QSHARE_SRC``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def _run(argv):
    import qshare.cli

    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = qshare.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the op failed; the batch goes on and counts it
        code, error = None, repr(exc)
    seconds = time.perf_counter() - start
    return {"argv": argv, "exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error,
            "seconds": seconds}


def _library_versions():
    import numpy

    blas = None
    with contextlib.suppress(AttributeError, KeyError, TypeError):
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    scipy = sys.modules.get("scipy")
    return {"numpy": numpy.__version__, "scipy": getattr(scipy, "__version__", None), "blas": blas}


def main():
    job = json.load(sys.stdin)
    src = os.path.realpath(os.environ["QSHARE_SRC"])
    import qshare.cli

    origin = os.path.realpath(qshare.cli.__file__)
    if not origin.startswith(src + os.sep):
        raise SystemExit(f"qshare was imported from {origin}, not from {src}")

    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    outcomes = [_run(argv) for argv in job["ops"]]
    wall_s = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "outcomes": outcomes,
        "wall_s": wall_s,
        "cpu_s": (after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        recorded = list(tracer.spans)
        # Warm-up: the first operation of this fresh process against the same
        # operation again in steady state, traced alike.
        again = _run(job["ops"][0])
        tracer.uninstall()
        result["rerun"] = [again]
        result["warmup_s"] = outcomes[0]["seconds"] - again["seconds"]
        result["trace"] = spans.summarize(recorded)
        result["trace_overhead_s"] = spans.wrapper_cost() * len(recorded)
    result["libraries"] = _library_versions()
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
