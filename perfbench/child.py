"""Run one ``qdf`` CLI invocation in this fresh process and report on it.

Usage: python3 child.py SRC_DIR RESULT_JSON STDOUT_FILE TRACE(0|1) -- QDF_ARGS...

The CLI's standard output goes to STDOUT_FILE.  RESULT_JSON receives the exit
code, the wall time of the ``qdf.cli.main`` call, this process's peak RSS
(``VmHWM``) and CPU time (``getrusage``), the BLAS thread count and, when
TRACE is 1, the spans recorded around the wrapped module functions.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import re
import resource
import sys
import time

# Thread-count getters of the OpenBLAS builds numpy and scipy ship.
_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads() -> dict:
    """Runtime thread count of each OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    except OSError:
        return {}
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process image.  ``getrusage(RUSAGE_SELF).ru_maxrss``
    is not used: Linux carries the parent's peak across fork and exec into it,
    so it would report the benchmark's own memory."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    src, result_path, stdout_path, trace = argv[:4]
    if argv[4] != "--":
        raise SystemExit("usage: child.py SRC RESULT STDOUT TRACE -- ARGS...")
    qdf_args = argv[5:]
    sys.path.insert(0, src)
    from qdf import cli, costmodel, factorization, integrals, oracle, truncation

    recorder = None
    if trace == "1":
        from spans import Recorder

        recorder = Recorder(invocation=os.path.basename(result_path))
        recorder.install({"cli": cli, "costmodel": costmodel, "factorization": factorization,
                          "integrals": integrals, "oracle": oracle, "truncation": truncation})

    with open(stdout_path, "w", encoding="ascii") as out, contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.main(qdf_args)
        wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "code": code,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "blas_threads": blas_threads(),
        "spans": recorder.spans if recorder else [],
    }
    with open(result_path, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
