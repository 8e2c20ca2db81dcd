"""In-memory spans around the public functions of each qdf module.

The benchmark measures the package from outside: for a traced invocation it
replaces selected names in each module's namespace with timing wrappers.
``qdf.cli`` and the modules themselves resolve those names through the module
at call time, so a wrapped function called from another wrapped function
records a child span.  Only the names in ``WRAPPED`` are wrapped; the hot
``lookup_*`` cost helpers are not, which keeps the overhead small.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

ROOT_SPAN = "cli.main"

# (module, function, span name, counters taken from the call).  The span name
# doubles as the stem of the per-layer metric (``<span>_s``, ``<span>_calls``).
WRAPPED = [
    ("cli", "main", ROOT_SPAN, None),
    ("integrals", "load_fcidump", "integrals.parse",
     lambda args, out: {"input_bytes": os.path.getsize(args[0])}),
    ("integrals", "validate_symmetry", "integrals.validate_symmetry", None),
    ("factorization", "single_factorize", "factorization.single_factorize",
     lambda args, out: {"rank_R": out.rank}),
    ("factorization", "double_factorize", "factorization.double_factorize",
     lambda args, out: {"rank_R": out.rank, "eigenpairs_M": out.total_eigenpairs}),
    ("factorization", "save_cache", "factorization.save_cache",
     lambda args, out: {"cache_bytes": os.path.getsize(args[1])}),
    ("factorization", "load_cache", "factorization.load_cache",
     lambda args, out: {"cache_bytes": os.path.getsize(args[0]), "rank_R": out.rank,
                        "eigenpairs_M": out.total_eigenpairs}),
    ("factorization", "reconstruct_two_body", "factorization.reconstruct_two_body", None),
    ("truncation", "truncate", "truncation.truncate",
     lambda args, out: {"pairs_removed": len(out[1].removed)}),
    ("truncation", "score_eigenpairs", "truncation.score_eigenpairs", None),
    ("costmodel", "estimate", "costmodel.estimate", None),
    ("costmodel", "walk_operator_cost", "costmodel.walk_operator_cost", None),
    ("oracle", "build_from_integrals", "oracle.build_from_integrals",
     lambda args, out: {"dense_dim": out.dim}),
    ("oracle", "build_from_df", "oracle.build_from_df",
     lambda args, out: {"dense_dim": out.dim}),
    ("oracle", "spectral_norm", "oracle.spectral_norm", None),
    ("oracle", "one_body_norm_check", "oracle.one_body_norm_check", None),
    ("oracle", "ground_energy", "oracle.ground_energy", None),
]


class Recorder:
    """Spans of one invocation: name, start, end, parent id and counters."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, counters):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "invocation": self.invocation,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counters is not None:
                span["counters"] = counters(args, out)
            return out

        return wrapper

    def install(self, modules: dict) -> None:
        """Replace every ``WRAPPED`` name in ``modules`` (name -> module)."""
        for mod_name, attr, span_name, counters in WRAPPED:
            module = modules[mod_name]
            setattr(module, attr, self.wrap(getattr(module, attr), span_name, counters))


def self_times(spans: list[dict]) -> dict:
    """Per span name: summed self time, call count, every counter value and
    the parent span names.  Self time is a span's duration minus its children's."""
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, dict] = {}
    for s in spans:
        entry = out.setdefault(s["name"], {"self_s": 0.0, "total_s": 0.0, "calls": 0,
                                            "counters": defaultdict(list), "parents": set()})
        dur = s["end"] - s["start"]
        entry["total_s"] += dur
        entry["self_s"] += dur - child_time[s["id"]]
        entry["calls"] += 1
        for key, val in s.get("counters", {}).items():
            entry["counters"][key].append(val)
        if s["parent"] is not None:
            entry["parents"].add(by_id[s["parent"]]["name"])
    return out


def check_accounting(spans: list[dict]) -> str | None:
    """The spans of one invocation form one tree under ``cli.main`` in which
    no child outlasts its parent, so the self times are non-negative and sum
    to the root's duration.  Returns a failure reason, or None."""
    roots = [s for s in spans if s["parent"] is None]
    if len(roots) != 1 or roots[0]["name"] != ROOT_SPAN:
        return f"expected one {ROOT_SPAN} root span, got {[s['name'] for s in roots]}"
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"], s)
        if not (parent["start"] <= s["start"] <= s["end"] <= parent["end"]):
            return f"span {s['name']} is not nested in its parent"
    for name, entry in self_times(spans).items():
        if entry["self_s"] < -1e-9:
            return f"{name} has negative self time {entry['self_s']:.3e} s"
    return None
