"""Benchmark of the qdf CLI on seeded synthetic integrals.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Load model: a closed loop with one client.  Each operation is one CLI
invocation (``qdf.cli.main``) in a fresh child process, started only after the
previous one ended; the loop runs for ``--seconds`` and for at least
MIN_SAMPLES invocations.  ``QDF_THREADS`` is unset in the child, so the sweep
uses one worker, and BLAS keeps its default of one thread per core.

Before the loop the workload's inputs are set up ``setup_reps`` times from
the seed; ``setup_s`` is the median.  Every output is checked (see checks.py); an
invocation fails on a non-zero exit code or a failed check.

With ``--trace 0`` the last line reports the end-to-end metrics: the median
wall time of the ``cli.main`` call, the median peak RSS of the child and the
median set-up time.  With ``--trace 1`` untraced and traced invocations
alternate, the traced ones wrap each module's public functions (spans.py),
and the last line reports per-layer self times, counts and the tracing
overhead.  The spans are written to ``perfbench/_work/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from statistics import median

import numpy
import scipy

import checks
import inputs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
CHILD = os.path.join(HERE, "child.py")

MIN_SAMPLES = 3
# A run must end within three minutes: every child is killed at RUN_LIMIT_S
# after the start, and none starts in the last LAST_START_MARGIN_S.
RUN_LIMIT_S = 165.0
LAST_START_MARGIN_S = 40.0
SWEEP_GRID = "1e-5:1e0:128"


@dataclass(frozen=True)
class Workload:
    kind: str  # estimate | sweep | validate
    n: int
    rank: int
    setup_reps: int
    instances: int  # invocation k reads input k % instances


# N=36, R=360 keeps the paper's R = 10 N ratio (N=54, R=540 there) at a
# 223k-line FCIDUMP, so that one run holds several invocations.  N=4 is the
# largest dense-oracle instance whose validate call takes about a second.  Its
# inputs take under a millisecond to make, so it cycles through 8 of them,
# which also makes its set-up long enough to time steadily.
WORKLOADS = {
    "estimate_cold": Workload("estimate", 36, 360, 3, 1),
    "sweep_cached": Workload("sweep", 36, 360, 3, 1),
    "validate_n4": Workload("validate", 4, 10, 9, 8),
}

END_TO_END = [("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = [(f"{span}_s", "s") for _, _, span, _ in spans.WRAPPED if span != spans.ROOT_SPAN]
    names += [(f"{span}_calls", "count") for span in (
        "truncation.truncate", "costmodel.estimate", "costmodel.walk_operator_cost",
        "oracle.build_from_df", "oracle.spectral_norm")]
    names += [
        ("integrals.write_fcidump_s", "s"), ("integrals.input_lines", "count"),
        ("integrals.input_bytes", "bytes"), ("factorization.cholesky_flops_computed", "flop"),
        ("factorization.cholesky_bytes_computed", "bytes"), ("factorization.cache_bytes", "bytes"),
        ("factorization.rank_R", "count"), ("factorization.eigenpairs_M", "count"),
        ("truncation.pairs_removed", "count"), ("oracle.dense_dim", "count"),
        ("cli.main_s", "s"), ("cli.self_s", "s"), ("cli.output_bytes", "bytes"),
        ("process.cpu_s", "s"), ("process.blas_threads", "count"),
        ("trace.overhead_frac", "ratio"), ("check.byte_identical_outputs", "count"),
    ]
    return names


def environment(blas_threads: dict) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "blas_threads_runtime": blas_threads,
        "thread_env": {k: os.environ.get(k, "unset") for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "QDF_THREADS": "unset in the child (one sweep worker)",
    }


def invoke(work: str, tag: str, qdf_args: list[str], trace: bool, deadline: float):
    """Run one CLI invocation in a fresh process, killed at ``deadline``
    (``time.perf_counter()``).  Returns (result, stdout text, failure reason
    or None)."""
    result_path = os.path.join(work, f"{tag}.result.json")
    stdout_path = os.path.join(work, f"{tag}.stdout")
    env = {k: v for k, v in os.environ.items() if k != "QDF_THREADS"}
    cmd = [sys.executable, CHILD, SRC, result_path, stdout_path, "1" if trace else "0", "--",
           *qdf_args]
    try:
        proc = subprocess.run(cmd, env=env, cwd=work, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        return None, "", "killed at the run's time limit"
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
        return None, "", f"child exited {proc.returncode}: {tail[0]}"
    with open(result_path, encoding="ascii") as fh:
        result = json.load(fh)
    with open(stdout_path, encoding="ascii") as fh:
        text = fh.read()
    os.remove(result_path)
    os.remove(stdout_path)
    if result["code"] != 0:
        err = proc.stderr.decode(errors="replace").strip()
        return result, text, f"qdf exited {result['code']}: {err}"
    return result, text, None


def qdf_args(w: Workload, fcidump: str, cache: str | None) -> list[str]:
    if w.kind == "estimate":
        return ["estimate", "--fcidump", fcidump, "--cache", cache, "--format", "json"]
    if w.kind == "sweep":
        return ["sweep", "--fcidump", fcidump, "--cache", cache, "--grid", SWEEP_GRID,
                "--format", "json"]
    return ["validate", "--fcidump", fcidump]


def set_up(w: Workload, seed: int, work: str, qdf_modules, deadline: float) -> dict:
    """Generate the inputs ``w.setup_reps`` times; every repetition must
    produce the same FCIDUMP files.  For the sweep the cache is built by the
    CLI itself, so it follows whatever format the program ships."""
    integrals = qdf_modules["integrals"]
    fcidumps = [os.path.join(work, f"instance{i}.fcidump") for i in range(w.instances)]
    cache = os.path.join(work, "setup.cache")
    times, write_times, digests, errors = [], [], set(), []
    for rep in range(w.setup_reps):
        # Unlink rather than overwrite: truncating a file that is still being
        # written back makes the file system flush it, which is not set-up work.
        for path in [cache, *fcidumps]:
            if os.path.exists(path):
                os.remove(path)
        start = time.perf_counter()
        mols, write_s = [], 0.0
        for i, path in enumerate(fcidumps):
            mols.append(inputs.make_integrals(integrals, w.n, w.rank, seed, i))
            write_start = time.perf_counter()
            text = integrals.write_fcidump(mols[-1])
            write_s += time.perf_counter() - write_start
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
        if w.kind == "sweep":
            args = qdf_args(WORKLOADS["estimate_cold"], fcidumps[0], cache)
            _, _, err = invoke(work, f"setup{rep}", args, trace=False, deadline=deadline)
            if err or not os.path.exists(cache):
                errors.append(f"cache build failed: {err}")
        times.append(time.perf_counter() - start)
        write_times.append(write_s)
        digests.add(tuple(inputs.sha256_file(path) for path in fcidumps))
    if len(digests) != 1:
        errors.append("set-up is not deterministic: an FCIDUMP differs between repetitions")
    return {
        "fcidumps": fcidumps, "cache": cache if w.kind == "sweep" else None, "mols": mols,
        "times": times, "write_times": write_times, "input_sha256": list(digests.pop()),
        "input_lines": text.count("\n"), "errors": errors,
    }


def load_reference(name: str, seed: int) -> list[dict] | None:
    """One entry per input instance, or None if the seed was not recorded."""
    path = os.path.join(HERE, "reference.json")
    with open(path, encoding="ascii") as fh:
        seeds = json.load(fh)["seeds"]
    return seeds.get(str(seed), {}).get(name)


def run_workload(name: str, seed: int, seconds: float, trace: bool, qdf_modules, schemas):
    deadline = time.perf_counter() + RUN_LIMIT_S
    w = WORKLOADS[name]
    work = os.path.join(WORK, f"{name}-seed{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setup = set_up(w, seed, work, qdf_modules, deadline)
        if setup["errors"]:
            raise RuntimeError(f"{name}: set-up failed: {'; '.join(setup['errors'])}")
        reference = load_reference(name, seed)
        untraced, traced, failures = [], [], []
        first_outputs, output_bytes, identical, same = {}, [], 0, 0
        attempted = 0
        start = time.perf_counter()
        while True:
            now = time.perf_counter()
            enough = len(untraced) >= MIN_SAMPLES and (not trace or len(traced) >= MIN_SAMPLES)
            if (now - start >= seconds and enough) or now >= deadline - LAST_START_MARGIN_S:
                break
            traced_call = trace and attempted % 2 == 1
            instance = attempted % w.instances
            ref = reference[instance] if reference else None
            tag = f"call{attempted}"
            cache = os.path.join(work, f"{tag}.cache") if w.kind == "estimate" else setup["cache"]
            cache_stat = os.stat(cache) if w.kind == "sweep" else None
            attempted += 1
            args = qdf_args(w, setup["fcidumps"][instance], cache)
            result, text, err = invoke(work, tag, args, traced_call, deadline)
            errors = [err] if err else []
            if not errors:
                errors += checks.check_output(w.kind, text, schemas, ref)
                if w.kind == "estimate":
                    errors += checks.check_cache(qdf_modules["factorization"], cache,
                                                 setup["mols"][instance].two_body, seed)
                    os.remove(cache)
                if w.kind == "sweep":
                    after = os.stat(cache)
                    if (after.st_size, after.st_mtime_ns) != (cache_stat.st_size, cache_stat.st_mtime_ns):
                        errors.append("the sweep rewrote its cache")
                if traced_call:
                    reason = spans.check_accounting(result["spans"])
                    if reason:
                        errors.append(f"trace: {reason}")
            if errors:
                failures.append(f"{tag}: " + "; ".join(errors))
            if result is None:
                continue
            # A completed call is timed even when its output fails a check.
            (traced if traced_call else untraced).append(result)
            output_bytes.append(len(text.encode("ascii")))
            digest = hashlib.sha256(text.encode("ascii")).hexdigest()
            first_outputs.setdefault(instance, digest)
            same += digest == first_outputs[instance]
            if ref and digest == ref["output_sha256"]:
                identical += 1
        if not untraced or (trace and not traced):
            raise RuntimeError(f"{name}: no invocation completed; {failures[:3]}")

        lines = [f"workload {name} seed {seed}: {attempted} invocations "
                 f"({len(untraced)} untraced, {len(traced)} traced), {len(failures)} failed, "
                 f"error_rate {len(failures)}/{attempted} = {len(failures) / attempted:.3g}"]
        lines += [f"  FAILED {f}" for f in failures]
        n_done = len(output_bytes)
        if reference:
            inputs_match = setup["input_sha256"] == [r["input_sha256"] for r in reference]
            lines.append(f"  reference: {identical}/{n_done} outputs byte-identical; input "
                         f"sha256 {'matches' if inputs_match else 'differs'}")
        else:
            lines.append(f"  reference: none recorded for seed {seed}; content checks only")
        lines.append(f"  {same}/{n_done} outputs byte-identical to the run's first on the same input")

        env = environment(untraced[0]["blas_threads"])
        walls = [r["wall_s"] for r in untraced]
        if not trace:
            samples = {
                "wall_s": walls,
                "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
                "setup_s": setup["times"],
            }
            metrics = {key: float(median(values)) for key, values in samples.items()}
            for key, unit in END_TO_END:
                values = samples[key]
                lines.append(f"  {key:12s} {metrics[key]:.6g} {unit}  median of {len(values)} samples "
                             f"(min {min(values):.6g}, max {max(values):.6g})")
            units = dict(END_TO_END)
        else:
            metrics, parents = layer_metrics(w, setup, untraced, traced, output_bytes, identical)
            units = dict(per_layer_names())
            for key in metrics:
                parent = f"  (self time, parent {parents[key]})" if key in parents else ""
                lines.append(f"  {key:42s} {metrics[key]:.6g} {units[key]}{parent}")
            write_trace(name, seed, env, traced)
        lines.append("  env " + json.dumps(env, sort_keys=True))
        report = {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        return report, lines
    finally:
        shutil.rmtree(work, ignore_errors=True)


def layer_metrics(w, setup, untraced, traced, output_bytes, identical):
    """Per-layer medians over the traced invocations, and each timed span's
    parent name."""
    aggs = [spans.self_times(r["spans"]) for r in traced]

    def med(fn) -> float:
        return float(median(fn(a) for a in aggs))

    def counter(agg, span, key, combine=max):
        values = agg.get(span, {}).get("counters", {}).get(key, [])
        return combine(values) if values else 0

    def first_counter(agg, key, spans_in_order):
        for span in spans_in_order:
            value = counter(agg, span, key)
            if value:
                return value
        return 0

    metrics, parents = {}, {}
    for _, _, span, _ in spans.WRAPPED:
        if span == spans.ROOT_SPAN:
            continue
        metrics[f"{span}_s"] = med(lambda a: a.get(span, {}).get("self_s", 0.0))
        parent_names = set().union(*(a[span]["parents"] for a in aggs if span in a))
        if parent_names:
            parents[f"{span}_s"] = ", ".join(sorted(parent_names))
    for span in ("truncation.truncate", "costmodel.estimate", "costmodel.walk_operator_cost",
                 "oracle.build_from_df", "oracle.spectral_norm"):
        metrics[f"{span}_calls"] = med(lambda a: a.get(span, {}).get("calls", 0))

    rank = med(lambda a: counter(a, "factorization.single_factorize", "rank_R"))
    n = w.n
    metrics["integrals.write_fcidump_s"] = float(median(setup["write_times"]))
    parents["integrals.write_fcidump_s"] = "benchmark set-up"
    metrics["integrals.input_lines"] = setup["input_lines"]
    metrics["integrals.input_bytes"] = med(lambda a: counter(a, "integrals.parse", "input_bytes"))
    # Computed, not counted: each of the R rank-1 deflation steps makes an
    # N^2 x N^2 outer product and subtracts it (2 N^4 flops; 4 passes of
    # 8-byte words), plus the supermatrix copy and the final residual scan.
    metrics["factorization.cholesky_flops_computed"] = 2 * rank * n**4
    metrics["factorization.cholesky_bytes_computed"] = (32 * rank + 32) * n**4 if rank else 0
    metrics["factorization.cache_bytes"] = med(lambda a: first_counter(
        a, "cache_bytes", ("factorization.save_cache", "factorization.load_cache")))
    source = ("factorization.double_factorize", "factorization.load_cache")
    metrics["factorization.rank_R"] = med(lambda a: first_counter(a, "rank_R", source))
    metrics["factorization.eigenpairs_M"] = med(lambda a: first_counter(a, "eigenpairs_M", source))
    metrics["truncation.pairs_removed"] = med(
        lambda a: counter(a, "truncation.truncate", "pairs_removed", combine=sum))
    metrics["oracle.dense_dim"] = med(lambda a: first_counter(
        a, "dense_dim", ("oracle.build_from_df", "oracle.build_from_integrals")))
    metrics["cli.main_s"] = med(lambda a: a[spans.ROOT_SPAN]["total_s"])
    metrics["cli.self_s"] = med(lambda a: a[spans.ROOT_SPAN]["self_s"])
    parents["cli.self_s"] = "none (root)"
    metrics["cli.output_bytes"] = float(median(output_bytes))
    metrics["process.cpu_s"] = float(median(r["cpu_s"] for r in untraced))
    metrics["process.blas_threads"] = max(untraced[0]["blas_threads"].values(), default=0)
    metrics["trace.overhead_frac"] = (
        median(r["wall_s"] for r in traced) / median(r["wall_s"] for r in untraced) - 1.0)
    metrics["check.byte_identical_outputs"] = identical
    order = [name for name, _ in per_layer_names()]
    return {k: metrics[k] for k in order}, parents


def write_trace(name: str, seed: int, env: dict, traced: list[dict]) -> None:
    """Spans of every traced invocation, one JSON object per line."""
    out_dir = os.path.join(WORK, "traces")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}-seed{seed}.jsonl"), "w", encoding="ascii") as fh:
        fh.write(json.dumps({"workload": name, "seed": seed, "env": env}) + "\n")
        for r in traced:
            for s in r["spans"]:
                fh.write(json.dumps(s) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "qdf", "cli.py")):
        sys.stderr.write(f"error: no qdf package under {SRC}; run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, SRC)
    try:
        from qdf import factorization, integrals
        schemas = checks.load_schemas(SRC)
    except ImportError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    modules = {"integrals": integrals, "factorization": factorization}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = {}
    for name in names:
        try:
            report, lines = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         modules, schemas)
        except RuntimeError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 1
        print("\n".join(lines), flush=True)
        reports[name] = report
    if len(names) == 1:
        final = reports[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {f"{n}.{k}": v for n, r in reports.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
