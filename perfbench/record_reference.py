"""Record the reference outputs of every workload for a range of seeds.

Usage (from the repository root): python3 perfbench/record_reference.py FIRST LAST

Runs each workload's CLI invocation once per seed, through the same child
process as the benchmark, and stores in ``reference.json`` the SHA-256 of the
generated FCIDUMP and of the output, and the output values that checks.py
compares.  Run it only on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time

import checks
import inputs
import run


def record_seed(seed: int, integrals) -> dict:
    work = os.path.join(run.WORK, f"reference-seed{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = {}
    try:
        cache = os.path.join(work, "reference.cache")
        for name, w in run.WORKLOADS.items():
            out[name] = []
            for i in range(w.instances):
                fcidump = os.path.join(work, f"instance{i}.fcidump")
                mol = inputs.make_integrals(integrals, w.n, w.rank, seed, i)
                with open(fcidump, "w", encoding="ascii") as fh:
                    fh.write(integrals.write_fcidump(mol))
                # estimate_cold writes the cache that sweep_cached then reads.
                if w.kind == "estimate" and os.path.exists(cache):
                    os.remove(cache)
                args = run.qdf_args(w, fcidump, cache)
                _, text, err = run.invoke(work, name, args, trace=False,
                                          deadline=time.perf_counter() + run.RUN_LIMIT_S)
                if err:
                    raise RuntimeError(f"seed {seed} {name} instance {i}: {err}")
                out[name].append({
                    "input_sha256": inputs.sha256_file(fcidump),
                    "output_sha256": hashlib.sha256(text.encode("ascii")).hexdigest(),
                    "values": checks.round_floats(checks.digest(w.kind, text)),
                })
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return out


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    sys.path.insert(0, run.SRC)
    from qdf import integrals

    path = os.path.join(run.HERE, "reference.json")
    with open(path, encoding="ascii") as fh:
        reference = json.load(fh)
    for seed in range(first, last + 1):
        reference["seeds"][str(seed)] = record_seed(seed, integrals)
        print(f"seed {seed} recorded", flush=True)
    reference["seeds"] = dict(sorted(reference["seeds"].items(), key=lambda kv: int(kv[0])))
    with open(path, "w", encoding="ascii") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
