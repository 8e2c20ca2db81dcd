"""Checks on the outputs of one CLI invocation.

Every check returns a list of failure reasons; an empty list means the output
is correct.  Reference values come from ``reference.json``, recorded per seed
with ``record_reference.py``.  Integers and strings must match exactly and
floats to the workload's relative tolerance.  Byte identity with the
reference is reported separately and never fails a run.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# Relative tolerance on reference floats.  The estimate and sweep print full
# repr() floats; validate prints 6 significant digits.
FLOAT_RTOL = {"estimate": 1e-9, "sweep": 1e-9, "validate": 1e-5}
FLOAT_ATOL = 1e-12
# Significant digits kept when recording reference floats.
REFERENCE_DIGITS = 12

CACHE_SAMPLES = 300
CACHE_ATOL = 1e-8

VALIDATE_CHECKS = [
    "validate_symmetry", "factorization_reconstruction", "representation_identity",
    "particle_number_symmetry", "one_body_norm_identity", "alpha_dominates_spectral_norm",
    "truncation_soundness",
]


def load_schemas(src: str) -> dict:
    import jsonschema

    out = {}
    for kind, name in (("estimate", "cost_report"), ("sweep", "sweep")):
        with open(os.path.join(src, "qdf", "schemas", f"{name}.schema.json"), encoding="ascii") as fh:
            out[kind] = jsonschema.Draft202012Validator(json.load(fh))
    return out


def digest(kind: str, text: str):
    """The values of an output that the reference pins, or raises ValueError."""
    if kind == "estimate":
        return json.loads(text)
    if kind == "sweep":
        payload = json.loads(text)
        rows = payload["rows"]
        columns = {key: [row[key] for row in rows] for key in rows[0]} if rows else {}
        return {"schema": payload["schema"], "scheme": payload["scheme"], "columns": columns}
    status, numbers = {}, []
    for line in text.splitlines():
        name, flag, detail = line.split(None, 2)
        status[name] = flag
        if name == "alpha_dominates_spectral_norm":
            # "||H - shift|| = 11.9474 vs alpha_df = 19.2398"
            numbers = [float(detail.split("=")[1].split()[0]), float(detail.split("=")[2])]
    return {"status": status, "alpha_check": numbers}


def round_floats(value):
    """``value`` with every float rounded to REFERENCE_DIGITS significant digits."""
    if isinstance(value, float):
        return float(f"{value:.{REFERENCE_DIGITS}g}")
    if isinstance(value, dict):
        return {k: round_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [round_floats(v) for v in value]
    return value


def compare(got, want, rtol: float, path: str = "") -> list[str]:
    """Differences between ``got`` and the reference ``want``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path or '/'}: keys differ from the reference"]
        return [e for k in want for e in compare(got[k], want[k], rtol, f"{path}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs from the reference"]
        return [e for i, (g, w) in enumerate(zip(got, want)) for e in compare(g, w, rtol, f"{path}/{i}")]
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return [f"{path}: {got!r} is not a number"]
        if not math.isclose(got, want, rel_tol=rtol, abs_tol=FLOAT_ATOL):
            return [f"{path}: {got!r} differs from the reference {want!r} beyond rtol {rtol:g}"]
        return []
    if got != want or type(got) is not type(want):
        return [f"{path}: {got!r} != reference {want!r}"]
    return []


def check_output(kind: str, text: str, schemas: dict, reference: dict | None) -> list[str]:
    """Schema, content and reference checks of one CLI output."""
    try:
        values = digest(kind, text)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable {kind} output: {exc}"]
    errors = []
    if kind in schemas:
        errors += [f"schema: {e.message}" for e in schemas[kind].iter_errors(json.loads(text))]
    if kind == "sweep":
        m_column = values["columns"].get("M", [])
        if any(b > a for a, b in zip(m_column, m_column[1:])):
            errors.append("sweep: M grows with epsilon")
    if kind == "validate":
        if list(values["status"]) != VALIDATE_CHECKS:
            errors.append(f"validate: checks {list(values['status'])}")
        errors += [f"validate: {n} printed {s}" for n, s in values["status"].items() if s != "PASS"]
    if reference is not None:
        errors += compare(values, reference["values"], FLOAT_RTOL[kind])
    return errors


def check_cache(factorization_module, cache_path: str, two_body: np.ndarray, seed: int) -> list[str]:
    """Rebuild sum_r L^(r)_ij L^(r)_kl from the cached eigenpairs at sampled
    (ij, kl) and compare it with the generating tensor."""
    try:
        df = factorization_module.load_cache(cache_path)
    except (OSError, ValueError) as exc:
        return [f"cache unreadable: {exc}"]
    n = two_body.shape[0]
    if df.n_orbitals != n:
        return [f"cache has N={df.n_orbitals}, input has N={n}"]
    factors = np.stack([df.factor_matrix(r).reshape(-1) for r in range(df.rank)])
    rng = np.random.default_rng([seed, CACHE_SAMPLES])
    ij = rng.integers(0, n * n, CACHE_SAMPLES)
    kl = rng.integers(0, n * n, CACHE_SAMPLES)
    rebuilt = np.einsum("rs,rs->s", factors[:, ij], factors[:, kl])
    want = two_body.reshape(n * n, n * n)[ij, kl]
    err = float(np.abs(rebuilt - want).max())
    if not err <= CACHE_ATOL:
        return [f"cache reconstruction error {err:.3e} > {CACHE_ATOL:g} at sampled (ij, kl)"]
    return []
