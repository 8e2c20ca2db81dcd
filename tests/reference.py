"""Loop references for the vectorised parser, the pivoted Cholesky, the
eigendecomposition step and the truncation kernel.

These are the earlier implementations, kept only as test oracles: the
per-line FCIDUMP parser, the rank-1-deflation Cholesky over a full copy of
the ERI supermatrix, the per-factor eigendecomposition with a per-vector sign
loop, and the object-form truncation (a Python list of scored eigenpairs,
sorted, admitted one at a time, filtered through a set).  The package must
reproduce them exactly (the same numbers, bit for bit, and the same errors
with the same line numbers).  Sums are explicit left-to-right loops, the order
of Python's ``sum`` before 3.12.
"""

from __future__ import annotations

import io
import math
import warnings

import numpy as np

from qdf.factorization import (
    EIGENVALUE_CUTOFF,
    PSD_TOLERANCE,
    DoubleFactorization,
    NotPositiveSemidefiniteError,
    SingleFactorization,
    eri_supermatrix,
)
from qdf.truncation import TruncationScheme
from qdf.integrals import (
    DUPLICATE_TOLERANCE,
    FcidumpError,
    MolecularIntegrals,
    _parse_header,
    canonical_orbit,
    orbit_members,
)


def single_factorize_deflation(m: MolecularIntegrals, tol: float = 1e-10,
                               psd_tol: float = PSD_TOLERANCE) -> SingleFactorization:
    """Pivoted Cholesky by rank-1 deflation of a full N^2 x N^2 copy."""
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    n = m.n_orbitals
    w = eri_supermatrix(m)
    factors: list[np.ndarray] = []

    for _ in range(n * n):
        diag = np.diagonal(w)
        if diag.min() < -psd_tol:
            q = int(np.argmin(diag))
            raise NotPositiveSemidefiniteError(
                f"residual diagonal {diag.min():.3e} at pair index {q} "
                f"is below -{psd_tol:.1e}; ERI supermatrix is not PSD"
            )
        q = int(np.argmax(diag))
        pivot = diag[q]
        if pivot <= tol:
            break
        col = w[:, q] / np.sqrt(pivot)
        factor = col.reshape(n, n)
        factor = 0.5 * (factor + factor.T)
        factors.append(factor)
        w -= np.outer(col, col)

    residual = float(np.abs(w).max()) if w.size else 0.0
    return SingleFactorization(factors=factors, residual_sup_norm=residual)


def parse_fcidump_lines(text) -> MolecularIntegrals:
    """Parse FCIDUMP text one line at a time."""
    if hasattr(text, "read"):
        text = text.read()
    lines = io.StringIO(text).read().splitlines()
    if not lines:
        raise FcidumpError("empty input")

    norb, nelec, body_start = _parse_header(lines)

    core = 0.0
    core_seen = False
    one: dict[tuple[int, int], float] = {}
    two: dict[tuple[int, int, int, int], float] = {}
    duplicates = 0

    def _store(store, key, value, lineno):
        nonlocal duplicates
        if key in store:
            if abs(store[key] - value) > DUPLICATE_TOLERANCE:
                raise FcidumpError(
                    f"duplicate entry for {key} conflicts: "
                    f"{store[key]!r} vs {value!r}",
                    line=lineno,
                )
            duplicates += 1
        store[key] = value

    for lineno0, raw in enumerate(lines[body_start:], start=body_start + 1):
        stripped = raw.strip()
        if not stripped:
            continue
        tokens = stripped.split()
        if len(tokens) != 5:
            raise FcidumpError(f"expected 'value i j k l', got {stripped!r}", line=lineno0)
        try:
            value = float(tokens[0].replace("D", "E").replace("d", "e"))
        except ValueError:
            raise FcidumpError(f"non-numeric value field {tokens[0]!r}", line=lineno0) from None
        try:
            i, j, k, l = (int(t) for t in tokens[1:])
        except ValueError:
            raise FcidumpError(f"non-integer index in {stripped!r}", line=lineno0) from None
        for idx in (i, j, k, l):
            if idx < 0 or idx > norb:
                raise FcidumpError(f"index {idx} out of range [0, {norb}]", line=lineno0)

        if i == j == k == l == 0:
            if core_seen and abs(core - value) > DUPLICATE_TOLERANCE:
                raise FcidumpError(
                    f"conflicting core energy: {core!r} vs {value!r}", line=lineno0
                )
            core = value
            core_seen = True
        elif k == 0 and l == 0 and i != 0:  # `v 0 j 0 0` is malformed, not h[j-1, -1]
            if j == 0:
                # Orbital-energy record emitted by some programs; not part of
                # the Hamiltonian.
                warnings.warn(
                    f"fcidump line {lineno0}: ignoring orbital-energy record for orbital {i}"
                )
                continue
            _store(one, (max(i, j) - 1, min(i, j) - 1), value, lineno0)
        elif 0 in (i, j, k, l):
            raise FcidumpError(
                f"malformed index pattern ({i} {j} {k} {l}): zeros are only "
                "allowed as trailing k=l=0 or the all-zero core record",
                line=lineno0,
            )
        else:
            _store(two, canonical_orbit(i - 1, j - 1, k - 1, l - 1), value, lineno0)

    if duplicates:
        warnings.warn(f"fcidump: {duplicates} duplicate entr(y/ies) overwritten (last wins)")

    h1 = np.zeros((norb, norb))
    for (a, b), v in one.items():
        h1[a, b] = v
        h1[b, a] = v
    h2 = np.zeros((norb, norb, norb, norb))
    for (a, b, c, d), v in two.items():
        for idx in orbit_members(a, b, c, d):
            h2[idx] = v

    m = MolecularIntegrals(norb, nelec, core, h1, h2)
    if not (np.isfinite(core) and np.isfinite(h1).all() and np.isfinite(h2).all()):
        raise FcidumpError("non-finite integral value")
    return m


def _fix_sign(vec: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Deterministic eigenvector sign: first component with |x| > tol is positive."""
    for x in vec:
        if abs(x) > tol:
            return vec if x > 0 else -vec
    return vec


def eigenpair_groups_loop(factors: list[np.ndarray]) -> list[list[tuple[float, np.ndarray]]]:
    """Per factor, the (eigenvalue, eigenvector) pairs that double_factorize
    keeps, sorted by descending |eigenvalue|, one factor and one vector at a
    time."""
    groups = []
    for factor in factors:
        vals, vecs = np.linalg.eigh(factor)
        order = np.argsort(-np.abs(vals), kind="stable")
        vals = vals[order]
        vecs = vecs[:, order]
        for c in range(vecs.shape[1]):
            vecs[:, c] = _fix_sign(vecs[:, c])
        cutoff = EIGENVALUE_CUTOFF * (np.abs(vals).max() if vals.size else 0.0)
        groups.append([(float(v), vecs[:, i].copy()) for i, v in enumerate(vals) if abs(v) > cutoff])
    return groups


def groups_of(df: DoubleFactorization) -> list[list[tuple[float, np.ndarray]]]:
    """The flat eigenpairs of ``df`` as one list of (eigenvalue, eigenvector)
    pairs per rank."""
    return [
        [(float(lam), vec) for lam, vec in zip(df.eigenvalues[lo:hi], df.eigenvectors[lo:hi])]
        for lo, hi in zip(df.offsets[:-1].tolist(), df.offsets[1:].tolist())
    ]


def _abs_sum(group) -> float:
    acc = 0.0
    for lam, _ in group:
        acc += abs(lam)
    return acc


def alpha_df_loop(one_body_eigenvalues: np.ndarray, groups) -> float:
    """alpha_DF = 2 ||l_minus1||_SH + 1/4 sum_r (sum_m |lambda_m^(r)|)^2."""
    two_body = 0.0
    for group in groups:
        two_body += _abs_sum(group) ** 2
    return 2.0 * float(np.abs(one_body_eigenvalues).sum()) + 0.25 * two_body


def _greedy_removal_count(scores: list[float], scheme: TruncationScheme, epsilon: float) -> int:
    """How many of the ascending ``scores`` the budget admits (inclusive)."""
    count = 0
    if scheme is TruncationScheme.COHERENT:
        acc = 0.0
        for s in scores:
            if acc + s <= epsilon:
                acc += s
                count += 1
            else:
                break
    else:
        acc_sq = 0.0
        for s in scores:
            if math.sqrt(acc_sq + s * s) <= epsilon:
                acc_sq += s * s
                count += 1
            else:
                break
    return count


def score_eigenpairs_loop(df: DoubleFactorization) -> list[tuple[tuple[int, int], float]]:
    """((r, m), score) of every eigenpair, sorted by (score, r, m)."""
    scored = [
        ((r, m), float(df.schatten_norms[r]) * abs(lam))
        for r, group in enumerate(groups_of(df))
        for m, (lam, _) in enumerate(group)
    ]
    scored.sort(key=lambda item: (item[1], item[0]))
    return scored


def truncate_loop(df: DoubleFactorization, scheme, epsilon: float) -> dict:
    """Object-form truncation: the removed (r, m) keys, both scores, the kept
    eigenpairs per surviving rank with their frozen norms, and alpha_DF."""
    scheme = TruncationScheme(str(scheme).lower())
    scored = score_eigenpairs_loop(df)
    removed = scored[: _greedy_removal_count([s for _, s in scored], scheme, epsilon)]
    removed_set = {key for key, _ in removed}

    kept_groups, kept_norms = [], []
    for r, group in enumerate(groups_of(df)):
        kept = [pair for m, pair in enumerate(group) if (r, m) not in removed_set]
        if kept:
            kept_groups.append(kept)
            kept_norms.append(float(df.schatten_norms[r]))
    coherent = 0.0
    sum_sq = 0.0
    for _, s in removed:
        coherent += s
        sum_sq += s * s
    return {
        "removed": [key for key, _ in removed],
        "coherent_score": coherent,
        "incoherent_score": math.sqrt(sum_sq),
        "groups": kept_groups,
        "schatten_norms": kept_norms,
        "alpha_df": alpha_df_loop(df.one_body_eigs[0], kept_groups),
    }
