"""Loop references for the vectorised parser and writer, the pivoted Cholesky,
the eigendecomposition step, the truncation kernel, the lambda scan and the
dense oracle.

These are the earlier implementations, kept only as test oracles: the
per-line FCIDUMP parser, the quadruple-loop FCIDUMP writer, the
rank-1-deflation Cholesky over a full copy of the ERI supermatrix, the
per-factor eigendecomposition with a per-vector sign loop, the object-form
truncation (a Python list of scored eigenpairs, sorted, admitted one at a
time, filtered through a set) and the full lambda scan of
``costmodel.estimate``.  The package must reproduce them exactly (the same
numbers and bytes, bit for bit, and the same errors with the same line
numbers).  Sums are explicit left-to-right loops, the order of Python's
``sum`` before 3.12.  The exception is the rebuild of each factor L^(r) one
eigenpair outer product at a time and of the two-electron tensor one rank at
a time: the package forms both as matrix products, which sum in another
order, so they are compared within a tolerance.

The dense-oracle reference is the complex Jordan-Wigner backend: mode
operators as Kronecker chains of 2x2 matrices, every term of the Hamiltonian
added as its own sparse product, full-matrix spectra.  The package's real,
gathered, sector-blocked oracle sums in another order, so it is compared to
this one within a tolerance, not bit for bit.  ``df_fragments``, the input of
the product-formula bound, is built here from the package's public
``majorana_pair_matrix``.
"""

from __future__ import annotations

import io
import math
import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from qdf.costmodel import (
    LAMBDA_SCAN_MAX,
    CostReport,
    ErrorBudget,
    closed_form_walk_toffoli,
    pe_repetitions,
    walk_operator_cost,
)
from qdf.factorization import (
    EIGENVALUE_CUTOFF,
    PSD_TOLERANCE,
    DoubleFactorization,
    NotPositiveSemidefiniteError,
    SingleFactorization,
)
from qdf.oracle import majorana_pair_matrix
from qdf.truncation import TruncationScheme
from qdf.integrals import (
    DUPLICATE_TOLERANCE,
    FcidumpError,
    MolecularIntegrals,
    _parse_header,
    canonical_orbit,
)


def orbit_members(i: int, j: int, k: int, l: int) -> set[tuple[int, int, int, int]]:
    """All index tuples related to (i, j, k, l) by the 8-fold symmetry."""
    return {
        (i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
        (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i),
    }


def single_factorize_deflation(m: MolecularIntegrals, tol: float = 1e-10) -> SingleFactorization:
    """Pivoted Cholesky by rank-1 deflation of a full N^2 x N^2 copy."""
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    n = m.n_orbitals
    w = m.two_body.reshape(n * n, n * n).copy()
    factors: list[np.ndarray] = []
    psd_tol = PSD_TOLERANCE * max(float(np.diagonal(w).max()), 0.0)

    for _ in range(n * n):
        diag = np.diagonal(w)
        if diag.min() < -psd_tol:
            q = int(np.argmin(diag))
            raise NotPositiveSemidefiniteError(
                f"residual diagonal {diag.min():.3e} at pair index {q} "
                f"is below -{psd_tol:.3e}; ERI supermatrix is not PSD"
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


def write_fcidump_loop(m: MolecularIntegrals) -> str:
    """FCIDUMP text with one f-string per value, over the canonical orbits
    in a quadruple loop."""
    n = m.n_orbitals
    out = [
        f"&FCI NORB={n},NELEC={m.n_electrons},MS2=0,",
        " ORBSYM=" + ",".join(["1"] * n) + ",",
        " ISYM=1,",
        "&END",
    ]

    def fmt(v: float) -> str:
        return f"{v:.17g}"

    for i in range(n):
        for j in range(i + 1):
            for k in range(i + 1):
                lmax = j if k == i else k
                for l in range(lmax + 1):
                    v = m.two_body[i, j, k, l]
                    if v != 0.0:
                        out.append(f"{fmt(v)} {i + 1} {j + 1} {k + 1} {l + 1}")
    for i in range(n):
        for j in range(i + 1):
            v = m.one_body[i, j]
            if v != 0.0:
                out.append(f"{fmt(v)} {i + 1} {j + 1} 0 0")
    out.append(f"{fmt(m.core_energy)} 0 0 0 0")
    return "\n".join(out) + "\n"


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


def factor_matrix_loop(df: DoubleFactorization, r: int) -> np.ndarray:
    """L^(r) from its retained eigenpairs, one outer product at a time."""
    n = df.n_orbitals
    out = np.zeros((n, n))
    lo, hi = df.offsets[r], df.offsets[r + 1]
    for lam, vec in zip(df.eigenvalues[lo:hi], df.eigenvectors[lo:hi]):
        out += lam * np.outer(vec, vec)
    return out


def reconstruct_two_body_loop(df: DoubleFactorization) -> np.ndarray:
    """sum_r L^(r)_ij L^(r)_kl, one rank at a time."""
    n = df.n_orbitals
    out = np.zeros((n, n, n, n))
    for r in range(df.rank):
        factor = factor_matrix_loop(df, r)
        out += np.einsum("ij,kl->ijkl", factor, factor)
    return out


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


def estimate_full_scan(*, n, rank, m_total, m_max=None, alpha, budget=None, mode="min_toffoli",
                       lam=None) -> CostReport:
    """``costmodel.estimate`` with the lambda scan over every lam in
    [0, LAMBDA_SCAN_MAX] in both scanning modes, and the chosen lam evaluated
    again."""
    if budget is None:
        budget = ErrorBudget(delta_e=1e-3)
    if m_max is None:
        m_max = min(m_total, n)
    n, alpha = int(n), float(alpha)
    rank, m_total, m_max = (max(int(x), 1) for x in (rank, m_total, m_max))
    reps = pe_repetitions(alpha, budget)

    def total_at(lam_value):
        wc = walk_operator_cost(n, rank, m_total, m_max, budget, alpha, lam_value)
        return wc.toffoli * reps, wc

    if mode == "fixed":
        if lam is None:
            raise ValueError("fixed mode requires lam")
        chosen = int(lam)
    elif mode in ("min_toffoli", "min_qubits"):
        best_lam = 0
        best_total = None
        for lam_value in range(0, LAMBDA_SCAN_MAX + 1):
            total, _ = total_at(lam_value)
            if best_total is None or total < best_total:
                best_total, best_lam = total, lam_value
        chosen = best_lam if mode == "min_toffoli" else min(1, best_lam)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    total, wc = total_at(chosen)
    cf = closed_form_walk_toffoli(n, m_total, wc.precision.beta, chosen)
    return CostReport(
        n_orbitals=n, rank_R=rank, eigvec_M=m_total, alpha_df=alpha, beta=wc.precision.beta,
        mu=wc.precision.mu, lambda_ancilla=chosen, walk_toffoli=wc.toffoli,
        walk_toffoli_breakdown=wc.toffoli_breakdown, logical_qubits=wc.qubits,
        logical_qubit_breakdown=wc.qubit_breakdown, pe_repetitions=reps, total_toffoli=total,
        closed_form_toffoli=cf, closed_form_total=cf * reps, mode=mode, delta_e=budget.delta_e,
    )


_I2 = sp.identity(2, format="csr", dtype=complex)
_Z = sp.csr_matrix(np.array([[1, 0], [0, -1]], dtype=complex))
_SMINUS = sp.csr_matrix(np.array([[0, 1], [0, 0]], dtype=complex))  # a on one mode


def _kron_chain(ops: dict, n_modes: int):
    """Kronecker product over ``n_modes`` qubits, qubit 0 most significant,
    identity where ``ops`` has no entry."""
    out = None
    for q in range(n_modes):
        factor = ops.get(q, _I2)
        out = factor if out is None else sp.kron(out, factor, format="csr")
    return out


class _KronJordanWigner:
    """Sparse complex mode operators and pair products for one qubit count."""

    _cache: dict = {}

    def __init__(self, n_modes: int):
        a = []
        for p in range(n_modes):
            ops = {q: _Z for q in range(p)}
            ops[p] = _SMINUS
            a.append(_kron_chain(ops, n_modes))
        adag = [op.conj().T.tocsr() for op in a]
        gamma0 = [(a[p] + adag[p]).tocsr() for p in range(n_modes)]
        gamma1 = [(-1j * (a[p] - adag[p])).tocsr() for p in range(n_modes)]
        # excitation[p][q] = a+_p a_q;  majorana_pair[p][q] = gamma_{p,0} gamma_{q,1}
        self.excitation = [[adag[p] @ a[q] for q in range(n_modes)] for p in range(n_modes)]
        self.majorana_pair = [[gamma0[p] @ gamma1[q] for q in range(n_modes)]
                              for p in range(n_modes)]

    @classmethod
    def get(cls, n_modes: int) -> "_KronJordanWigner":
        if n_modes not in cls._cache:
            cls._cache[n_modes] = cls(n_modes)
        return cls._cache[n_modes]


class _CooAccumulator:
    """Weighted sum of sparse matrices, materialized once at the end."""

    def __init__(self, dim: int):
        self.dim = dim
        self.rows, self.cols, self.vals = [], [], []

    def add(self, coeff: complex, matrix):
        coo = matrix.tocoo()
        self.rows.append(coo.row)
        self.cols.append(coo.col)
        self.vals.append(coeff * coo.data)

    def to_csr(self):
        if not self.vals:
            return sp.csr_matrix((self.dim, self.dim), dtype=complex)
        rows = np.concatenate(self.rows)
        cols = np.concatenate(self.cols)
        vals = np.concatenate(self.vals)
        return sp.coo_matrix((vals, (rows, cols)), shape=(self.dim, self.dim)).tocsr()


def build_from_integrals_kron(m: MolecularIntegrals) -> np.ndarray:
    """Complex dense H from the integrals, one sparse product per
    (ijkl, s, r) term through a+_p a+_t a_u a_q = E_pq E_tu - delta_qt E_pu."""
    n = m.n_orbitals
    n_modes = 2 * n
    jw = _KronJordanWigner.get(n_modes)
    dim = 1 << n_modes
    acc = _CooAccumulator(dim)
    for i in range(n):
        for j in range(n):
            hij = m.one_body[i, j]
            if hij == 0.0:
                continue
            for s in (0, 1):
                acc.add(hij, jw.excitation[i + s * n][j + s * n])
    g = m.two_body
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    v = g[i, j, k, l]
                    if v == 0.0:
                        continue
                    for s in (0, 1):
                        for r in (0, 1):
                            p, q = i + s * n, j + s * n
                            t, u = k + r * n, l + r * n
                            acc.add(0.5 * v, jw.excitation[p][q] @ jw.excitation[t][u])
                            if q == t:
                                acc.add(-0.5 * v, jw.excitation[p][u])
    dense = acc.to_csr().toarray()
    dense += m.core_energy * np.eye(dim)
    return dense


def _majorana_pair_kron(l_matrix: np.ndarray):
    n = l_matrix.shape[0]
    jw = _KronJordanWigner.get(2 * n)
    acc = _CooAccumulator(1 << (2 * n))
    for i in range(n):
        for j in range(n):
            lij = l_matrix[i, j]
            if lij == 0.0:
                continue
            for s in (0, 1):
                acc.add(0.5j * lij, jw.majorana_pair[i + s * n][j + s * n])
    return acc.to_csr()


def majorana_pair_matrix_kron(l_matrix: np.ndarray) -> np.ndarray:
    """Complex dense G_L = (i/2) sum_{ij,s} L_ij gamma_{i,s,0} gamma_{j,s,1}."""
    return _majorana_pair_kron(l_matrix).toarray()


def build_from_df_kron(df: DoubleFactorization) -> np.ndarray:
    """Complex dense (core + shift) I + G_{l_minus1} + 1/2 sum_r G_{L^(r)}^2."""
    n = df.n_orbitals
    total = _majorana_pair_kron(df.one_body.l_minus1).astype(complex)
    for r in range(df.rank):
        g_r = _majorana_pair_kron(factor_matrix_loop(df, r))
        total = total + 0.5 * (g_r @ g_r)
    dense = total.toarray()
    dense += (df.one_body.scalar_shift + df.one_body.core_energy) * np.eye(1 << (2 * n))
    return dense


def spectral_norm_full(matrix: np.ndarray) -> float:
    """Largest |eigenvalue| of the whole Hermitian matrix (Lanczos above
    dimension 1024)."""
    if matrix.shape[0] <= 1024:
        return float(np.abs(np.linalg.eigvalsh(matrix)).max())
    v0 = np.ones(matrix.shape[0])  # fixed start vector keeps runs deterministic
    val = spla.eigsh(sp.csr_matrix(matrix), k=1, which="LM", v0=v0, return_eigenvectors=False)
    return float(abs(val[0]))


def ground_energy_full(matrix: np.ndarray, n_electrons: int) -> float:
    """Lowest eigenvalue of the whole n_electrons-particle block."""
    n_modes = matrix.shape[0].bit_length() - 1
    states = np.arange(matrix.shape[0])
    counts = sum((states >> q) & 1 for q in range(n_modes))
    sector = np.flatnonzero(counts == n_electrons)
    return float(np.linalg.eigvalsh(matrix[np.ix_(sector, sector)])[0])


def df_fragments(df: DoubleFactorization) -> list[np.ndarray]:
    """Hermitian fragments {G_{l_minus1}, 1/2 G_{L^(r)}^2, ...} whose sum plus
    the scalar shift is the double-factorized Hamiltonian; input for the
    product-formula step bound."""
    frags = [majorana_pair_matrix(df.one_body.l_minus1)]
    for r in range(df.rank):
        g_r = majorana_pair_matrix(df.factor_matrix(r))
        frags.append(0.5 * (g_r @ g_r))
    return frags
