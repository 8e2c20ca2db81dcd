"""Low-rank factorization of the two-electron tensor.

Single factorization writes (ij|kl) = sum_r L^(r)_ij L^(r)_kl with symmetric
N x N factors obtained by pivoted Cholesky decomposition of the electron
repulsion supermatrix.  Double factorization additionally eigendecomposes
each factor, L^(r) = sum_m lambda_m^(r) R_m^(r) R_m^(r)^T, which is the
representation whose eigenpairs are truncated and cost-modeled downstream.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from qdf.integrals import AdjustedOneBody, MolecularIntegrals

__all__ = [
    "DoubleFactorization",
    "EigenFactor",
    "NotPositiveSemidefiniteError",
    "SingleFactorization",
    "alpha_cd",
    "alpha_df",
    "double_factorize",
    "entrywise_norm",
    "eri_supermatrix",
    "load_cache",
    "reconstruct_two_body",
    "save_cache",
    "schatten_norm",
    "single_factorize",
]

#: Residual supermatrix diagonals below -PSD_TOLERANCE reject the input as
#: not positive semidefinite (finite-precision integral files sit slightly
#: below zero).
PSD_TOLERANCE = 1e-8

#: Eigenvalues with |lambda| <= EIGENVALUE_CUTOFF * max|lambda| are numerical
#: zeros and dropped at factorization time; physical truncation is a separate
#: concern (qdf.truncation).
EIGENVALUE_CUTOFF = 1e-13


class NotPositiveSemidefiniteError(ValueError):
    """The ERI supermatrix has an eigenvalue below the PSD tolerance."""


@dataclass(frozen=True)
class SingleFactorization:
    """Rank-R Cholesky factorization of the two-electron tensor.

    ``factors[r]`` is the symmetric N x N matrix L^(r) (Hartree^1/2), in
    pivot-selection order.  ``residual_sup_norm`` is the largest absolute
    residual diagonal at termination; the residual is PSD, so it bounds every
    entry, |w_ij| <= sqrt(w_ii w_jj).
    """

    factors: list[np.ndarray]
    residual_sup_norm: float

    @property
    def rank(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class EigenFactor:
    """One eigenpair of a Cholesky factor: index r, eigenvalue lambda_m^(r)
    (Hartree^1/2), and the unit-norm eigenvector R_m^(r)."""

    rank_index: int
    eigenvalue: float
    eigenvector: np.ndarray


@dataclass(frozen=True)
class DoubleFactorization:
    """Eigendecomposed two-electron factors plus the adjusted one-body data.

    ``two_body[r]`` lists the retained eigenpairs of L^(r), sorted by
    descending |eigenvalue|.  ``schatten_norms[r]`` freezes sum_m |lambda_m|
    of the factor at construction time; truncation never updates it (the
    truncation error scores are defined against the untruncated factors).
    ``one_body_eigs`` are the eigenpairs of l_minus1, which are never
    truncated.
    """

    one_body: AdjustedOneBody
    one_body_eigs: tuple[np.ndarray, np.ndarray]
    two_body: list[list[EigenFactor]]
    schatten_norms: np.ndarray
    n_orbitals: int

    @property
    def rank(self) -> int:
        return len(self.two_body)

    @property
    def total_eigenpairs(self) -> int:
        return sum(len(group) for group in self.two_body)

    @property
    def max_eigenpairs_per_rank(self) -> int:
        return max((len(group) for group in self.two_body), default=0)

    def factor_matrix(self, r: int) -> np.ndarray:
        """Rebuild L^(r) from its retained eigenpairs."""
        n = self.n_orbitals
        out = np.zeros((n, n))
        for ef in self.two_body[r]:
            out += ef.eigenvalue * np.outer(ef.eigenvector, ef.eigenvector)
        return out


def eri_supermatrix(m: MolecularIntegrals) -> np.ndarray:
    """Two-electron tensor reshaped to the symmetric N^2 x N^2 matrix
    W[(i*N + j), (k*N + l)] = (ij|kl)."""
    n = m.n_orbitals
    return m.two_body.reshape(n * n, n * n).copy()


def single_factorize(
    m: MolecularIntegrals,
    tol: float = 1e-10,
    psd_tol: float = PSD_TOLERANCE,
) -> SingleFactorization:
    """Greedy pivoted-Cholesky factorization of the ERI supermatrix.

    Repeatedly selects the largest remaining diagonal of W, forms the
    corresponding symmetric factor (the Cholesky column reshaped N x N and
    symmetrized), and stops once the largest remaining diagonal is at most
    ``tol``.  Only the residual diagonal and the computed columns are kept
    (Koch, Sanchez de Meras & Pedersen, JCP 118, 9481 (2003)): column q of
    the residual is W[:, q] minus each earlier column times its entry q, in
    pivot order, which is the same floating-point sequence as deflating a
    full copy of W by one rank-1 update per pivot.  Memory is O(N^2 R) and
    time O(N^2 R^2).

    Raises
    ------
    NotPositiveSemidefiniteError
        A residual diagonal drops below ``-psd_tol``.
    ValueError
        ``tol <= 0``.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    n = m.n_orbitals
    w = m.two_body.reshape(n * n, n * n)
    diag = np.diagonal(w).copy()
    columns: list[np.ndarray] = []
    factors: list[np.ndarray] = []

    for _ in range(n * n):
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
        col = w[:, q].copy()
        for c in columns:
            col -= c * c[q]
        col /= np.sqrt(pivot)
        columns.append(col)
        factor = col.reshape(n, n)
        factors.append(0.5 * (factor + factor.T))
        diag -= col * col

    residual = float(np.abs(diag).max()) if diag.size else 0.0
    return SingleFactorization(factors=factors, residual_sup_norm=residual)


def _fix_sign(vec: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Deterministic eigenvector sign: first component with |x| > tol is positive."""
    for x in vec:
        if abs(x) > tol:
            return vec if x > 0 else -vec
    return vec


def _eigh_sorted(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric eigendecomposition sorted by descending |eigenvalue|, with
    the lexicographic sign convention applied to each vector."""
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(-np.abs(vals), kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    for c in range(vecs.shape[1]):
        vecs[:, c] = _fix_sign(vecs[:, c])
    return vals, vecs


def double_factorize(sf: SingleFactorization, adj: AdjustedOneBody) -> DoubleFactorization:
    """Eigendecompose every Cholesky factor and the adjusted one-body matrix.

    Eigenpairs with |lambda| <= EIGENVALUE_CUTOFF * max|lambda| within their
    factor are numerical zeros and dropped.
    """
    n = adj.l_minus1.shape[0]
    two_body: list[list[EigenFactor]] = []
    norms = []
    for r, factor in enumerate(sf.factors):
        try:
            vals, vecs = _eigh_sorted(factor)
        except np.linalg.LinAlgError as exc:
            raise ArithmeticError(f"eigendecomposition failed for factor {r}: {exc}") from exc
        cutoff = EIGENVALUE_CUTOFF * (np.abs(vals).max() if vals.size else 0.0)
        group = [
            EigenFactor(rank_index=r, eigenvalue=float(v), eigenvector=vecs[:, idx].copy())
            for idx, v in enumerate(vals)
            if abs(v) > cutoff
        ]
        two_body.append(group)
        norms.append(sum(abs(ef.eigenvalue) for ef in group))

    ob_vals, ob_vecs = _eigh_sorted(adj.l_minus1)
    return DoubleFactorization(
        one_body=adj,
        one_body_eigs=(ob_vals, ob_vecs),
        two_body=two_body,
        schatten_norms=np.asarray(norms, dtype=float),
        n_orbitals=n,
    )


def schatten_norm(a: np.ndarray) -> float:
    """Schatten 1-norm of a symmetric matrix: sum of absolute eigenvalues."""
    return float(np.abs(np.linalg.eigvalsh(a)).sum())


def entrywise_norm(a: np.ndarray) -> float:
    """Entrywise 1-norm: sum of absolute entries."""
    return float(np.abs(a).sum())


def alpha_df(df: DoubleFactorization) -> float:
    """Block-encoding normalization of the double-factorized Hamiltonian,

        alpha_DF = 2 ||l_minus1||_SH + 1/4 sum_r ||L^(r)||_SH^2,

    evaluated on the currently retained eigenpairs, so truncation lowers it.
    """
    one_body = float(np.abs(df.one_body_eigs[0]).sum())
    two_body = sum(
        sum(abs(ef.eigenvalue) for ef in group) ** 2 for group in df.two_body
    )
    return 2.0 * one_body + 0.25 * two_body


def alpha_cd(sf: SingleFactorization, adj: AdjustedOneBody) -> float:
    """Block-encoding normalization of the single-factorized Hamiltonian,
    alpha_CD = 2 ||h_tilde||_EW + 2 sum_r ||L^(r)||_EW^2 (entrywise norms)."""
    return 2.0 * entrywise_norm(adj.h_tilde) + 2.0 * sum(
        entrywise_norm(f) ** 2 for f in sf.factors
    )


def reconstruct_two_body(df: DoubleFactorization) -> np.ndarray:
    """Rebuild the chemist-notation tensor sum_r L^(r)_ij L^(r)_kl from the
    retained eigenpairs."""
    n = df.n_orbitals
    out = np.zeros((n, n, n, n))
    for r in range(df.rank):
        factor = df.factor_matrix(r)
        out += np.einsum("ij,kl->ijkl", factor, factor)
    return out


# ---------------------------------------------------------------------------
# Binary cache
#
# Layout (all little-endian):
#   magic  4s   = b"QDF1"
#   version u32 = 1
#   n_orbitals u32, rank u32, n_one_body_eigs u32
#   scalar_shift f64, core_energy f64
#   h_tilde   n*n f64
#   l_minus1  n*n f64
#   one-body eigenvalues  K f64
#   one-body eigenvectors K*n f64 (row per eigenpair)
#   per rank group:
#     rank_index u32, m u32, schatten_norm f64,
#     eigenvalues m f64, eigenvectors m*n f64 (row per eigenpair)
# ---------------------------------------------------------------------------

_MAGIC = b"QDF1"
_VERSION = 1


def save_cache(df: DoubleFactorization, path) -> None:
    """Write a DoubleFactorization to the versioned binary cache format."""
    n = df.n_orbitals
    ob_vals, ob_vecs = df.one_body_eigs
    k = ob_vals.size
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIII", _VERSION, n, df.rank, k))
        fh.write(struct.pack("<dd", df.one_body.scalar_shift, df.one_body.core_energy))
        fh.write(np.ascontiguousarray(df.one_body.h_tilde, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(df.one_body.l_minus1, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(ob_vals, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(ob_vecs.T, dtype="<f8").tobytes())
        for r, group in enumerate(df.two_body):
            fh.write(struct.pack("<IId", r, len(group), float(df.schatten_norms[r])))
            vals = np.array([ef.eigenvalue for ef in group], dtype="<f8")
            fh.write(vals.tobytes())
            if group:
                vecs = np.stack([ef.eigenvector for ef in group]).astype("<f8")
                fh.write(vecs.tobytes())


def load_cache(path) -> DoubleFactorization:
    """Read a DoubleFactorization from the binary cache format."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"bad cache magic {magic!r}")
        version, n, rank, k = struct.unpack("<IIII", fh.read(16))
        if version != _VERSION:
            raise ValueError(f"unsupported cache version {version}")
        scalar, core = struct.unpack("<dd", fh.read(16))
        h_tilde = np.frombuffer(fh.read(8 * n * n), dtype="<f8").reshape(n, n).copy()
        l_minus1 = np.frombuffer(fh.read(8 * n * n), dtype="<f8").reshape(n, n).copy()
        ob_vals = np.frombuffer(fh.read(8 * k), dtype="<f8").copy()
        ob_vecs = np.frombuffer(fh.read(8 * k * n), dtype="<f8").reshape(k, n).T.copy()
        two_body: list[list[EigenFactor]] = []
        norms = []
        for _ in range(rank):
            r, mcount = struct.unpack("<II", fh.read(8))
            (norm,) = struct.unpack("<d", fh.read(8))
            vals = np.frombuffer(fh.read(8 * mcount), dtype="<f8")
            vecs = np.frombuffer(fh.read(8 * mcount * n), dtype="<f8").reshape(mcount, n)
            two_body.append(
                [
                    EigenFactor(rank_index=int(r), eigenvalue=float(v), eigenvector=vecs[i].copy())
                    for i, v in enumerate(vals)
                ]
            )
            norms.append(norm)
    adj = AdjustedOneBody(
        h_tilde=h_tilde, l_minus1=l_minus1, scalar_shift=scalar, core_energy=core
    )
    return DoubleFactorization(
        one_body=adj,
        one_body_eigs=(ob_vals, ob_vecs),
        two_body=two_body,
        schatten_norms=np.asarray(norms, dtype=float),
        n_orbitals=n,
    )
