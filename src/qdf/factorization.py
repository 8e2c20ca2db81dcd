"""Low-rank factorization of the two-electron tensor.

Single factorization writes (ij|kl) = sum_r L^(r)_ij L^(r)_kl with symmetric
N x N factors obtained by pivoted Cholesky decomposition of the electron
repulsion supermatrix.  Double factorization additionally eigendecomposes
each factor, L^(r) = sum_m lambda_m^(r) R_m^(r) R_m^(r)^T, which is the
representation whose eigenpairs are truncated and cost-modeled downstream.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from qdf.integrals import AdjustedOneBody, MolecularIntegrals, pair_index

__all__ = [
    "CHOLESKY_TOL",
    "CacheHeader",
    "DoubleFactorization",
    "NotACacheError",
    "NotPositiveSemidefiniteError",
    "SingleFactorization",
    "alpha_df",
    "double_factorize",
    "load_cache",
    "read_cache",
    "reconstruct_two_body",
    "save_cache",
    "single_factorize",
]

#: Residual supermatrix diagonals below -PSD_TOLERANCE times the largest
#: diagonal of W reject the input as not positive semidefinite
#: (finite-precision integral files, and the rounding residual of a pivot,
#: sit slightly below zero).
PSD_TOLERANCE = 1e-8

#: Pivoted Cholesky stops once the largest residual diagonal is at most this.
CHOLESKY_TOL = 1e-10

#: Eigenvalues with |lambda| <= EIGENVALUE_CUTOFF * max|lambda| are numerical
#: zeros and dropped at factorization time; physical truncation is a separate
#: concern (qdf.truncation).
EIGENVALUE_CUTOFF = 1e-13

# double_factorize eigendecomposes about this many bytes of factors at a time.
_EIGH_CHUNK = 1 << 20


class NotPositiveSemidefiniteError(ValueError):
    """The ERI supermatrix has an eigenvalue below the PSD tolerance."""


@dataclass(frozen=True)
class SingleFactorization:
    """Rank-R Cholesky factorization of the two-electron tensor.

    ``factors`` (R, N, N) holds the symmetric matrices L^(r) (Hartree^1/2),
    in pivot-selection order.  ``residual_sup_norm`` is the largest absolute
    residual diagonal at termination.  In exact arithmetic the residual is
    PSD, so this bounds every entry, |w_ij| <= sqrt(w_ii w_jj); in floating
    point an off-diagonal entry of the residual can exceed it.
    """

    factors: np.ndarray
    residual_sup_norm: float

    @property
    def rank(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class DoubleFactorization:
    """Eigendecomposed two-electron factors plus the adjusted one-body data.

    Row r of ``eigenvalues`` (R, N) and of ``eigenvectors`` (R, N, N) holds
    the retained eigenpairs of L^(r), by descending |eigenvalue|; each row of
    ``eigenvectors[r]`` is a unit-norm eigenvector.  An eigenvalue of 0.0
    marks a slot with no eigenpair (a retained eigenvalue is never 0), whose
    eigenvector row only ever multiplies that 0.0.  An eigenpair is named by
    its flat index r * N + m into ``eigenvalues.reshape(-1)``.
    ``schatten_norms[r]`` freezes sum_m |lambda_m| of the factor at
    construction time; truncation never updates it (the truncation error
    scores are defined against the untruncated factors).  ``one_body_eigs``
    are the eigenvalues and eigenvector rows of l_minus1, which are never
    truncated.
    """

    one_body: AdjustedOneBody
    one_body_eigs: tuple[np.ndarray, np.ndarray]
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    schatten_norms: np.ndarray
    n_orbitals: int

    @property
    def rank(self) -> int:
        return len(self.eigenvalues)

    @property
    def total_eigenpairs(self) -> int:
        return int(np.count_nonzero(self.eigenvalues))

    @property
    def max_eigenpairs_per_rank(self) -> int:
        return int(np.count_nonzero(self.eigenvalues, axis=1).max(initial=0))

    def factor_matrix(self, r: int) -> np.ndarray:
        """Rebuild L^(r) from its retained eigenpairs, exactly symmetric."""
        return from_eigenpairs(self.eigenvalues[r], self.eigenvectors[r])

    def factor_matrices(self) -> np.ndarray:
        """Rebuild every L^(r) at once, exactly symmetric, as an (R, N, N) stack."""
        return from_eigenpairs(self.eigenvalues, self.eigenvectors)


def from_eigenpairs(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """U^T diag(lambda) U of eigenvalues (..., k) and eigenvector rows U
    (..., k, N), made exactly symmetric: the product alone is off by up to
    about eps * max|lambda|, and halving first cannot overflow."""
    product = (np.swapaxes(vectors, -1, -2) * values[..., None, :]) @ vectors
    return 0.5 * product + 0.5 * np.swapaxes(product, -1, -2)


def single_factorize(m: MolecularIntegrals, tol: float = CHOLESKY_TOL) -> SingleFactorization:
    """Greedy pivoted-Cholesky factorization of the ERI supermatrix.

    Repeatedly selects the largest remaining diagonal of W, forms the
    corresponding symmetric factor, and stops once the largest remaining
    diagonal is at most ``tol`` or after N^2 pivots.  Only the residual
    diagonal and the computed columns are kept (Koch, Sanchez de Meras &
    Pedersen, JCP 118, 9481 (2003)), on the N(N+1)/2 orbital pairs i <= j in
    row-major order: memory O(N^2 R / 2), time O(N^2 R^2 / 2).

    W's diagonal and pivot columns are read from its packed form in
    MolecularIntegrals, which holds each orbit in one value.  So every column
    is exactly pair-symmetric, twin diagonals stay equal and the first
    largest packed pair is the first of all N^2: the factors are bit for bit
    those of deflating a full copy of W by one rank-1 update per pivot.
    Residual column q is W[:, q] minus each earlier column times its entry q,
    in pivot order, in one ``np.subtract.reduce`` (numpy reduces pairwise
    only for ``np.add``).  A pivot's rounding residual can exceed ``tol`` at
    large scales; the pair is then picked again, and R can pass N(N+1)/2.

    Raises
    ------
    NotPositiveSemidefiniteError
        A residual diagonal, at pair index i * N + j, is below
        ``-PSD_TOLERANCE`` times the largest diagonal of W.
    ValueError
        ``tol <= 0``.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    n = m.n_orbitals
    w = m.pair_matrix
    rows, cols = np.triu_indices(n)
    packed = pair_index(n)[rows, cols]  # the row of W of each i <= j
    diag = w[packed, packed]
    bound = PSD_TOLERANCE * max(float(diag.max()), 0.0)
    chol = np.empty((packed.size, packed.size))
    buf = np.empty_like(chol)  # W's pivot column, then each earlier column times its pivot entry
    k = 0
    while k < n * n:
        if diag.min() < -bound:
            q = int(np.argmin(diag))
            raise NotPositiveSemidefiniteError(
                f"residual diagonal {diag.min():.3e} at pair index {rows[q] * n + cols[q]} "
                f"is below -{bound:.3e}; ERI supermatrix is not PSD"
            )
        q = int(np.argmax(diag))
        if diag[q] <= tol:
            break
        if k == len(chol):  # a pair was picked again
            chol, buf = np.concatenate((chol, chol)), np.concatenate((buf, buf))
        buf[0] = w[packed, packed[q]]
        np.multiply(chol[:k], chol[:k, q, None], out=buf[1:k + 1])
        chol[k] = np.subtract.reduce(buf[:k + 1], axis=0) / np.sqrt(diag[q])
        diag -= chol[k] * chol[k]
        k += 1
    del buf  # freed before the gather of the factors

    pair_of = np.empty((n, n), dtype=np.intp)
    pair_of[rows, cols] = pair_of[cols, rows] = np.arange(packed.size)
    return SingleFactorization(chol[:k, pair_of], float(np.abs(diag).max()))


def _eigh_sorted(mats: np.ndarray, what: str, first: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompositions of a stack of symmetric (N, N) matrices, numbered
    from ``first``: the eigenvalues (B, N) by descending |eigenvalue| and the
    eigenvectors as rows (B, N, N), each with its first component of
    magnitude > 1e-12 positive."""
    try:
        vals, vecs = np.linalg.eigh(mats)
    except np.linalg.LinAlgError as exc:
        # Only the first matrix that fails, found one by one, is named.
        for b, a in enumerate(mats, first):
            try:
                np.linalg.eigh(a)
            except np.linalg.LinAlgError as one:
                raise ArithmeticError(f"eigendecomposition failed for {what} {b}: {one}") from one
        raise ArithmeticError(f"eigendecomposition failed for a {what}: {exc}") from exc
    order = np.argsort(-np.abs(vals), axis=1, kind="stable")
    # The eigenvector columns, gathered as rows in one copy, by (B, N) indices
    rows = vecs.transpose(0, 2, 1)[np.arange(len(mats))[:, None], order]
    del vecs
    rows = rows.reshape(-1, mats.shape[-1])
    above = np.abs(rows) > 1e-12
    flip = above.any(axis=1) & (rows[np.arange(rows.shape[0]), above.argmax(axis=1)] < 0)
    np.negative(rows, out=rows, where=flip[:, None])  # exact
    return np.take_along_axis(vals, order, axis=1), rows.reshape(mats.shape)


def double_factorize(sf: SingleFactorization, adj: AdjustedOneBody) -> DoubleFactorization:
    """Eigendecompose every Cholesky factor and the adjusted one-body matrix.

    Eigenpairs with |lambda| <= EIGENVALUE_CUTOFF * max|lambda| within their
    factor are numerical zeros and dropped: their slots hold a 0.0 eigenvalue
    and a zero eigenvector row.  The factors are decomposed ``_EIGH_CHUNK``
    bytes at a time, each by the same ``eigh`` call as in one batch, straight
    into the (R, N) and (R, N, N) arrays returned.
    """
    n = adj.l_minus1.shape[0]
    factors = np.reshape(sf.factors, (-1, n, n))
    rank = len(factors)
    eigenvalues, eigenvectors, norms = np.empty((rank, n)), np.empty((rank, n, n)), np.empty(rank)
    step = max(1, _EIGH_CHUNK // (8 * n * n))
    for lo in range(0, rank, step):
        vals, vecs = _eigh_sorted(factors[lo:lo + step], "factor", lo)
        abs_vals = np.abs(vals)
        drop = ~(abs_vals > EIGENVALUE_CUTOFF * abs_vals.max(axis=1, initial=0.0)[:, None])
        vals[drop], vecs[drop] = 0.0, 0.0
        eigenvalues[lo:lo + step], eigenvectors[lo:lo + step] = vals, vecs
        norms[lo:lo + step] = rank_sums(np.abs(vals))
    ob_vals, ob_vecs = _eigh_sorted(adj.l_minus1[None], "one-body matrix")
    return DoubleFactorization(
        one_body=adj,
        one_body_eigs=(ob_vals[0], ob_vecs[0]),
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        schatten_norms=norms,
        n_orbitals=n,
    )


def rank_sums(padded: np.ndarray) -> np.ndarray:
    """Row sums of a zero-padded (R, m) array of |lambda|, added left to right
    as a loop over each rank's eigenpairs adds them: ``np.cumsum`` accumulates
    in order, where np.sum adds pairwise and can move the last digit."""
    return np.cumsum(padded, axis=1)[:, -1] if padded.shape[1] else np.zeros(len(padded))


def schatten_squares(sums: np.ndarray) -> np.ndarray:
    """s_r ** 2 of the per-rank sums s_r = sum_m |lambda_m^(r)|, by the C
    library's pow (which does not always round like s * s); an OverflowError
    names the first sum whose square overflows."""
    squares = []
    try:
        for s in sums.tolist():
            squares.append(s ** 2)
    except OverflowError:
        raise OverflowError(f"alpha_DF overflows: the square of Schatten sum {s!r} "
                            "is out of float range") from None
    return np.array(squares, dtype=float)


def alpha_from_squares(one_body_eigenvalues: np.ndarray, squares: np.ndarray) -> float:
    """alpha_DF from the one-body eigenvalues and the ``schatten_squares``,
    which are added left to right (``np.cumsum``, as a loop adds them)."""
    with np.errstate(over="ignore"):  # a loop's float sum overflows to inf silently
        two_body = float(np.cumsum(squares)[-1]) if squares.size else 0.0
    return 2.0 * float(np.abs(one_body_eigenvalues).sum()) + 0.25 * two_body


def alpha_df(df: DoubleFactorization) -> float:
    """Block-encoding normalization of the double-factorized Hamiltonian,

        alpha_DF = 2 ||l_minus1||_SH + 1/4 sum_r ||L^(r)||_SH^2,

    evaluated on the currently retained eigenpairs, so truncation lowers it.
    """
    sums = rank_sums(np.abs(df.eigenvalues))
    return alpha_from_squares(df.one_body_eigs[0], schatten_squares(sums))


def reconstruct_two_body(df: DoubleFactorization) -> np.ndarray:
    """Rebuild W[ij, kl] = sum_r L^(r)_ij L^(r)_kl, packed as in
    MolecularIntegrals, from the retained eigenpairs: with each factor's
    entries i >= j, row by row (the pair order), as the rows of F, W = F^T F."""
    factors = df.factor_matrices()[:, np.tri(df.n_orbitals, dtype=bool)]
    return factors.T @ factors


# ---------------------------------------------------------------------------
# Binary cache
#
# One flat file, all little-endian:
#   magic 4s = b"QDF4"
#   digest 32s    SHA-256 of every byte after it
#   fcidump_sha256 32s    SHA-256 of the FCIDUMP bytes the cache was built from
#   tol f64, eigenvalue_cutoff f64    the factorization settings
#   N u32, R u32, warnings_length u32
#   f64 arrays, from byte 96, so that each is 8-byte aligned:
#     scalar_shift and core_energy (2), h_tilde (N*N), l_minus1 (N*N),
#     one-body eigenvalues (N) and eigenvectors (N*N, a row per eigenpair),
#     Schatten norms (R), eigenvalues (R*N) and eigenvectors (R*N*N), in the
#     layout of DoubleFactorization
#   warnings  the parser's warning texts, ASCII, one a line
# ---------------------------------------------------------------------------

_MAGIC = b"QDF4"
_SEALED = 4 + 32  # the magic and the digest, which covers every later byte
_HEADER = struct.Struct("<32sddIII")


@dataclass(frozen=True)
class CacheHeader:
    """What a cache is bound to (the SHA-256 of the FCIDUMP bytes it was
    built from, the Cholesky ``tol`` and ``EIGENVALUE_CUTOFF``), and the texts
    of the warnings the parser gave on that FCIDUMP."""

    fcidump_sha256: bytes
    tol: float
    eigenvalue_cutoff: float
    warnings: tuple[str, ...]


class NotACacheError(ValueError):
    """The file does not start with b"QDF", as a cache of every qdf format does."""


def save_cache(df: DoubleFactorization, path, fcidump_sha256: bytes, tol: float,
               warnings=()) -> None:
    """Write the cache of ``df``, bound to the SHA-256 digest of the FCIDUMP
    bytes it was factorized from with Cholesky ``tol``, with the texts of the
    parser's ``warnings`` on that file (ASCII, without newlines)."""
    if len(fcidump_sha256) != 32:
        raise ValueError(f"expected a 32-byte SHA-256 digest, got {len(fcidump_sha256)} bytes")
    if any("\n" in text for text in warnings):
        raise ValueError("a cached warning text holds a newline")
    texts = "\n".join(warnings).encode("ascii")
    one_body, (ob_vals, ob_vecs) = df.one_body, df.one_body_eigs
    floats = ([one_body.scalar_shift, one_body.core_energy], one_body.h_tilde, one_body.l_minus1,
              ob_vals, ob_vecs, df.schatten_norms, df.eigenvalues, df.eigenvectors)
    # The parts are hashed, then written, one at a time: no joined copy.
    parts = [
        _HEADER.pack(fcidump_sha256, tol, EIGENVALUE_CUTOFF, df.n_orbitals, df.rank, len(texts)),
        *(np.ascontiguousarray(a, dtype="<f8") for a in floats),
        texts,
    ]
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    with open(path, "wb") as fh:
        fh.write(_MAGIC + digest.digest())
        for part in parts:
            fh.write(part)


def load_cache(path) -> DoubleFactorization:
    """The DoubleFactorization of a cache file; ValueError unless the file
    is a complete, well-formed cache."""
    return read_cache(path)[1]


def read_cache(path) -> tuple[CacheHeader, DoubleFactorization]:
    """What a cache file is bound to, and its DoubleFactorization, whose
    arrays are read-only views of the file's bytes.  ValueError unless the
    file is a complete, well-formed cache whose digest matches its bytes;
    NotACacheError, a ValueError, when it does not start with b"QDF"."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MAGIC:
        foreign = len(data) >= 3 and data[:3] != _MAGIC[:3]
        raise (NotACacheError if foreign else ValueError)(f"bad cache magic {data[:4]!r}")
    if hashlib.sha256(memoryview(data)[_SEALED:]).digest() != data[4:_SEALED]:
        raise ValueError("cache digest does not match its bytes")
    if len(data) < _SEALED + _HEADER.size:
        raise ValueError(f"cache is truncated: {len(data)} bytes")
    fcidump_sha256, tol, cutoff, n, r, texts_length = _HEADER.unpack_from(data, _SEALED)
    sizes = [2, n * n, n * n, n, n * n, r, r * n, r * n * n]
    texts_at = _SEALED + _HEADER.size + 8 * sum(sizes)
    if texts_at + texts_length != len(data):
        raise ValueError(f"cache has {len(data)} bytes, its header gives {texts_at + texts_length}")
    floats = np.frombuffer(data, "<f8", sum(sizes), _SEALED + _HEADER.size)
    shift_core, h_tilde, l_minus1, ob_vals, ob_vecs, norms, values, vectors = np.split(
        floats, np.cumsum(sizes[:-1]))
    if not (np.isfinite(floats).all() and (norms >= 0).all()):
        raise ValueError("cache holds a non-finite value or a negative Schatten norm")
    try:
        texts = data[texts_at:].decode("ascii")
    except UnicodeDecodeError:
        raise ValueError("cache warning texts are not ASCII") from None
    scalar, core = shift_core.tolist()
    header = CacheHeader(fcidump_sha256, tol, cutoff, tuple(texts.split("\n")) if texts else ())
    return header, DoubleFactorization(
        one_body=AdjustedOneBody(h_tilde.reshape(n, n), l_minus1.reshape(n, n),
                                 scalar_shift=scalar, core_energy=core),
        one_body_eigs=(ob_vals, ob_vecs.reshape(n, n)),
        eigenvalues=values.reshape(r, n),
        eigenvectors=vectors.reshape(r, n, n),
        schatten_norms=norms,
        n_orbitals=n,
    )
