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
    "CHOLESKY_TOL",
    "CacheHeader",
    "DoubleFactorization",
    "NotPositiveSemidefiniteError",
    "SingleFactorization",
    "alpha_df",
    "double_factorize",
    "load_cache",
    "read_cache",
    "reconstruct_two_body",
    "save_cache",
    "schatten_norm",
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

    The retained eigenpairs of all factors are stored flat: rows
    ``offsets[r]:offsets[r + 1]`` of ``eigenvalues`` (M,) and of
    ``eigenvectors`` (M, N) belong to L^(r), sorted by descending
    |eigenvalue|; each row of ``eigenvectors`` is a unit-norm eigenvector.
    ``schatten_norms[r]`` freezes sum_m |lambda_m| of the factor at
    construction time; truncation never updates it (the truncation error
    scores are defined against the untruncated factors).  ``one_body_eigs``
    are the eigenpairs of l_minus1, which are never truncated.
    """

    one_body: AdjustedOneBody
    one_body_eigs: tuple[np.ndarray, np.ndarray]
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    offsets: np.ndarray
    schatten_norms: np.ndarray
    n_orbitals: int

    @property
    def rank(self) -> int:
        return self.offsets.size - 1

    @property
    def total_eigenpairs(self) -> int:
        return self.eigenvalues.size

    @property
    def max_eigenpairs_per_rank(self) -> int:
        return int(np.diff(self.offsets).max(initial=0))

    @property
    def pair_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(r, m) of each flat eigenpair, as two (M,) arrays."""
        rank_of = np.repeat(np.arange(self.rank), np.diff(self.offsets))
        return rank_of, np.arange(self.total_eigenpairs) - self.offsets[rank_of]

    def padded_abs_eigenvalues(self) -> np.ndarray:
        """|lambda_m^(r)| at [r, m], zero-padded to (R, max_eigenpairs_per_rank)."""
        out = np.zeros((self.rank, self.max_eigenpairs_per_rank))
        out[self.pair_index] = np.abs(self.eigenvalues)
        return out

    def factor_matrix(self, r: int) -> np.ndarray:
        """Rebuild L^(r) from its retained eigenpairs, exactly symmetric."""
        lo, hi = self.offsets[r], self.offsets[r + 1]
        return _from_eigenpairs(self.eigenvalues[lo:hi], self.eigenvectors[lo:hi])


def _from_eigenpairs(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
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

    Requires the exact 8-fold symmetry of MolecularIntegrals (the parser
    writes an orbit's eight slots from one value).  Then every column is
    exactly pair-symmetric, twin diagonals stay equal and the first largest
    packed pair is the first of all N^2, so the factors are bit for bit those
    of deflating a full copy of W by one rank-1 update per pivot: residual
    column q is W[:, q] minus each earlier column times its entry q, in pivot
    order, in one ``np.subtract.reduce`` (numpy reduces pairwise only for
    ``np.add``).  A pivot's rounding residual can exceed ``tol`` at large
    scales; the pair is then picked again, and R can pass N(N+1)/2.

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
    w = m.two_body.reshape(n * n, n * n)
    rows, cols = np.triu_indices(n)
    flat = rows * n + cols
    diag = w[flat, flat]
    bound = PSD_TOLERANCE * max(float(diag.max()), 0.0)
    # buf: W's pivot column, then each earlier column times its pivot entry
    chol, buf = np.empty((2, flat.size, flat.size))
    k = 0
    while k < n * n:
        if diag.min() < -bound:
            q = int(np.argmin(diag))
            raise NotPositiveSemidefiniteError(
                f"residual diagonal {diag.min():.3e} at pair index {flat[q]} "
                f"is below -{bound:.3e}; ERI supermatrix is not PSD"
            )
        q = int(np.argmax(diag))
        if diag[q] <= tol:
            break
        if k == len(chol):  # a pair was picked again
            chol, buf = np.concatenate((chol, chol)), np.concatenate((buf, buf))
        buf[0] = w[flat, flat[q]]
        np.multiply(chol[:k], chol[:k, q, None], out=buf[1:k + 1])
        chol[k] = np.subtract.reduce(buf[:k + 1], axis=0) / np.sqrt(diag[q])
        diag -= chol[k] * chol[k]
        k += 1

    pair_of = np.empty((n, n), dtype=np.intp)
    pair_of[rows, cols] = pair_of[cols, rows] = np.arange(flat.size)
    return SingleFactorization(chol[:k, pair_of], float(np.abs(diag).max()))


def _eigh_sorted(mats: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompositions of a stack of symmetric (N, N) matrices: the
    eigenvalues (B, N) by descending |eigenvalue| and the eigenvectors as rows
    (B, N, N), each with its first component of magnitude > 1e-12 positive."""
    try:
        vals, vecs = np.linalg.eigh(mats)
    except np.linalg.LinAlgError as exc:
        # Only the first matrix that fails, found one by one, is named.
        for b, a in enumerate(mats):
            try:
                np.linalg.eigh(a)
            except np.linalg.LinAlgError as one:
                raise ArithmeticError(f"eigendecomposition failed for {what} {b}: {one}") from one
        raise ArithmeticError(f"eigendecomposition failed for a {what}: {exc}") from exc
    order = np.argsort(-np.abs(vals), axis=1, kind="stable")
    rows = np.take_along_axis(vecs, order[:, None, :], axis=2).transpose(0, 2, 1)
    rows = rows.reshape(-1, mats.shape[-1])
    above = np.abs(rows) > 1e-12
    flip = above.any(axis=1) & (rows[np.arange(rows.shape[0]), above.argmax(axis=1)] < 0)
    rows[flip] = -rows[flip]  # exact
    return np.take_along_axis(vals, order, axis=1), rows.reshape(mats.shape)


def double_factorize(sf: SingleFactorization, adj: AdjustedOneBody) -> DoubleFactorization:
    """Eigendecompose every Cholesky factor and the adjusted one-body matrix.

    Eigenpairs with |lambda| <= EIGENVALUE_CUTOFF * max|lambda| within their
    factor are numerical zeros and dropped.
    """
    n = adj.l_minus1.shape[0]
    vals, vecs = _eigh_sorted(np.reshape(sf.factors, (-1, n, n)), "factor")
    abs_vals = np.abs(vals)
    keep = abs_vals > EIGENVALUE_CUTOFF * abs_vals.max(axis=1, initial=0.0)[:, None]
    ob_vals, ob_vecs = _eigh_sorted(adj.l_minus1[None], "one-body matrix")
    return DoubleFactorization(
        one_body=adj,
        one_body_eigs=(ob_vals[0], ob_vecs[0].T),
        eigenvalues=vals[keep],
        eigenvectors=vecs[keep],
        offsets=np.concatenate(([0], np.cumsum(keep.sum(axis=1)))),
        schatten_norms=rank_sums(np.where(keep, abs_vals, 0.0)),
        n_orbitals=n,
    )


def rank_sums(padded: np.ndarray) -> np.ndarray:
    """Row sums of a zero-padded (R, m) array of |lambda|, added left to
    right one column at a time, as a loop over each rank's eigenpairs adds
    them (np.sum adds pairwise and can move the last digit)."""
    sums = np.zeros(padded.shape[0])
    for column in padded.T:
        sums += column
    return sums


def alpha_from_rank_sums(one_body_eigenvalues: np.ndarray, sums: np.ndarray) -> float:
    """alpha_DF from the one-body eigenvalues and the per-rank sums
    s_r = sum_m |lambda_m^(r)|.  The s_r ** 2 (the C library's pow, which
    does not always round like s * s) are added left to right; an
    OverflowError names the sum whose square overflows."""
    two_body = 0.0
    try:
        for s in sums.tolist():
            two_body += s ** 2
    except OverflowError:
        raise OverflowError(f"alpha_DF overflows: the square of Schatten sum {s!r} "
                            "is out of float range") from None
    return 2.0 * float(np.abs(one_body_eigenvalues).sum()) + 0.25 * two_body


def schatten_norm(a: np.ndarray) -> float:
    """Schatten 1-norm of a symmetric matrix: sum of absolute eigenvalues."""
    return float(np.abs(np.linalg.eigvalsh(a)).sum())


def alpha_df(df: DoubleFactorization) -> float:
    """Block-encoding normalization of the double-factorized Hamiltonian,

        alpha_DF = 2 ||l_minus1||_SH + 1/4 sum_r ||L^(r)||_SH^2,

    evaluated on the currently retained eigenpairs, so truncation lowers it.
    """
    return alpha_from_rank_sums(df.one_body_eigs[0], rank_sums(df.padded_abs_eigenvalues()))


def reconstruct_two_body(df: DoubleFactorization) -> np.ndarray:
    """Rebuild the chemist-notation tensor sum_r L^(r)_ij L^(r)_kl from the
    retained eigenpairs.  All factors are rebuilt at once from the eigenpairs
    zero-padded to (R, max_eigenpairs_per_rank) slots; stacked as the rows of
    F (R, N^2), they give the tensor as the one product F^T F."""
    n, slot = df.n_orbitals, df.pair_index
    values = np.zeros((df.rank, df.max_eigenpairs_per_rank))
    vectors = np.zeros(values.shape + (n,))
    values[slot], vectors[slot] = df.eigenvalues, df.eigenvectors
    factors = _from_eigenpairs(values, vectors).reshape(df.rank, n * n)
    return (factors.T @ factors).reshape(n, n, n, n)


# ---------------------------------------------------------------------------
# Binary cache
#
# A v2 file is a header that binds the cache to its input, then the v1 byte
# stream unchanged.  All little-endian:
#   magic  4s   = b"QDF2"
#   version u32 = 2
#   fcidump_sha256 32s    SHA-256 of the FCIDUMP bytes the cache was built from
#   tol f64, eigenvalue_cutoff f64    the factorization settings
#   payload_length u64    bytes of the v1 stream
#   warnings_length u32, warnings     the parser's warning texts, ASCII, one a line
#   the v1 stream:
#     magic  4s   = b"QDF1"
#     version u32 = 1
#     n_orbitals u32, rank u32, n_one_body_eigs u32
#     scalar_shift f64, core_energy f64
#     h_tilde   n*n f64
#     l_minus1  n*n f64
#     one-body eigenvalues  K f64
#     one-body eigenvectors K*n f64 (row per eigenpair)
#     per rank group:
#       rank_index u32, m u32, schatten_norm f64,
#       eigenvalues m f64, eigenvectors m*n f64 (row per eigenpair)
# ---------------------------------------------------------------------------

_MAGIC = b"QDF1"
_VERSION = 1
_MAGIC_V2 = b"QDF2"
_VERSION_V2 = 2
_HEADER_V2 = struct.Struct("<4sI32sddQI")


@dataclass(frozen=True)
class CacheHeader:
    """What a v2 cache is bound to (the SHA-256 of the FCIDUMP bytes it was
    built from, the Cholesky ``tol`` and ``EIGENVALUE_CUTOFF``), and the texts
    of the warnings the parser gave on that FCIDUMP."""

    fcidump_sha256: bytes
    tol: float
    eigenvalue_cutoff: float
    warnings: tuple[str, ...]


def save_cache(df: DoubleFactorization, path, fcidump_sha256: bytes, tol: float,
               warnings=()) -> None:
    """Write a v2 cache: ``df`` bound to the SHA-256 digest of the FCIDUMP
    bytes it was factorized from with Cholesky ``tol``, and the texts of the
    parser's ``warnings`` on that file (ASCII, without newlines)."""
    if len(fcidump_sha256) != 32:
        raise ValueError(f"expected a 32-byte SHA-256 digest, got {len(fcidump_sha256)} bytes")
    if any("\n" in text for text in warnings):
        raise ValueError("a cached warning text holds a newline")
    texts = "\n".join(warnings).encode("ascii")
    payload = _v1_parts(df)
    header = _HEADER_V2.pack(_MAGIC_V2, _VERSION_V2, fcidump_sha256, tol, EIGENVALUE_CUTOFF,
                             sum(map(len, payload)), len(texts))
    with open(path, "wb") as fh:
        fh.write(b"".join([header, texts, *payload]))


def _v1_parts(df: DoubleFactorization) -> list[bytes]:
    """The v1 byte stream of ``df``, in pieces."""
    n = df.n_orbitals
    ob_vals, ob_vecs = df.one_body_eigs
    parts = [
        _MAGIC,
        struct.pack("<IIII", _VERSION, n, df.rank, ob_vals.size),
        struct.pack("<dd", df.one_body.scalar_shift, df.one_body.core_energy),
        *(np.ascontiguousarray(a, dtype="<f8").tobytes()
          for a in (df.one_body.h_tilde, df.one_body.l_minus1, ob_vals, ob_vecs.T)),
    ]
    values = np.ascontiguousarray(df.eigenvalues, dtype="<f8")
    vectors = np.ascontiguousarray(df.eigenvectors, dtype="<f8")
    for r, (lo, hi) in enumerate(zip(df.offsets[:-1].tolist(), df.offsets[1:].tolist())):
        parts.append(struct.pack("<IId", r, hi - lo, float(df.schatten_norms[r])))
        parts += [values[lo:hi].tobytes(), vectors[lo:hi].tobytes()]
    return parts


def load_cache(path) -> DoubleFactorization:
    """Read the DoubleFactorization of a v1 or v2 cache file; ValueError
    unless the file is a complete, well-formed cache."""
    return read_cache(path)[1]


def read_cache(path) -> tuple[CacheHeader | None, DoubleFactorization]:
    """Read a v1 or v2 cache file: its header (None for v1, which carries
    none) and its DoubleFactorization.  ValueError unless the file is a
    complete, well-formed cache."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] == _MAGIC:
        return None, _from_v1_bytes(data, 0)
    if data[:4] != _MAGIC_V2:
        raise ValueError(f"bad cache magic {data[:4]!r}")
    if len(data) < _HEADER_V2.size:
        raise ValueError(f"cache is truncated: {len(data)} bytes")
    _, version, digest, tol, cutoff, payload_length, texts_length = _HEADER_V2.unpack_from(data)
    if version != _VERSION_V2:
        raise ValueError(f"unsupported cache version {version}")
    start = _HEADER_V2.size + texts_length
    if start + payload_length != len(data):
        raise ValueError(f"cache has {len(data)} bytes, its header gives {start + payload_length}")
    try:
        texts = data[_HEADER_V2.size:start].decode("ascii")
    except UnicodeDecodeError:
        raise ValueError("cache warning texts are not ASCII") from None
    header = CacheHeader(digest, tol, cutoff, tuple(texts.split("\n")) if texts else ())
    return header, _from_v1_bytes(data, start)


def _from_v1_bytes(data: bytes, pos: int) -> DoubleFactorization:
    """The DoubleFactorization of the v1 stream from ``data[pos:]`` to the end."""
    if data[pos:pos + 4] != _MAGIC:
        raise ValueError(f"bad cache magic {data[pos:pos + 4]!r}")
    pos += 4

    def take(dtype: str, count: int) -> np.ndarray:
        nonlocal pos
        size = np.dtype(dtype).itemsize * count
        if pos + size > len(data):
            raise ValueError(f"cache is truncated: {len(data)} bytes")
        out = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
        pos += size
        return out

    version, n, rank, k = take("<u4", 4).tolist()
    if version != _VERSION:
        raise ValueError(f"unsupported cache version {version}")
    scalar, core = take("<f8", 2).tolist()
    h_tilde = take("<f8", n * n).reshape(n, n).copy()
    l_minus1 = take("<f8", n * n).reshape(n, n).copy()
    ob_vals = take("<f8", k).copy()
    ob_vecs = take("<f8", k * n).reshape(k, n).T.copy()
    norms, values, vectors = [], [np.empty(0)], [np.empty(0)]
    for r in range(rank):
        index, count = take("<u4", 2).tolist()
        if index != r or count > n:
            raise ValueError(f"cache record {r} has rank index {index} and {count} eigenpairs")
        norms += take("<f8", 1).tolist()
        values.append(take("<f8", count))
        vectors.append(take("<f8", count * n))
    if pos != len(data):
        raise ValueError(f"cache has {len(data) - pos} bytes after its last record")
    eigenvalues = np.concatenate(values)
    eigenvectors = np.concatenate(vectors).reshape(-1, n)
    schatten_norms = np.array(norms)
    stored = (h_tilde, l_minus1, ob_vals, ob_vecs, eigenvalues, eigenvectors, schatten_norms,
              (scalar, core))
    if not (all(np.isfinite(a).all() for a in stored) and (schatten_norms >= 0).all()):
        raise ValueError("cache holds a non-finite value or a negative Schatten norm")
    return DoubleFactorization(
        one_body=AdjustedOneBody(h_tilde, l_minus1, scalar_shift=scalar, core_energy=core),
        one_body_eigs=(ob_vals, ob_vecs),
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        offsets=np.cumsum([v.size for v in values]),
        schatten_norms=schatten_norms,
        n_orbitals=n,
    )
