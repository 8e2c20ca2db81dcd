"""Dense exact-diagonalization ground truth for small instances.

Builds the many-body matrix of a molecular Hamiltonian (or of its
double-factorized form) under the Jordan-Wigner encoding, with spin-up
orbitals on qubits 0..N-1 and spin-down on N..2N-1; qubit 0 is the most
significant bit of a basis-state index.  Every operator built from real
integrals is real, so matrices are float64.  Each operator is one weighted
gather of cached basis-state actions (spin-summed excitations or Majorana
pairs) into a sparse matrix.  Both Hamiltonians conserve (N_up, N_down), so
spectra are taken sector block by sector block.  Capped at N = 6 spatial
orbitals (4096-dimensional, largest sector block C(6,3)^2 = 400).  Used to
verify the factorization identity, the one-body norm identity, and the
truncation error bounds.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from qdf.factorization import DoubleFactorization
from qdf.integrals import MolecularIntegrals

__all__ = [
    "FockOperator",
    "build_from_df",
    "build_from_integrals",
    "df_fragments",
    "ground_energy",
    "majorana_pair_matrix",
    "one_body_norm_check",
    "particle_number_commutator_norm",
    "spectral_norm",
]

#: Largest spatial-orbital count the dense backend accepts.
DENSE_ORBITAL_CAP = 6

HERMITICITY_TOLERANCE = 1e-10


def _check_cap(n: int):
    if n > DENSE_ORBITAL_CAP:
        raise ValueError(
            f"dense oracle capped at N <= {DENSE_ORBITAL_CAP} spatial orbitals, got {n}"
        )


def _real(matrix) -> np.ndarray:
    """``matrix`` as float64; complex input must have a zero imaginary part."""
    matrix = np.asarray(matrix)
    if np.iscomplexobj(matrix):
        if np.any(matrix.imag):
            raise ValueError("the dense oracle is real-valued: got a non-zero imaginary part")
        matrix = matrix.real
    return np.ascontiguousarray(matrix, dtype=float)


class FockOperator:
    """Dense real symmetric many-body matrix over 2N Jordan-Wigner qubits."""

    def __init__(self, n_spatial: int, matrix: np.ndarray):
        _check_cap(n_spatial)
        matrix = _real(matrix)
        dim = 1 << (2 * n_spatial)
        if matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {matrix.shape} != ({dim}, {dim})")
        herm = np.abs(matrix - matrix.T).max()
        if herm > HERMITICITY_TOLERANCE:
            raise ValueError(f"matrix is not Hermitian: max deviation {herm:.3e}")
        self.n_spatial = n_spatial
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _popcount(values: np.ndarray, bits: int) -> np.ndarray:
    """Number of set bits among the low ``bits`` bits of each value."""
    counts = np.zeros(values.shape, dtype=np.int64)
    for q in range(bits):
        counts += (values >> q) & 1
    return counts


class _Stack(NamedTuple):
    """COO entries of a family of N x N operators X_ij: entry e belongs to
    X_ij with i * N + j = ``owner[e]``."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    owner: np.ndarray


class _JordanWigner:
    """Basis-state actions and (N_up, N_down) sectors for N spatial orbitals.

    ``excitation`` holds F_ij = sum_s a+_{is} a_{js}, and ``majorana_pair``
    holds (i/2) sum_s gamma_{is,0} gamma_{js,1} = 1/2 sum_s (a_{is} + a+_{is})
    (a_{js} - a+_{js}), with gamma_{p,0} = a_p + a+_p and gamma_{p,1} =
    -i (a_p - a+_p).  ``sectors`` maps (N_up, N_down) to its basis indices.
    """

    _cache: dict[int, "_JordanWigner"] = {}

    def __init__(self, n: int):
        _check_cap(n)
        self.n = n
        self.dim = 1 << (2 * n)
        self._states = states = np.arange(self.dim, dtype=np.int64)
        self.excitation = self._stack([(1.0, True, False)])
        self.majorana_pair = self._stack(
            [(0.5, False, False), (-0.5, False, True), (0.5, True, False), (-0.5, True, True)]
        )
        up = _popcount(states >> n, n)
        down = _popcount(states, n)
        self.sectors = {
            (n_up, n_down): np.flatnonzero((up == n_up) & (down == n_down))
            for n_up in range(n + 1)
            for n_down in range(n + 1)
        }

    @classmethod
    def get(cls, n: int) -> "_JordanWigner":
        if n not in cls._cache:
            cls._cache[n] = cls(n)
        return cls._cache[n]

    def _ladder(self, mode: int, create: bool) -> tuple[np.ndarray, np.ndarray]:
        """(image, sign) of a+_mode (or a_mode) on every basis state; the sign
        is 0 where the operator annihilates the state."""
        shift = 2 * self.n - 1 - mode
        occupied = (self._states >> shift) & 1
        # Jordan-Wigner string: parity of the modes before ``mode``, which are
        # the more significant bits.
        parity = _popcount(self._states >> (shift + 1), mode) & 1
        sign = (1 - 2 * parity) * (occupied != create)
        return self._states ^ (1 << shift), sign

    def _stack(self, terms: list[tuple[float, bool, bool]]) -> _Stack:
        """Entries of X_ij = sum_s sum_(c, p, q) c * b_{is} b'_{js} over
        ``terms`` (c, p, q), where b is a+ if p else a, and b' likewise."""
        n = self.n
        ladders = {(mode, create): self._ladder(mode, create)
                   for mode in range(2 * n) for create in (False, True)}
        rows, cols, vals, owner = [], [], [], []
        for i in range(n):
            for j in range(n):
                for s in (0, n):
                    for coeff, create_i, create_j in terms:
                        image_j, sign_j = ladders[j + s, create_j]
                        image_i, sign_i = ladders[i + s, create_i]
                        sign = sign_j * sign_i[image_j]
                        (nz,) = np.nonzero(sign)
                        rows.append(image_i[image_j[nz]])
                        cols.append(nz)
                        vals.append(coeff * sign[nz])
                        owner.append(np.full(nz.size, i * n + j))
        return _Stack(*(np.concatenate(part) for part in (rows, cols, vals, owner)))

    def gather(self, stack: _Stack, coeffs: np.ndarray) -> sp.csr_matrix:
        """sum_ij coeffs[i, j] X_ij over the family in ``stack``."""
        vals = stack.vals * _real(coeffs).reshape(-1)[stack.owner]
        return sp.csr_matrix((vals, (stack.rows, stack.cols)), shape=(self.dim, self.dim))


def build_from_integrals(m: MolecularIntegrals) -> FockOperator:
    """Dense matrix of the second-quantized Hamiltonian

        H = core + sum_{ij,s} h_ij a+_{is} a_{js}
                 + 1/2 sum_{ijkl,sr} (ij|kl) a+_{is} a+_{kr} a_{lr} a_{js}.

    With a+_p a+_t a_u a_q = E_pq E_tu - delta_{qt} E_pu (E_pq = a+_p a_q)
    and the spin sum F_ij = sum_s E_{is,js}, the two-body part is

        1/2 sum_ij F_ij K_ij - 1/2 sum_il (sum_j (ij|jl)) F_il,
        K_ij = sum_kl (ij|kl) F_kl,

    built from the raw integrals, independent of any factorization.
    """
    n = m.n_orbitals
    jw = _JordanWigner.get(n)
    f, dim, pairs = jw.excitation, jw.dim, n * n
    g = m.two_body
    # The F_ij side by side times the K_ij stacked: one product sums F_ij K_ij.
    f_row = sp.csr_matrix((f.vals, (f.rows, f.owner * dim + f.cols)), shape=(dim, pairs * dim))
    k_vals = g.reshape(pairs, pairs)[:, f.owner] * f.vals
    k_rows = np.arange(pairs)[:, None] * dim + f.rows
    k_col = sp.csr_matrix(
        (k_vals.ravel(), (k_rows.ravel(), np.tile(f.cols, pairs))), shape=(pairs * dim, dim)
    )
    one_body = jw.gather(f, m.one_body - 0.5 * np.einsum("ijjl->il", g))
    dense = (one_body + 0.5 * (f_row @ k_col)).toarray()
    dense += m.core_energy * np.eye(dim)
    return FockOperator(n, dense)


def _majorana_pair_sparse(l_matrix: np.ndarray) -> sp.csr_matrix:
    jw = _JordanWigner.get(l_matrix.shape[0])
    return jw.gather(jw.majorana_pair, l_matrix)


def majorana_pair_matrix(l_matrix: np.ndarray) -> np.ndarray:
    """Dense real matrix of G_L = (i/2) sum_{ij,s} L_ij gamma_{i,s,0}
    gamma_{j,s,1} on 2N Jordan-Wigner qubits."""
    return _majorana_pair_sparse(l_matrix).toarray()


def build_from_df(df: DoubleFactorization) -> FockOperator:
    """Dense matrix of the double-factorized form

        H = (core_energy + scalar_shift) * I + G_{l_minus1} + 1/2 sum_r G_{L^(r)}^2,

    where each L^(r) is rebuilt from the retained eigenpairs.  For an
    untruncated factorization this equals :func:`build_from_integrals` of the
    source integrals up to the factorization residual.
    """
    total = _majorana_pair_sparse(df.one_body.l_minus1)
    for r in range(df.rank):
        g_r = _majorana_pair_sparse(df.factor_matrix(r))
        total = total + 0.5 * (g_r @ g_r)
    dense = total.toarray()
    dense += (df.one_body.scalar_shift + df.one_body.core_energy) * np.eye(dense.shape[0])
    return FockOperator(df.n_orbitals, dense)


def df_fragments(df: DoubleFactorization) -> list[np.ndarray]:
    """Hermitian fragments {G_{l_minus1}, 1/2 G_{L^(r)}^2, ...} whose sum plus
    the scalar shift is the double-factorized Hamiltonian; input for the
    product-formula step bound."""
    frags = [majorana_pair_matrix(df.one_body.l_minus1)]
    for r in range(df.rank):
        g_r = _majorana_pair_sparse(df.factor_matrix(r))
        frags.append(0.5 * (g_r @ g_r).toarray())
    return frags


def _sector_blocks(matrix: np.ndarray, n_electrons: int | None = None):
    """The (N_up, N_down) diagonal blocks of a 4^N x 4^N matrix, only those
    with N_up + N_down = ``n_electrons`` if it is given.  Raises ValueError
    if a row of a block has a non-zero entry outside the block: the block
    spectra would then not be spectra of the matrix."""
    dim = matrix.shape[0]
    n = (dim.bit_length() - 1) // 2
    if matrix.shape != (1 << (2 * n),) * 2:
        raise ValueError(f"matrix shape {matrix.shape} is not 4^N x 4^N")
    for (n_up, n_down), index in _JordanWigner.get(n).sectors.items():
        if n_electrons is not None and n_up + n_down != n_electrons:
            continue
        rows = matrix[index]
        block = rows[:, index]
        if np.count_nonzero(rows) != np.count_nonzero(block):
            raise ValueError(
                f"matrix couples the (N_up, N_down) = ({n_up}, {n_down}) sector to another"
            )
        yield block


def ground_energy(op: FockOperator, n_electrons: int) -> float:
    """Minimum eigenvalue within the fixed-particle-number sector, the lowest
    over its (N_up, N_down) blocks."""
    n_modes = 2 * op.n_spatial
    if not (0 <= n_electrons <= n_modes):
        raise ValueError(f"no {n_electrons}-electron sector in {n_modes} spin-orbitals")
    return min(float(np.linalg.eigvalsh(b)[0]) for b in _sector_blocks(op.matrix, n_electrons))


def particle_number_commutator_norm(op: FockOperator) -> float:
    """Max |entry| of [H, N_hat]; zero for particle-conserving Hamiltonians."""
    counts = _popcount(np.arange(op.dim, dtype=np.int64), 2 * op.n_spatial).astype(float)
    delta = counts[None, :] - counts[:, None]  # [H, diag(c)]_xy = H_xy (c_y - c_x)
    return float(np.abs(op.matrix * delta).max())


def spectral_norm(op) -> float:
    """Largest |eigenvalue| of a FockOperator or of a real symmetric 4^N x 4^N
    ndarray, the largest over its (N_up, N_down) blocks.  Raises ValueError
    if the matrix couples two sectors."""
    matrix = op.matrix if isinstance(op, FockOperator) else _real(op)
    return max(float(np.abs(np.linalg.eigvalsh(b)).max()) for b in _sector_blocks(matrix))


def one_body_norm_check(l_matrix: np.ndarray) -> tuple[float, float]:
    """(spectral norm of G_L, Schatten norm of L); the two agree for any
    symmetric L, which pins the Majorana-pair normalization."""
    from qdf.factorization import schatten_norm

    g = majorana_pair_matrix(l_matrix)
    return spectral_norm(g), schatten_norm(l_matrix)

